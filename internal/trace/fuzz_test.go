package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/conformance"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// TestSummarizeHugeNodeID pins the fix the fuzzer forced: one corrupted
// event claiming node 9999999 must not make Summarize materialize (and
// String print) millions of dense per-node rows.
func TestSummarizeHugeNodeID(t *testing.T) {
	events, err := trace.Read(strings.NewReader(
		`{"at":1,"kind":"adjust","node":0,"delta":0.1}` + "\n" +
			`{"at":2,"kind":"corrupt","node":9999999}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(events)
	if s.Nodes != 10_000_000 {
		t.Errorf("Nodes = %d, want the claimed id range", s.Nodes)
	}
	if len(s.PerNode) != 2 {
		t.Fatalf("PerNode materialized %d rows for 2 distinct nodes", len(s.PerNode))
	}
	if got := s.PerNode[1].Node; got != 9999999 {
		t.Errorf("sparse rows lost the huge node: %d", got)
	}
	if len(s.String()) > 1<<16 {
		t.Error("String() output blew up on a sparse trace")
	}
}

// FuzzTraceJSONL throws hostile JSONL at the trace reader and everything
// downstream of it: parse, summarize, and the conformance refinement check.
// None of them may panic on any input — a trace file is often the only
// artifact of a failed run, and it arrives truncated, interleaved, or
// corrupted exactly when it matters most. Read may reject a trace with an
// error; everything that accepts its output must then cope with whatever
// events came through.
//
// Whatever Read accepts is also written back through the stream's one encoder
// and read again: every record must come back equal — zero-duration spans
// with their duration, empty field sets as none, legacy adjust lines with
// their delta — or a recording would not survive `tracestat`-style tooling
// that rewrites it (syncmon -export does).
func FuzzTraceJSONL(f *testing.F) {
	// A well-formed stream mixing every record shape.
	f.Add(`{"at":0,"kind":"sample","biases":[0,0.1],"deviation":0.1}
{"at":1,"kind":"adjust","node":1,"delta":-0.05}
{"at":2,"kind":"corrupt","node":0}
{"at":3,"kind":"release","node":0}
{"at":10,"kind":"span","node":0,"name":"round","span":1,"dur":1,"fields":{"delta":0.5,"wayoff":0}}
{"at":10.1,"kind":"span","node":0,"name":"estimate","span":2,"parent":1,"dur":0.2,"fields":{"peer":1,"d":2,"a":1,"ok":1}}
`)
	// A line truncated mid-object, as a killed writer leaves it.
	f.Add(`{"at":10,"kind":"span","node":0,"name":"round","span":1,"du`)
	// Span kinds interleaved out of causal order: child before parent,
	// orphan estimate, duplicate span ids.
	f.Add(`{"at":5,"kind":"span","node":1,"name":"estimate","span":9,"parent":7,"fields":{"peer":0,"ok":1}}
{"at":6,"kind":"span","node":1,"name":"round","span":7,"dur":1,"fields":{"skip":1}}
{"at":6,"kind":"span","node":1,"name":"round","span":7,"dur":1,"fields":{"delta":0}}
`)
	// Hostile timestamps: NaN/Inf are not valid JSON, but huge exponents,
	// negatives and null fields are.
	f.Add(`{"at":1e308,"kind":"round","node":-5,"fields":{"delta":-1e308,"wayoff":2}}
{"at":-1,"kind":"corrupt","node":9999999}
{"at":null,"kind":"release","node":0}
`)
	// Non-JSON garbage, empty lines, and a BOM.
	f.Add("\xef\xbb\xbfnot json\n\n{}\n")
	// The round-trip corner cases: a zero-duration span, a span line that
	// dropped its dur (old syncmon exports), empty and null containers.
	f.Add(`{"at":1,"kind":"span","node":2,"name":"reading","span":3,"parent":2,"dur":0,"fields":{"accepted":1}}
{"at":1,"kind":"span","name":"reply","span":3}
{"at":2,"kind":"round","node":1,"fields":{}}
{"at":3,"kind":"sample","biases":[],"deviation":0,"dur":null,"fields":null}
{"at":4,"kind":"note","text":"kept readable, not kept"}
`)

	f.Fuzz(func(t *testing.T, input string) {
		events, err := trace.Read(strings.NewReader(input))
		if err != nil {
			return // rejected cleanly; nothing downstream to exercise
		}
		// (Re-encoding can lengthen a line — 1e20 is written out in full —
		// so only inputs far below Read's line limit are round-tripped.)
		if len(input) < 1<<16 {
			requireRoundTrip(t, events)
		}
		// Summarize and String must absorb any event mix without panicking.
		_ = trace.Summarize(events).String()
		// So must the refinement checker — replaying a stream with round
		// spans, refusing one without — with and without a pinned WayOff.
		for _, cfg := range []conformance.Config{
			{F: 1},
			{F: 2, WayOff: 1},
		} {
			rep, err := conformance.Check(events, cfg)
			if err != nil {
				continue
			}
			_ = rep.Summary()
			for _, v := range rep.Violations {
				_ = v.String()
			}
		}
	})
}

// requireRoundTrip writes events through obs.JSONL and reads them back. The
// encoder omits empty containers, so a decoded `"fields":{}` is compared as
// the nil it comes back as; everything else must be equal as decoded.
func requireRoundTrip(t *testing.T, events []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	for i := range events {
		if len(events[i].Fields) == 0 {
			events[i].Fields = nil
		}
		if len(events[i].Biases) == 0 {
			events[i].Biases = nil
		}
		sink.Emit(events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("encoding decoded records: %v", err)
	}
	again, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("the encoder's own output does not parse: %v", err)
	}
	if !reflect.DeepEqual(again, events) {
		t.Fatalf("records changed across a write and a read:\n wrote %+v\n  read %+v", events, again)
	}
}
