package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
	"clocksync/internal/trace"
)

// TestRunWithObserver checks the observability contract the public API
// documents: a run with an observer attached reports sync rounds and
// message totals in its Recorder, emits one round event per completed Sync,
// and tallies event kinds into Result.EventCounts.
func TestRunWithObserver(t *testing.T) {
	ring := obs.NewRing(10_000)
	o := obs.NewObserver(ring)
	s := baseScenario()
	s.Duration = 3 * simtime.Minute
	s.Observer = o
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := o.Recorder()
	if rec.SyncRounds.Load() == 0 {
		t.Error("no sync rounds recorded")
	}
	if rec.MessagesSent.Load() == 0 || rec.MessagesReceived.Load() == 0 {
		t.Errorf("message counters empty: sent=%d received=%d",
			rec.MessagesSent.Load(), rec.MessagesReceived.Load())
	}
	if int(rec.MessagesSent.Load()) != res.MsgsSent {
		t.Errorf("recorder sent %d != result %d", rec.MessagesSent.Load(), res.MsgsSent)
	}
	if res.Obs != o {
		t.Error("Result.Obs does not point at the attached observer")
	}
	if res.EventCounts[obs.KindRound] != rec.SyncRounds.Load() {
		t.Errorf("round events %d != sync rounds %d",
			res.EventCounts[obs.KindRound], rec.SyncRounds.Load())
	}
	rounds := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KindRound {
			rounds++
			if _, ok := e.Fields["delta"]; !ok {
				t.Fatalf("round event missing delta field: %+v", e)
			}
		}
	}
	if rounds == 0 {
		t.Error("ring captured no round events")
	}
}

// TestRunWithEventSinkOnly exercises the convenience path: EventSink without
// an explicit Observer gets a fresh observer created for the run.
func TestRunWithEventSinkOnly(t *testing.T) {
	var b strings.Builder
	sink := obs.NewJSONL(&b)
	s := baseScenario()
	s.Duration = 2 * simtime.Minute
	s.EventSink = sink
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("no observer created for EventSink")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	// The JSONL stream must parse with the trace package — the contract
	// cmd/tracestat relies on for syncsim -trace-out output.
	events, err := trace.Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("event stream empty")
	}
	sum := trace.Summarize(events)
	if sum.ByKind[string(obs.KindRound)] == 0 {
		t.Errorf("summary tallied no round events: %v", sum.ByKind)
	}
}

// TestTraceSurvivesMidStreamClose kills the JSONL trace mid-run — exactly
// what the syncsim/syncnode SIGINT handlers do — and re-parses the file: the
// sink's single-encoder design must leave it ending on a complete line, so
// an interrupted run is still fully analyzable with tracestat.
func TestTraceSurvivesMidStreamClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(fh)
	o := obs.NewObserver(sink)
	o.AddSpanSink(sink)
	var seen atomic.Int64
	o.AddSink(obs.SinkFunc(func(obs.Event) {
		if seen.Add(1) == 25 { // mid-stream: well before the run ends
			if err := sink.Close(); err != nil {
				t.Errorf("mid-stream close: %v", err)
			}
		}
	}))

	s := baseScenario()
	s.Duration = 10 * simtime.Minute
	s.Observer = o
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	if total := seen.Load(); total <= 25 {
		t.Fatalf("run emitted only %d events; close was not mid-stream", total)
	}

	fh2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh2.Close()
	events, err := trace.Read(fh2)
	if err != nil {
		t.Fatalf("interrupted trace does not re-parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("interrupted trace is empty")
	}
	spans := 0
	for _, e := range events {
		if e.Kind == obs.KindSpan {
			spans++
		}
	}
	if spans == 0 {
		t.Error("interrupted trace captured no span records")
	}
	// Raw check the complete-line guarantee directly: the file must end in
	// exactly one trailing newline.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Error("interrupted trace does not end on a complete line")
	}
}

// TestRunWithAdversaryEmitsCorruptionEvents checks corruption/release events
// reach the sink and the tally.
func TestRunWithAdversaryEmitsCorruptionEvents(t *testing.T) {
	s := baseScenario()
	s.Adversary = adversary.Rotate(s.N, s.F, simtime.Time(3*simtime.Minute),
		30*simtime.Second, s.Theta, 2,
		func(int) protocol.Behavior { return adversary.Crash{} })
	ring := obs.NewRing(100_000)
	s.Observer = obs.NewObserver(ring)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(s.Adversary.Corruptions))
	if want == 0 {
		t.Fatal("rotation schedule produced no corruptions")
	}
	if res.EventCounts[obs.KindCorrupt] != want || res.EventCounts[obs.KindRelease] != want {
		t.Errorf("corrupt/release tallies = %d/%d, want %d",
			res.EventCounts[obs.KindCorrupt], res.EventCounts[obs.KindRelease], want)
	}
}
