package obs_test

import (
	"testing"

	"clocksync/internal/obs"
)

// Alloc budgets of the instrumentation paths that sit inside every Sync
// round and every wire message. They run in plain `go test`, so a regression
// fails CI without anyone comparing benchmark output; what observing costs
// end to end is benchmark/'s obs.trace_overhead_share.

// TestObserverDisabledAllocFree pins the no-sink fast path — the default for
// every simulation and live node: tallying an event and running the span
// guard on an observer with no sinks must not allocate.
func TestObserverDisabledAllocFree(t *testing.T) {
	o := obs.NewObserver()
	e := obs.Event{Kind: obs.KindRound, Node: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		o.Emit(e)
		if o.SpansEnabled() {
			t.Fatal("spans enabled without a span sink")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled observer path allocates: %v allocs/op", allocs)
	}
}

// TestRoundSpanAllocBound pins the inline-Fields redesign: one fully traced
// round (6 peers — 14 spans into a ring) must stay within 4 allocs/op. With
// map-backed fields it cost 28.
func TestRoundSpanAllocBound(t *testing.T) {
	o := obs.NewObserver()
	o.AddSpanSink(obs.NewSpanRing(1024))
	const peers = 6
	allocs := testing.AllocsPerRun(1000, func() {
		round := o.NextSpanID()
		for p := 0; p < peers; p++ {
			est := o.NextSpanID()
			o.EmitSpan(obs.Span{
				ID: est, Parent: round, Name: obs.SpanEstimate, Node: 0,
				Start: 1, End: 1.05,
				Fields: obs.F("peer", float64(p)).F("d", 0.01).F("a", 0.002).F("rtt", 0.05).F("ok", 1),
			})
			o.EmitSpan(obs.Span{
				ID: o.NextSpanID(), Parent: est, Name: obs.SpanReading, Node: 0,
				Start: 1.06, End: 1.06,
				Fields: obs.F("peer", float64(p)).F("accepted", 1).F("lowtrim", 0).F("hightrim", 0),
			})
		}
		o.EmitSpan(obs.Span{
			ID: o.NextSpanID(), Parent: round, Name: obs.SpanAdjust, Node: 0,
			Start: 1.06, End: 1.06, Fields: obs.F("delta", -0.004).F("wayoff", 0),
		})
		o.EmitSpan(obs.Span{
			ID: round, Name: obs.SpanRound, Node: 0, Start: 1, End: 1.06,
			Fields: obs.F("delta", -0.004).F("wayoff", 0),
		})
	})
	if allocs > 4 {
		t.Errorf("traced round allocates %v allocs/op, want <= 4", allocs)
	}
}

// TestTraceContextDisabledAllocFree pins the fleet-telemetry acceptance
// bound: the wire layers run one SpansEnabled guard per outgoing request to
// decide whether to issue and stamp a span ID, and with no span sink attached
// that must add zero allocations per message.
func TestTraceContextDisabledAllocFree(t *testing.T) {
	o := obs.NewObserver()
	allocs := testing.AllocsPerRun(1000, func() {
		var span obs.SpanID
		if o.SpansEnabled() {
			span = o.NextSpanID()
		}
		if span != 0 {
			t.Fatal("span issued without a span sink")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled trace-context path allocates: %v allocs/op", allocs)
	}
}

// TestReplySpanAllocBound pins the responder side of a cross-node join: one
// reply span with five inline fields into a ring must stay within 1 alloc/op
// (the ring stores spans by value; the budget leaves headroom for the
// fan-out slice read).
func TestReplySpanAllocBound(t *testing.T) {
	o := obs.NewObserver()
	o.AddSpanSink(obs.NewSpanRing(1024))
	id := obs.SpanID(0)
	allocs := testing.AllocsPerRun(2000, func() {
		id++
		o.EmitSpan(obs.Span{
			ID: id, Name: obs.SpanReply, Node: 1,
			Start: 1, End: 1,
			Fields: obs.F("origin", 0).F("origin_epoch", 41).
				F("node_time", 1.5).F("unc", 0.0004).F("epoch", 42),
		})
	})
	if allocs > 1 {
		t.Errorf("reply span emission allocates %v allocs/op, want <= 1", allocs)
	}
}
