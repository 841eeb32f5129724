package core

import (
	"math"
	"testing"

	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// step is one input to the round machine. A reply is given by the offset d
// and error a its exchange measures: sent at S = 0, received at R = 2a with
// the peer's clock reading C = d + a, so (C − R) + (R−S)/2 = d exactly for
// the dyadic values the table uses.
type step struct {
	op      string // "begin", "reply", "expire" or "abort"
	peers   []int  // begin
	slot    int    // reply
	d, a    float64
	refused bool // reply: the machine must refuse it
}

func begin(peers ...int) step           { return step{op: "begin", peers: peers} }
func reply(slot int, d, a float64) step { return step{op: "reply", slot: slot, d: d, a: a} }
func refused(slot int, d, a float64) step {
	return step{op: "reply", slot: slot, d: d, a: a, refused: true}
}

// TestRoundMachine drives the machine through the inputs a driver can
// produce — in and out of order — and checks the one Outcome it closes with.
// The verdict rows repeat the hand-computed cases of converge_test.go through
// the machine's front door, so the pure function and the machine cannot
// drift.
func TestRoundMachine(t *testing.T) {
	const w = 100 // WayOff
	cases := []struct {
		name   string
		f      int
		steps  []step
		open   bool // replies are still outstanding when the driver closes
		ok     bool
		jumped bool
		failed int
		delta  float64
		unc    float64
	}{
		{
			name: "all agree", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 0, 0), reply(1, 0, 0), reply(2, 0, 0)},
			ok:    true,
		},
		{
			// Self 0, peers 2, 4, 6: m = 2, M = 4 → (min(2,0)+max(4,0))/2 = 2.
			name: "clipped branch, hand computed", f: 1,
			steps: []step{begin(1, 2, 3), reply(2, 6, 0), reply(0, 2, 0), reply(1, 4, 0)},
			ok:    true, delta: 2, unc: 6,
		},
		{
			// Error bounds widen the trimmed range: overs {0, 3, 5, 7}, unders
			// {0, 1, 3, 5} → m = 3, M = 3 → delta 1.5.
			name: "error bounds enter the extremes", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 2, 1), reply(1, 4, 1), reply(2, 6, 1)},
			ok:    true, delta: 1.5, unc: 7,
		},
		{
			name: "duplicate reply: first answer wins", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 2, 0), refused(0, 50, 0), reply(1, 4, 0),
				refused(1, -50, 0), reply(2, 6, 0)},
			ok: true, delta: 2, unc: 6,
		},
		{
			name: "reply after expiry is refused", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 2, 0), reply(1, 4, 0), {op: "expire"}, refused(2, 6, 0)},
			// Self 0, 2, 4 and one timeout: overs {0, 2, 4, ∞}, unders {0, 2, 4, −∞}
			// → m = 2, M = 2 → delta 1.
			ok: true, failed: 1, delta: 1, unc: 4,
		},
		{
			name: "reply for a foreign slot is refused", f: 1,
			steps: []step{begin(1, 2, 3), refused(3, 9, 0), refused(-1, 9, 0), reply(0, 0, 0),
				reply(1, 0, 0), reply(2, 0, 0)},
			ok: true,
		},
		{
			name: "all peers time out", f: 1,
			steps: []step{begin(1, 2, 3)},
			open:  true, failed: 3,
		},
		{
			// 2f peers plus self is the least that can be trimmed by f on both
			// sides: readings {0, 8, 8, 8, 8} → m = M = 8 → delta 4.
			name: "exactly 2f answers", f: 2,
			steps: []step{begin(1, 2, 3, 4), reply(0, 8, 0), reply(1, 8, 0), reply(2, 8, 0), reply(3, 8, 0)},
			ok:    true, delta: 4, unc: 8,
		},
		{
			name: "2f-1 answers cannot be trimmed", f: 2,
			steps: []step{begin(1, 2, 3), reply(0, 8, 0), reply(1, 8, 0), reply(2, 8, 0)},
			unc:   8,
		},
		{
			// Timeouts are infinitely wide readings: overs {0, 2, ∞, ∞}, unders
			// {0, 2, −∞, −∞} → m = 2, M = 0 → the own clock is inside, delta 0.
			name: "timeouts act as extremes", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 2, 0)},
			open:  true, ok: true, failed: 2, unc: 2,
		},
		{
			// Everyone else is 1000 away: m = M = 1000 > WayOff → jump to them.
			name: "WayOff jump", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 1000, 0), reply(1, 1000, 0), reply(2, 1000, 0)},
			ok:    true, jumped: true, delta: 1000, unc: 1000,
		},
		{
			name: "negative WayOff jump", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, -1000, 0), reply(1, -1010, 0), reply(2, -990, 0)},
			ok:    true, jumped: true, delta: -995, unc: 1010,
		},
		{
			// The aborted round's answer must not leak into the next one.
			name: "abort mid-round", f: 1,
			steps: []step{begin(1, 2, 3), reply(0, 50, 0), {op: "abort"}, refused(1, 50, 0),
				begin(1, 2, 3), reply(0, 2, 0), reply(1, 4, 0), reply(2, 6, 0)},
			ok: true, delta: 2, unc: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRound(0, tc.f, w)
			for i, st := range tc.steps {
				switch st.op {
				case "begin":
					r.Begin(st.peers, nil)
				case "expire":
					r.Expire()
				case "abort":
					r.Abort()
					if r.Open() || len(r.Estimates()) != 0 {
						t.Fatalf("step %d: aborted round still holds %d estimates (open=%v)", i, len(r.Estimates()), r.Open())
					}
				case "reply":
					e, ok := r.Reply(st.slot, 0, simtime.Time(2*st.a), simtime.Time(st.d+st.a), 0)
					if ok == st.refused {
						t.Fatalf("step %d: reply to slot %d accepted=%v, want refused=%v", i, st.slot, ok, st.refused)
					}
					if ok && (float64(e.D) != st.d || float64(e.A) != st.a || !e.OK) {
						t.Fatalf("step %d: measured %+v, want d=%v a=%v", i, e, st.d, st.a)
					}
				}
			}
			if r.Open() != tc.open {
				t.Fatalf("round open=%v before Close, want %v", r.Open(), tc.open)
			}
			out := r.Close()
			if r.Open() {
				t.Fatal("round still open after Close")
			}
			if out.OK != tc.ok || out.Jumped != tc.jumped || out.Failed != tc.failed ||
				float64(out.Delta) != tc.delta || float64(out.Unc) != tc.unc {
				t.Fatalf("outcome %+v, want ok=%v jumped=%v failed=%d delta=%v unc=%v",
					out, tc.ok, tc.jumped, tc.failed, tc.delta, tc.unc)
			}
			all := append(append([]protocol.Estimate(nil), r.Estimates()...), protocol.Estimate{OK: true})
			if d, j, ok := ConvergeVerdict(tc.f, w, all); d != out.Delta || j != out.Jumped || ok != out.OK {
				t.Fatalf("pure function disagrees with the machine: (%v, %v, %v) vs %+v", d, j, ok, out)
			}
		})
	}
}

// TestRoundTrimVerdicts pins the per-reading verdicts the reading spans
// report: with f = 1 the smallest overestimate is low-trimmed and the largest
// underestimate high-trimmed, and a timed-out reading is trimmed on both
// sides or neither depending only on where infinity falls.
func TestRoundTrimVerdicts(t *testing.T) {
	r := NewRound(9, 1, 100)
	out := r.Decide([]protocol.Estimate{
		{Peer: 1, D: -3, OK: true}, {Peer: 2, D: 1, OK: true}, {Peer: 3, D: 5, OK: true},
		protocol.FailedEstimate(4),
	})
	// Readings in order: −3, 1, 5, timeout, self 0. m = second smallest over
	// = 0, M = second largest under = 1.
	if !out.OK || out.M != 0 || out.MM != 1 || out.Failed != 1 {
		t.Fatalf("outcome %+v", out)
	}
	want := [][2]bool{{true, false}, {false, false}, {false, true}, {false, false}, {false, false}}
	for i, w := range want {
		if low, high := out.Trimmed(i); low != w[0] || high != w[1] {
			t.Errorf("reading %d: trimmed (low=%v, high=%v), want %v", i, low, high, w)
		}
	}
}

// TestRoundRecordsOneSpanSet pins the record set of a traced round: one
// reading span per estimate (self included) parented to the estimation span
// that fed it, one adjust span, one round span, one round event — and for a
// skipped round the skip event and a bare skip span.
func TestRoundRecordsOneSpanSet(t *testing.T) {
	ring, spans := obs.NewRing(8), obs.NewSpanRing(16)
	o := obs.NewObserver(ring)
	o.AddSpanSink(spans)
	r := NewRound(0, 1, 100)
	r.Begin([]int{1, 2, 3}, nil)
	r.Sent(2, 77) // the ping that will time out
	r.Reply(0, 0, 2, 3, 41)
	r.Reply(1, 0, 2, 5, 42)
	out := r.Close()
	r.Record(o, o.Recorder(), 7, 10, 11)
	if !out.OK || out.Failed != 1 {
		t.Fatalf("outcome %+v", out)
	}
	var names []string
	parents := map[float64]obs.SpanID{}
	for _, s := range spans.Spans() {
		names = append(names, s.Name)
		if s.Name == obs.SpanReading {
			parents[s.Fields.Get("peer")] = s.Parent
		}
		if s.Node != 0 || s.End != 11 {
			t.Errorf("span %+v not stamped with the driver's node and instant", s)
		}
	}
	wantNames := []string{obs.SpanReading, obs.SpanReading, obs.SpanReading, obs.SpanReading, obs.SpanAdjust, obs.SpanRound}
	if len(names) != len(wantNames) {
		t.Fatalf("spans %v, want %v", names, wantNames)
	}
	for i := range names {
		if names[i] != wantNames[i] {
			t.Fatalf("spans %v, want %v", names, wantNames)
		}
	}
	for peer, want := range map[float64]obs.SpanID{1: 41, 2: 42, 3: 77, 0: 7} {
		if parents[peer] != want {
			t.Errorf("reading of peer %v parents to span %d, want %d", peer, parents[peer], want)
		}
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindRound || evs[0].Fields["failed"] != 1 ||
		evs[0].Fields["delta"] != float64(out.Delta) || evs[0].At != 11 {
		t.Fatalf("round event %+v", evs)
	}
	if got := o.Recorder().SyncRounds.Load(); got != 1 {
		t.Fatalf("SyncRounds = %d", got)
	}

	r.Begin([]int{1, 2, 3}, nil)
	r.Close()
	r.Record(o, o.Recorder(), 8, 20, 21)
	all := spans.Spans()
	if last := all[len(all)-1]; len(all) != len(wantNames)+1 || last.Name != obs.SpanRound ||
		last.Fields.Get("skip") != 1 || last.Fields.Len() != 1 {
		t.Fatalf("skipped round recorded %+v", all[len(wantNames):])
	}
	if evs = ring.Events(); len(evs) != 2 || evs[1].Kind != obs.KindSkip || evs[1].Fields != nil {
		t.Fatalf("skip event %+v", evs)
	}
	if got := o.Recorder().RoundsSkipped.Load(); got != 1 {
		t.Fatalf("RoundsSkipped = %d", got)
	}
}

// TestRoundSteadyStateAllocFree pins the machine's steady state: once warm,
// with the driver lending the same storage every round and the selection
// drawing pooled scratch, begin → n replies → close → record costs no
// allocation (an untraced live node runs exactly this every round).
func TestRoundSteadyStateAllocFree(t *testing.T) {
	const n = 16
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i + 1
	}
	r := NewRound(0, 5, 1)
	rec := obs.NewRecorder()
	ests := make([]protocol.Estimate, 0, n) // the driver's storage, lent every round
	var sink Outcome
	round := func() {
		r.Begin(peers, ests)
		for slot := range peers {
			r.Reply(slot, 0, 0.002, simtime.Time(0.001*float64(slot)), 0)
		}
		sink = r.Close()
		r.Record(nil, rec, 0, 0, 0)
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state round allocates %v times, budget is 0", allocs)
	}
	if !sink.OK || math.IsNaN(float64(sink.Delta)) {
		t.Fatalf("outcome %+v", sink)
	}
}
