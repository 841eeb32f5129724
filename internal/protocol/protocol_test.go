package protocol

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

// rig wires n harnesses over a full mesh.
type rig struct {
	sim *des.Sim
	net *network.Network
	hs  []*Harness
}

func newRig(t *testing.T, n int, delay network.DelayModel, slopes ...float64) *rig {
	t.Helper()
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(n), delay)
	hs := make([]*Harness, n)
	for i := 0; i < n; i++ {
		slope := 1.0
		if i < len(slopes) {
			slope = slopes[i]
		}
		hs[i] = NewHarness(i, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, slope)))
	}
	return &rig{sim: sim, net: net, hs: hs}
}

func TestEstimateSymmetricDelayIsExact(t *testing.T) {
	// With constant symmetric delay and no drift, the ping estimate of the
	// offset is exact and its error bound equals the one-way delay.
	r := newRig(t, 2, network.ConstantDelay{D: 10 * simtime.Millisecond})
	r.hs[1].Clock().Adjust(0, 3) // C_1 − C_0 = 3
	var got Estimate
	r.sim.At(0, func() {
		r.hs[0].Ping(1, simtime.Second, func(e Estimate) { got = e })
	})
	r.sim.Run()
	if !got.OK {
		t.Fatal("ping timed out")
	}
	if math.Abs(float64(got.D-3)) > 1e-9 {
		t.Fatalf("offset estimate: got %v, want 3s", got.D)
	}
	if math.Abs(float64(got.A-10*simtime.Millisecond)) > 1e-9 {
		t.Fatalf("error bound: got %v, want 10ms", got.A)
	}
}

func TestEstimateSatisfiesDefinitionFour(t *testing.T) {
	// Definition 4: there was an instant τ'' during the estimation at which
	// C_q(τ'') − C_p(τ'') ∈ [d−a, d+a]. With constant offsets the difference
	// is (almost) constant, so it must lie in the returned interval; also
	// a ≤ Λ where Λ is induced by the delay bound.
	delay := network.NewUniformDelay(simtime.Millisecond, 20*simtime.Millisecond)
	r := newRig(t, 2, delay, 1.0005, 0.9995)
	r.hs[1].Clock().Adjust(0, -7)
	var got Estimate
	r.sim.At(5, func() {
		r.hs[0].Ping(1, simtime.Second, func(e Estimate) { got = e })
	})
	r.sim.Run()
	if !got.OK {
		t.Fatal("ping timed out")
	}
	diff := r.hs[1].Clock().Now(5).Sub(r.hs[0].Clock().Now(5))
	if float64(diff) < float64(got.Under())-1e-3 || float64(diff) > float64(got.Over())+1e-3 {
		t.Fatalf("true offset %v outside [%v, %v]", diff, got.Under(), got.Over())
	}
	// a = (R−S)/2 ≤ (1+ρ)·2δ/2.
	maxA := simtime.Duration(1.001 * 2 * 20e-3 / 2)
	if got.A > maxA {
		t.Fatalf("error bound %v exceeds Λ=%v", got.A, maxA)
	}
}

func TestPingTimeout(t *testing.T) {
	// Delay beyond the timeout yields the (0, ∞) failure sentinel.
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Second})
	var got Estimate
	called := 0
	r.sim.At(0, func() {
		r.hs[0].Ping(1, 100*simtime.Millisecond, func(e Estimate) { got = e; called++ })
	})
	r.sim.Run()
	if called != 1 {
		t.Fatalf("callback fired %d times, want exactly 1 (late reply must not re-fire)", called)
	}
	if got.OK {
		t.Fatal("timed-out ping reported OK")
	}
	if got.D != 0 || !got.A.IsInf() {
		t.Fatalf("failure sentinel: got (%v, %v), want (0, inf)", got.D, got.A)
	}
	if !got.Over().IsInf() || !got.Under().IsInf() {
		t.Fatal("failed estimate must have infinite over/under estimates")
	}
}

func TestEstimateAllOrderAndCompleteness(t *testing.T) {
	r := newRig(t, 4, network.ConstantDelay{D: simtime.Millisecond})
	for i := 1; i < 4; i++ {
		r.hs[i].Clock().Adjust(0, simtime.Duration(i))
	}
	var got []Estimate
	r.sim.At(0, func() {
		r.hs[0].EstimateAll([]int{3, 1, 2}, simtime.Second, func(es []Estimate) { got = es })
	})
	r.sim.Run()
	if len(got) != 3 {
		t.Fatalf("got %d estimates", len(got))
	}
	wantPeers := []int{3, 1, 2}
	for i, e := range got {
		if e.Peer != wantPeers[i] {
			t.Fatalf("results[%d].Peer = %d, want %d", i, e.Peer, wantPeers[i])
		}
		if math.Abs(float64(e.D)-float64(wantPeers[i])) > 1e-9 {
			t.Fatalf("estimate for %d: got %v", wantPeers[i], e.D)
		}
	}
}

func TestEstimateAllWithSilentPeer(t *testing.T) {
	r := newRig(t, 3, network.ConstantDelay{D: simtime.Millisecond})
	r.hs[2].Corrupt(silent{})
	var got []Estimate
	r.sim.At(0, func() {
		r.hs[0].EstimateAll([]int{1, 2}, 50*simtime.Millisecond, func(es []Estimate) { got = es })
	})
	r.sim.Run()
	if len(got) != 2 {
		t.Fatalf("got %d estimates", len(got))
	}
	if !got[0].OK || got[1].OK {
		t.Fatalf("expected peer 1 OK and peer 2 failed: %+v", got)
	}
}

func TestEstimateAllEmptyPeers(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	called := false
	r.sim.At(0, func() {
		r.hs[0].EstimateAll(nil, simtime.Second, func(es []Estimate) {
			called = true
			if len(es) != 0 {
				t.Errorf("expected empty results")
			}
		})
	})
	r.sim.Run()
	if !called {
		t.Fatal("done not called for empty round")
	}
}

func TestOverlappingRoundsPanic(t *testing.T) {
	r := newRig(t, 3, network.ConstantDelay{D: simtime.Second})
	r.sim.At(0, func() {
		r.hs[0].EstimateAll([]int{1}, 10*simtime.Second, func([]Estimate) {})
		defer func() {
			if recover() == nil {
				t.Error("overlapping round must panic")
			}
		}()
		r.hs[0].EstimateAll([]int{2}, 10*simtime.Second, func([]Estimate) {})
	})
	r.sim.Run()
}

// silent is a behavior that never answers.
type silent struct{}

func (silent) RespondTime(*Harness, int, simtime.Time) (simtime.Time, bool) { return 0, false }
func (silent) OnCorrupt(*Harness, simtime.Time)                             {}
func (silent) OnRelease(*Harness, simtime.Time)                             {}

// liar reports a fixed clock value.
type liar struct{ value simtime.Time }

func (l liar) RespondTime(*Harness, int, simtime.Time) (simtime.Time, bool) { return l.value, true }
func (liar) OnCorrupt(*Harness, simtime.Time)                               {}
func (liar) OnRelease(*Harness, simtime.Time)                               {}

func TestFaultyPeerLies(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	r.hs[1].Corrupt(liar{value: 1000})
	var got Estimate
	r.sim.At(0, func() {
		r.hs[0].Ping(1, simtime.Second, func(e Estimate) { got = e })
	})
	r.sim.Run()
	if !got.OK {
		t.Fatal("liar's reply should arrive")
	}
	if got.D < 990 {
		t.Fatalf("lie not reflected in estimate: %v", got.D)
	}
}

func TestCorruptionAbortsInFlightEstimation(t *testing.T) {
	// p is corrupted mid-round; the round's callback must never fire, even
	// after release — its state was adversary-controlled.
	r := newRig(t, 2, network.ConstantDelay{D: 100 * simtime.Millisecond})
	fired := false
	r.sim.At(0, func() {
		r.hs[0].EstimateAll([]int{1}, simtime.Second, func([]Estimate) { fired = true })
	})
	r.sim.At(0.01, func() { r.hs[0].Corrupt(silent{}) })
	r.sim.At(0.05, func() { r.hs[0].Release() })
	r.sim.Run()
	if fired {
		t.Fatal("aborted round callback fired")
	}
}

// The round alarm names no round, so a round that ends any other way must
// cancel it: here round one ends by replies — or by a break-in and release —
// well before its 100 ms alarm, and round two, open across that instant
// toward a silent peer, must still run to its own 200 ms timeout.
func TestStaleRoundAlarmExpiresNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		abort bool
	}{{"completed by replies", false}, {"aborted by a break-in", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, network.ConstantDelay{D: simtime.Millisecond})
			r.hs[2].Corrupt(silent{})
			h := r.hs[0]
			r.sim.At(0, func() { h.EstimateAll([]int{1}, 100*simtime.Millisecond, func([]Estimate) {}) })
			if tc.abort {
				r.sim.At(0.0005, func() { h.Corrupt(silent{}) })
				r.sim.At(0.001, func() { h.Release() })
			}
			var ended []simtime.Time
			r.sim.At(0.05, func() {
				h.EstimateAll([]int{2}, 200*simtime.Millisecond, func([]Estimate) { ended = append(ended, r.sim.Now()) })
			})
			r.sim.Run()
			if len(ended) != 1 || math.Abs(float64(ended[0])-0.25) > 1e-9 {
				t.Fatalf("round two ended at %v, want once, at its own timeout 0.25 (0.1 is round one's stale alarm)", ended)
			}
		})
	}
}

// A steady-state round that ends by timeout allocates nothing: the pings ride
// pooled payloads, the estimates a buffer the lane lends again every round,
// and the one alarm's callback was bound when the harness was built.
func TestRoundTimeoutAllocFree(t *testing.T) {
	r := newRig(t, 3, network.ConstantDelay{D: simtime.Millisecond})
	r.hs[2].Corrupt(silent{})
	peers := []int{1, 2}
	var last []Estimate
	done := func(es []Estimate) { last = es }
	round := func() {
		r.hs[0].EstimateAll(peers, 50*simtime.Millisecond, done)
		r.sim.Run()
	}
	round() // sizes the arena, the payload lists and the lane's round buffer
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Errorf("round ending by timeout: %v allocs per round, want 0", allocs)
	}
	if len(last) != 2 || !last[0].OK || last[1].OK {
		t.Fatalf("round did not end by timeout with peer 1 answered: %+v", last)
	}
}

func TestCorruptReleaseLifecycle(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	h := r.hs[0]
	releases := 0
	h.OnRelease = func(simtime.Time) { releases++ }
	if h.Faulty() {
		t.Fatal("fresh harness is faulty")
	}
	h.Corrupt(silent{})
	if !h.Faulty() {
		t.Fatal("Corrupt did not mark faulty")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double corrupt must panic")
			}
		}()
		h.Corrupt(silent{})
	}()
	h.Release()
	if h.Faulty() {
		t.Fatal("Release did not clear faulty")
	}
	if releases != 1 {
		t.Fatalf("OnRelease fired %d times", releases)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release must panic")
			}
		}()
		h.Release()
	}()
}

func TestScheduleLocalHonorsDrift(t *testing.T) {
	// A clock running at 2x reaches +10 local after 5 real seconds.
	r := newRig(t, 1, network.ConstantDelay{D: simtime.Millisecond}, 2.0)
	var fired simtime.Time
	r.sim.At(0, func() {
		r.hs[0].ScheduleLocal(10, func() { fired = r.sim.Now() })
	})
	r.sim.Run()
	if math.Abs(float64(fired-5)) > 1e-9 {
		t.Fatalf("fired at %v, want 5", fired)
	}
}

func TestAdjustHookAndClock(t *testing.T) {
	r := newRig(t, 1, network.ConstantDelay{D: simtime.Millisecond})
	var seen []simtime.Duration
	r.hs[0].OnAdjust = func(_ simtime.Time, d simtime.Duration) { seen = append(seen, d) }
	r.hs[0].Adjust(2)
	r.hs[0].Adjust(-1)
	if len(seen) != 2 || seen[0] != 2 || seen[1] != -1 {
		t.Fatalf("OnAdjust saw %v", seen)
	}
	if got := r.hs[0].Clock().Adj(); got != 1 {
		t.Fatalf("adj: got %v", got)
	}
}

func TestPingBestPicksSmallestRTT(t *testing.T) {
	// Alternate slow/fast delays deterministically: the best-of-4 estimate
	// must carry the smallest error bound seen.
	delays := []simtime.Duration{40 * simtime.Millisecond, 5 * simtime.Millisecond, 30 * simtime.Millisecond, 10 * simtime.Millisecond}
	r := newRigWithScriptedDelays(t, 2, delays)
	var got Estimate
	r.sim.At(0, func() {
		r.hs[0].PingBest(1, 4, simtime.Second, func(e Estimate) { got = e })
	})
	r.sim.Run()
	if !got.OK {
		t.Fatal("PingBest failed")
	}
	// Each ping uses two messages; delays pair up as (40,5), (30,10), then
	// wrap. Best RTT = min(45, 40, ...) → a = min over pings of RTT/2.
	if got.A > 21*simtime.Millisecond {
		t.Fatalf("PingBest error bound %v too large", got.A)
	}
}

func TestPingBestAllTimeouts(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Second})
	var got Estimate
	called := 0
	r.sim.At(0, func() {
		r.hs[0].PingBest(1, 3, 10*simtime.Millisecond, func(e Estimate) { got = e; called++ })
	})
	r.sim.Run()
	if called != 1 || got.OK {
		t.Fatalf("PingBest with all timeouts: called=%d ok=%v", called, got.OK)
	}
}

func TestPingBestInvalidK(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 must panic")
		}
	}()
	r.hs[0].PingBest(1, 0, simtime.Second, func(Estimate) {})
}

func TestDefinitionFourProperty(t *testing.T) {
	// Definition 4 across the whole model envelope: random drift rates for
	// both ends, random delay bounds, random true offsets — the returned
	// interval [d−a, d+a] must contain the true offset at some instant of
	// the estimation window (here checked at the midpoint, with a drift
	// allowance for how much the offset can move within the window).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		rho := rng.Float64() * 1e-3
		lo, hi := 0.9995, 1.0005
		slopeP := lo + rng.Float64()*(hi-lo)
		slopeQ := lo + rng.Float64()*(hi-lo)
		offset := simtime.Time(rng.NormFloat64() * 100)
		maxDelay := simtime.Duration(1+rng.Float64()*99) * simtime.Millisecond

		sim := des.New(int64(trial))
		net := network.New(sim, network.NewFullMesh(2),
			network.NewUniformDelay(maxDelay/10, maxDelay))
		p := NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, slopeP)))
		_ = NewHarness(1, sim, net, clock.NewLocal(clock.NewDrifting(0, offset, slopeQ)))

		var est Estimate
		start := simtime.Time(rng.Float64() * 1000)
		sim.At(start, func() {
			p.Ping(1, 10*simtime.Second, func(e Estimate) { est = e })
		})
		sim.Run()
		if !est.OK {
			t.Fatalf("trial %d: ping failed", trial)
		}
		mid := start.Add(maxDelay) // some instant inside the window
		truth := float64(clock.NewDrifting(0, offset, slopeQ).Read(mid)) -
			float64(clock.NewDrifting(0, 0, slopeP).Read(mid))
		// Allow the offset's own movement across the ≤2·maxDelay window.
		slack := 2 * float64(maxDelay) * (2*rho + 1e-3)
		if truth < float64(est.Under())-slack || truth > float64(est.Over())+slack {
			t.Fatalf("trial %d: truth %v outside [%v, %v] (slack %v)",
				trial, truth, est.Under(), est.Over(), slack)
		}
	}
}

func TestHarnessAccessors(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	h := r.hs[0]
	if h.ID() != 0 || h.Sim() != r.sim || h.Net() != r.net {
		t.Fatal("accessors broken")
	}
	if got := h.LocalNow(); got != h.Clock().Now(r.sim.Now()) {
		t.Fatalf("LocalNow: %v", got)
	}
}

func TestCustomPayloadRouting(t *testing.T) {
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	var got []string
	r.hs[1].Custom = func(msg network.Message) {
		got = append(got, msg.Payload.(string))
	}
	r.net.Send(0, 1, "hello")
	r.sim.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("custom routing: %v", got)
	}
	// While faulty, custom payloads are dropped.
	r.hs[1].Corrupt(silent{})
	r.net.Send(0, 1, "ignored")
	r.sim.Run()
	if len(got) != 1 {
		t.Fatalf("faulty node consumed a custom payload: %v", got)
	}
	// Unknown payloads with no Custom handler are dropped silently.
	r.hs[1].Release()
	r.hs[1].Custom = nil
	r.net.Send(0, 1, struct{}{})
	r.sim.Run()
}

func TestStaleResponseIgnored(t *testing.T) {
	// A TimeResp with an unknown nonce (e.g. a replay) must be dropped.
	r := newRig(t, 2, network.ConstantDelay{D: simtime.Millisecond})
	r.net.Send(1, 0, TimeResp{Nonce: 999, Clock: 123})
	r.sim.Run() // must not panic or produce estimates
}

func TestScheduleLocalNegativePanics(t *testing.T) {
	r := newRig(t, 1, network.ConstantDelay{D: simtime.Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	r.hs[0].ScheduleLocal(-1, func() {})
}

func TestCacheDirectUse(t *testing.T) {
	// Exercise the cache API from this package too (core drives it in its
	// own tests): sweeps populate entries, Sweeps counts, GetAll ordering.
	r := newRig(t, 3, network.ConstantDelay{D: simtime.Millisecond})
	c := NewEstimateCache(r.hs[0], []int{2, 1}, 5, 1)
	c.Start()
	r.sim.RunUntil(6)
	if c.Sweeps() != 1 {
		t.Fatalf("sweeps: %d", c.Sweeps())
	}
	ests := c.GetAll()
	if len(ests) != 2 || ests[0].Peer != 2 || ests[1].Peer != 1 {
		t.Fatalf("GetAll order: %+v", ests)
	}
	if !ests[0].OK || !ests[1].OK {
		t.Fatalf("entries not populated: %+v", ests)
	}
	if _, ok := c.Age(1); !ok {
		t.Fatal("age missing")
	}
	if _, ok := c.Age(7); ok {
		t.Fatal("age for unknown peer")
	}
	// While the owner is faulty, sweeps pause (no fresh entries).
	r.hs[0].Corrupt(silent{})
	c.Invalidate()
	r.sim.RunUntil(20)
	if ests := c.GetAll(); ests[0].OK || ests[1].OK {
		t.Fatalf("faulty owner refreshed its cache: %+v", ests)
	}
}

// newRigWithScriptedDelays builds a rig whose delay model replays the given
// sequence of one-way delays in order, wrapping around.
func newRigWithScriptedDelays(t *testing.T, n int, seq []simtime.Duration) *rig {
	t.Helper()
	sim := des.New(1)
	i := 0
	dm := network.DelayFunc{
		Fn: func(from, to int, _ *network.SplitMix64) simtime.Duration {
			d := seq[i%len(seq)]
			i++
			return d
		},
		BoundVal: simtime.Second,
	}
	net := network.New(sim, network.NewFullMesh(n), dm)
	hs := make([]*Harness, n)
	for id := 0; id < n; id++ {
		hs[id] = NewHarness(id, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1.0)))
	}
	return &rig{sim: sim, net: net, hs: hs}
}
