package protocol

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

// TestLentBufferTakesNoStaleReply: a round's estimates live in a buffer its
// lane lends for the length of the round, so the buffer processor 0's round
// gave back serves processor 3's next round. Whichever way round one ended —
// the reply that filled its last slot, its alarm, a break-in and release in
// mid-round — its late replies and forged duplicates of them (the right nonce
// from the right peer, a clock a million seconds off) must not write into
// processor 3's round. All four processors share the serial network's one
// lane; clocks agree, so an honest reading is 0 ± the delay.
func TestLentBufferTakesNoStaleReply(t *testing.T) {
	const delay = 10 * simtime.Millisecond
	for _, tc := range []struct {
		name    string
		maxWait simtime.Duration // round one's
		end     func(r *rig)     // scheduled before round one's replies land
		reuseAt simtime.Time     // round two begins, after round one ended
	}{
		{"ended by its last reply", simtime.Second, nil, 0.030},
		{"ended by its alarm", 5 * simtime.Millisecond, nil, 0.006},
		{"aborted by a break-in", simtime.Second, func(r *rig) {
			r.sim.At(0.002, func() { r.hs[0].Corrupt(silent{}) })
			r.sim.At(0.003, func() { r.hs[0].Release() })
		}, 0.004},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, network.ConstantDelay{D: delay})
			first, second := r.hs[0], r.hs[3]
			var lent *[]Estimate
			r.sim.At(0, func() {
				first.EstimateAll([]int{1, 2}, tc.maxWait, func([]Estimate) {})
				lent = first.estBuf
			})
			if tc.end != nil {
				tc.end(r)
			}
			var got []Estimate
			r.sim.At(tc.reuseAt, func() {
				if first.est.Open() || first.estBuf != nil || first.est.Estimates() != nil {
					t.Fatal("round one still holds its buffer after it ended")
				}
				second.EstimateAll([]int{1, 2}, simtime.Second, func(es []Estimate) {
					got = append([]Estimate(nil), es...)
				})
				if second.estBuf != lent {
					t.Fatal("round two did not borrow the buffer round one gave back")
				}
				// Round one's nonces are 1 and 2: forge a late answer to each.
				r.net.Send(1, 0, &TimeResp{Nonce: 1, Clock: 1e6})
				r.net.Send(2, 0, &TimeResp{Nonce: 2, Clock: 1e6})
			})
			r.sim.Run()
			if len(got) != 2 {
				t.Fatalf("round two ended with %d estimates, want 2", len(got))
			}
			for i, e := range got {
				if e.Peer != i+1 || !e.OK || math.Abs(float64(e.D)) > 1e-9 || math.Abs(float64(e.A-delay)) > 1e-9 {
					t.Errorf("round two slot %d = %+v, want peer %d answered with d=0, a=%v", i, e, i+1, delay)
				}
			}
		})
	}
}

// TestDoneMayBeginTheNextRound: a done callback that begins the processor's
// next round at once gets a buffer of its own for it. The buffer of the round
// that just ended goes back to the lane only after done returns, and the new
// round's buffer stays lent until that round ends — so a third round begun on
// the lane meanwhile, by another processor, writes into neither.
func TestDoneMayBeginTheNextRound(t *testing.T) {
	r := newRig(t, 4, network.ConstantDelay{D: simtime.Millisecond})
	h, other := r.hs[0], r.hs[3]
	var firstBuf *[]Estimate
	var second, third []Estimate
	r.sim.At(0, func() {
		h.EstimateAll([]int{1, 2}, simtime.Second, func(first []Estimate) {
			firstBuf = h.estBuf
			h.EstimateAll([]int{2, 1}, simtime.Second, func(es []Estimate) {
				second = append([]Estimate(nil), es...)
			})
			if h.estBuf == firstBuf {
				t.Error("the round done began shares the ending round's buffer")
			}
			if first[0].Peer != 1 || first[1].Peer != 2 || !first[0].OK || !first[1].OK {
				t.Errorf("beginning a round inside done rewrote done's own estimates: %+v", first)
			}
		})
	})
	r.sim.At(0.0025, func() {
		if h.estBuf == nil || h.estBuf == firstBuf {
			t.Fatal("the round done began does not hold a buffer of its own")
		}
		other.EstimateAll([]int{1}, simtime.Second, func(es []Estimate) {
			third = append([]Estimate(nil), es...)
		})
		if other.estBuf != firstBuf {
			t.Error("the buffer of the round that ended was not back on the lane")
		}
	})
	r.sim.Run()
	if len(second) != 2 || second[0].Peer != 2 || second[1].Peer != 1 || !second[0].OK || !second[1].OK {
		t.Fatalf("the round done began ended with %+v, want peers 2 and 1 answered", second)
	}
	if len(third) != 1 || third[0].Peer != 1 || !third[0].OK {
		t.Fatalf("the other processor's round ended with %+v", third)
	}
}

// TestLaneBuffersBoundedByOpenRounds: a lane holds exactly as many round
// buffers as it ever had rounds open at once, however rounds end — none is
// lost, and none is made while one is free. Twelve processors of fourteen on
// one lane start rounds at random instants for a simulated minute, over peer
// sets that include a silent processor (rounds end by their alarm) or not (by
// their last reply), while break-ins and releases abort rounds in mid-flight.
func TestLaneBuffersBoundedByOpenRounds(t *testing.T) {
	const n, runners = 14, 12
	r := newRig(t, n, network.NewUniformDelay(simtime.Millisecond, 20*simtime.Millisecond))
	r.hs[n-1].Corrupt(silent{})
	rng := rand.New(rand.NewSource(7))
	peak, rounds, aborted := 0, 0, 0
	for i := 0; i < runners; i++ {
		h := r.hs[i]
		var peers []int
		for p := 0; p < n; p++ {
			if p != i && (p != n-1 || i%2 == 0) {
				peers = append(peers, p)
			}
		}
		tick := func() {
			if h.Faulty() || h.est.Open() {
				return
			}
			h.EstimateAll(peers, 15*simtime.Millisecond, func([]Estimate) { rounds++ })
			open := 0
			for _, g := range r.hs {
				if g.est.Open() {
					open++
				}
			}
			peak = max(peak, open)
		}
		for at := rng.Float64() * 0.3; at < 60; at += rng.Float64() * 0.3 {
			r.sim.At(simtime.Time(at), tick)
		}
		for k := 0; k < 20; k++ {
			from := simtime.Time(rng.Float64() * 59)
			r.sim.At(from, func() {
				if !h.Faulty() {
					if h.est.Open() {
						aborted++
					}
					h.Corrupt(silent{})
					r.sim.At(from+0.005, h.Release)
				}
			})
		}
	}
	r.sim.Run()
	if rounds == 0 || aborted == 0 || peak < 2 || peak >= runners {
		t.Fatalf("the schedule did not exercise the lane: %d rounds, %d aborted, peak %d open of %d", rounds, aborted, peak, runners)
	}
	if got := r.hs[0].ests.Len(); got != peak {
		t.Fatalf("the lane holds %d round buffers after %d rounds; at most %d were ever open at once", got, rounds, peak)
	}
}
