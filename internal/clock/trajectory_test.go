package clock

import (
	"math"
	"testing"

	"clocksync/internal/simtime"
)

// runTrajectory builds a clock from script and pins the one representation
// of its path: a Cursor walked over the clock's logs stops at each instant
// the clock was written, and reads, at every probed instant, the bias
// Local.Now − τ gave there while the clock was being written.
//
// The script's first four bytes pick the hardware clock: a tick (none when
// 0), a slope within 1.3e-3 of 1, an offset and an origin. Each further four
// bytes are one write: Adjust or SetGain (the low bit of the first), how long
// after the previous write it comes (0 makes writes share an instant), its
// step or gain, and where between it and the next write the probe sits.
func runTrajectory(t *testing.T, script []byte) {
	at := func(i int) float64 {
		if i < len(script) {
			return float64(script[i])
		}
		return 0
	}
	hw := NewDrifting(simtime.Time(at(3)*0.5), simtime.Time((at(2)-128)*0.37), 1+(at(1)-128)*1e-5)
	if at(0) > 0 {
		hw = hw.WithTick(simtime.Duration(at(0) * 1e-3))
	}
	type write struct {
		at    simtime.Time
		gain  bool
		value float64
		probe float64 // where in [at, the next write) to probe, as a fraction
	}
	var writes []write
	now := simtime.Time(0)
	for i := 4; i+3 < len(script) && len(writes) < 256; i += 4 {
		now += simtime.Time(at(i+1) * 0.1)
		writes = append(writes, write{at: now, gain: script[i]&1 == 1, value: at(i+2) - 128, probe: at(i+3) / 256})
	}

	type probe struct {
		at   simtime.Time
		bias float64
	}
	var probes []probe
	var instants []simtime.Time // the distinct instants the clock is written at
	l := NewLocal(hw)
	if len(writes) == 0 || writes[0].at > 0 {
		probes = append(probes, probe{0, float64(l.Bias(0))})
	}
	for k, w := range writes {
		if w.gain {
			l.SetGain(w.at, w.value/128*1e-3)
		} else {
			l.Adjust(w.at, simtime.Duration(w.value*1e-2))
		}
		next := w.at + 10
		if k+1 < len(writes) {
			next = writes[k+1].at
		}
		if next == w.at {
			continue // the next write shares the instant
		}
		instants = append(instants, w.at)
		for _, p := range []simtime.Time{w.at, w.at + simtime.Time(w.probe*float64(next-w.at))} {
			if p < next {
				probes = append(probes, probe{p, float64(l.Bias(p))})
			}
		}
	}

	c, j := l.Cursor(), 0
	next := func() {
		if j == len(instants) || c.Next() != instants[j] {
			t.Fatalf("cursor stops at %v; the clock's next write is at instant %d of %v", c.Next(), j, instants)
		}
		c.Advance(l, c.Next())
		j++
	}
	for _, p := range probes {
		for c.Next() <= p.at {
			next()
		}
		if got := float64(c.Bias(l, p.at)); math.Abs(got-p.bias) > 1e-9 {
			t.Fatalf("bias at %v: cursor %v, Local.Now %v", p.at, got, p.bias)
		}
	}
	for j < len(instants) {
		next()
	}
	if !math.IsInf(float64(c.Next()), 1) {
		t.Fatalf("cursor stops at %v after the clock's last write", c.Next())
	}
}

// FuzzTrajectory runs random sequences of Adjust and SetGain writes, on
// clocks with and without a tick, through runTrajectory.
func FuzzTrajectory(f *testing.F) {
	f.Add([]byte{0, 128, 128, 0})
	f.Add([]byte{1, 140, 100, 7, 0, 10, 200, 128, 1, 20, 40, 64, 1, 0, 255, 0, 0, 5, 1, 255})
	f.Fuzz(runTrajectory)
}
