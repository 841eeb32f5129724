package adversary

import (
	"math/rand"
	"strings"
	"testing"

	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

func mkCrash(int) protocol.Behavior { return Crash{} }

func TestValidateAcceptsFLimited(t *testing.T) {
	// Two corruptions of different nodes separated by more than Θ.
	s := Schedule{Corruptions: []Corruption{
		{Node: 0, From: 0, To: 10, Behavior: Crash{}},
		{Node: 1, From: 200, To: 210, Behavior: Crash{}},
	}}
	if err := s.Validate(4, 1, 100); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateRejectsWindowViolation(t *testing.T) {
	// Both corruptions fall inside one Θ=100 window: a 1-limited adversary
	// may not do this even though the intervals themselves are disjoint.
	s := Schedule{Corruptions: []Corruption{
		{Node: 0, From: 0, To: 10, Behavior: Crash{}},
		{Node: 1, From: 50, To: 60, Behavior: Crash{}},
	}}
	if err := s.Validate(4, 1, 100); err == nil {
		t.Fatal("window violation accepted")
	}
	// The same schedule is fine for f=2.
	if err := s.Validate(4, 2, 100); err != nil {
		t.Fatalf("f=2 schedule rejected: %v", err)
	}
}

func TestValidateSameNodeRepeatedIsOneProcessor(t *testing.T) {
	// Definition 2 counts processors, not break-ins: hitting the same node
	// five times in one window is 1-limited.
	var s Schedule
	for i := 0; i < 5; i++ {
		from := simtime.Time(i * 20)
		s.Corruptions = append(s.Corruptions, Corruption{
			Node: 0, From: from, To: from.Add(10), Behavior: Crash{},
		})
	}
	if err := s.Validate(4, 1, 1000); err != nil {
		t.Fatalf("repeated same-node corruption rejected: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		n, f int
		th   simtime.Duration
	}{
		{"node out of range", Schedule{Corruptions: []Corruption{{Node: 9, From: 0, To: 1, Behavior: Crash{}}}}, 4, 1, 10},
		{"negative node", Schedule{Corruptions: []Corruption{{Node: -1, From: 0, To: 1, Behavior: Crash{}}}}, 4, 1, 10},
		{"empty interval", Schedule{Corruptions: []Corruption{{Node: 0, From: 5, To: 5, Behavior: Crash{}}}}, 4, 1, 10},
		{"nil behavior", Schedule{Corruptions: []Corruption{{Node: 0, From: 0, To: 1}}}, 4, 1, 10},
		{"overlap same node", Schedule{Corruptions: []Corruption{
			{Node: 0, From: 0, To: 10, Behavior: Crash{}},
			{Node: 0, From: 5, To: 15, Behavior: Crash{}},
		}}, 4, 1, 10},
		{"bad theta", Schedule{}, 4, 1, 0},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(tc.n, tc.f, tc.th); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestValidateAgainstBruteForce(t *testing.T) {
	// Random schedules, checked against a brute-force window scan.
	rng := rand.New(rand.NewSource(17))
	const n = 6
	theta := simtime.Duration(50)
	for trial := 0; trial < 300; trial++ {
		var s Schedule
		for c := 0; c < 1+rng.Intn(8); c++ {
			from := simtime.Time(rng.Intn(400))
			s.Corruptions = append(s.Corruptions, Corruption{
				Node:     rng.Intn(n),
				From:     from,
				To:       from.Add(simtime.Duration(1 + rng.Intn(60))),
				Behavior: Crash{},
			})
		}
		// Skip schedules with per-node overlaps; those are rejected before
		// the window check and the oracle below doesn't model them.
		perNodeOverlap := false
		for i := 0; i < len(s.Corruptions) && !perNodeOverlap; i++ {
			for j := i + 1; j < len(s.Corruptions); j++ {
				a, b := s.Corruptions[i], s.Corruptions[j]
				if a.Node == b.Node && a.From < b.To && b.From < a.To {
					perNodeOverlap = true
					break
				}
			}
		}
		if perNodeOverlap {
			continue
		}
		// Brute force: slide a Θ window across a fine grid and count
		// distinct controlled processors.
		brute := 0
		for start := simtime.Time(-60); start < 480; start += 0.5 {
			window := simtime.Interval{Lo: start, Hi: start.Add(theta)}
			seen := map[int]bool{}
			for _, c := range s.Corruptions {
				if c.From <= window.Hi && window.Lo <= c.To {
					seen[c.Node] = true
				}
			}
			if len(seen) > brute {
				brute = len(seen)
			}
		}
		for f := 1; f <= 3; f++ {
			err := s.Validate(n, f, theta)
			if brute <= f && err != nil {
				t.Fatalf("trial %d: f=%d brute says legal (%d), validator rejected: %v", trial, f, brute, err)
			}
			if brute > f && err == nil {
				t.Fatalf("trial %d: f=%d brute says illegal (%d), validator accepted", trial, f, brute)
			}
		}
	}
}

func TestRotateIsFLimited(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		s := Rotate(10, f, 100, 30, 300, 40, mkCrash)
		if err := s.Validate(10, f, 300); err != nil {
			t.Fatalf("f=%d: rotation schedule invalid: %v", f, err)
		}
		if len(s.Corruptions) != 40 {
			t.Fatalf("f=%d: got %d corruptions", f, len(s.Corruptions))
		}
		// Every node is eventually hit.
		hit := map[int]bool{}
		for _, c := range s.Corruptions {
			hit[c.Node] = true
		}
		if len(hit) != 10 {
			t.Fatalf("f=%d: rotation covered %d of 10 nodes", f, len(hit))
		}
	}
}

func TestRotateNotFLimitedForSmallerF(t *testing.T) {
	// A 2-limited rotation must fail validation as a 1-limited schedule.
	s := Rotate(10, 2, 0, 30, 300, 30, mkCrash)
	if err := s.Validate(10, 1, 300); err == nil {
		t.Fatal("2-limited rotation accepted as 1-limited")
	}
}

func TestStatic(t *testing.T) {
	s := Static([]int{1, 3}, 10, 500, mkCrash)
	if err := s.Validate(10, 2, 100); err != nil {
		t.Fatalf("static schedule invalid: %v", err)
	}
	if err := s.Validate(10, 1, 100); err == nil {
		t.Fatal("static schedule of 2 nodes accepted as 1-limited")
	}
}

func TestActiveAtAndControlledWithin(t *testing.T) {
	s := Schedule{Corruptions: []Corruption{
		{Node: 2, From: 10, To: 20, Behavior: Crash{}},
	}}
	if s.ActiveAt(2, 9.999) || !s.ActiveAt(2, 10) || !s.ActiveAt(2, 19.999) || s.ActiveAt(2, 20) {
		t.Fatal("ActiveAt boundaries wrong (half-open [From, To))")
	}
	if s.ActiveAt(1, 15) {
		t.Fatal("wrong node active")
	}
	if !s.ControlledWithin(2, simtime.Interval{Lo: 0, Hi: 10}) {
		t.Fatal("interval touching corruption start must count")
	}
	if s.ControlledWithin(2, simtime.Interval{Lo: 20, Hi: 30}) {
		t.Fatal("interval starting at release must not count")
	}
	if !s.ControlledWithin(2, simtime.Interval{Lo: 15, Hi: 16}) {
		t.Fatal("interior interval must count")
	}
	if s.End() != 20 {
		t.Fatalf("End: got %v", s.End())
	}
	if (Schedule{}).End() != 0 {
		t.Fatal("empty End")
	}
}

func TestApplyDrivesHarness(t *testing.T) {
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(2), network.ConstantDelay{D: simtime.Millisecond})
	hs := []*protocol.Harness{
		protocol.NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1))),
		protocol.NewHarness(1, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1))),
	}
	s := Schedule{Corruptions: []Corruption{
		{Node: 0, From: 5, To: 15, Behavior: ClockSmash{Offset: 100}},
	}}
	s.Apply(sim, hs)
	sim.RunUntil(10)
	if !hs[0].Faulty() {
		t.Fatal("node 0 should be faulty at t=10")
	}
	sim.RunUntil(20)
	if hs[0].Faulty() {
		t.Fatal("node 0 should be released at t=20")
	}
	if got := hs[0].Clock().Bias(20); got != 100 {
		t.Fatalf("smash offset not applied: bias=%v", got)
	}
}

func TestBehaviors(t *testing.T) {
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(2), network.ConstantDelay{D: simtime.Millisecond})
	h := protocol.NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	_ = protocol.NewHarness(1, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))

	if _, reply := (Crash{}).RespondTime(h, 1, 10); reply {
		t.Fatal("Crash must not reply")
	}

	smash := ClockSmash{Offset: -50}
	smash.OnCorrupt(h, 10)
	if got := h.Clock().Bias(10); got != -50 {
		t.Fatalf("ClockSmash: bias %v", got)
	}
	if reading, reply := smash.RespondTime(h, 1, 10); !reply || reading != h.Clock().Now(10) {
		t.Fatal("non-quiet ClockSmash must report the smashed clock")
	}
	if _, reply := (ClockSmash{Quiet: true}).RespondTime(h, 1, 10); reply {
		t.Fatal("quiet ClockSmash must not reply")
	}

	liar := RandomLiar{Amplitude: 5}
	for i := 0; i < 100; i++ {
		reading, reply := liar.RespondTime(h, 1, 10)
		if !reply {
			t.Fatal("RandomLiar must reply")
		}
		diff := float64(reading.Sub(h.Clock().Now(10)))
		if diff < -5 || diff > 5 {
			t.Fatalf("RandomLiar noise %v outside amplitude", diff)
		}
	}

	cl := ConsistentLiar{Offset: 7}
	if reading, _ := cl.RespondTime(h, 1, 10); reading != 17 {
		t.Fatalf("ConsistentLiar: got %v", reading)
	}

	sb := SplitBrain{Boundary: 1, Offset: 3}
	lo, _ := sb.RespondTime(h, 0, 10)
	hi, _ := sb.RespondTime(h, 1, 10)
	if lo != 13 || hi != 7 {
		t.Fatalf("SplitBrain: got %v, %v", lo, hi)
	}

	ep := &EdgePusher{Push: 2, Rate: 0.1}
	ep.OnCorrupt(h, 100)
	if reading, _ := ep.RespondTime(h, 1, 100); reading != 102 {
		t.Fatalf("EdgePusher at t0: got %v", reading)
	}
	if reading, _ := ep.RespondTime(h, 1, 110); reading != 113 {
		t.Fatalf("EdgePusher creep: got %v", reading)
	}

	hon := Honest{}
	if reading, reply := hon.RespondTime(h, 1, 10); !reply || reading != h.Clock().Now(10) {
		t.Fatal("Honest must report the true clock")
	}
}

// TestValidateEdgeCases pins the boundary semantics of the Definition 2
// check in one table: extended Θ-windows that exactly touch count as
// overlapping (conservative), per-node back-to-back intervals are legal
// while true overlaps are not, exactly f simultaneous processors pass where
// f+1 fail, and the empty schedule is universally valid.
func TestValidateEdgeCases(t *testing.T) {
	const theta = simtime.Duration(100)
	cases := []struct {
		name    string
		sched   Schedule
		n, f    int
		wantErr string // substring of the expected error; "" means valid
	}{
		{
			name:  "empty schedule valid even with f=0",
			sched: Schedule{},
			n:     4, f: 0,
		},
		{
			// Node 0's window influence ends at To=20; node 1's begins at
			// From−Θ = 20. The τ=20 window sees both — reject at exact touch.
			name: "touching theta windows count as overlap",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 0, From: 10, To: 20, Behavior: Crash{}},
				{Node: 1, From: 120, To: 130, Behavior: Crash{}},
			}},
			n: 4, f: 1,
			wantErr: "not 1-limited",
		},
		{
			// One nanosecond of separation and no window sees both.
			name: "just past touching is valid",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 0, From: 10, To: 20, Behavior: Crash{}},
				{Node: 1, From: 120.000000001, To: 130, Behavior: Crash{}},
			}},
			n: 4, f: 1,
		},
		{
			name: "per-node overlapping corruptions rejected",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 2, From: 10, To: 20, Behavior: Crash{}},
				{Node: 2, From: 15, To: 25, Behavior: Crash{}},
			}},
			n: 4, f: 2,
			wantErr: "overlapping corruptions of node 2",
		},
		{
			// [10,20) and [20,30) share only the instant 20, which [From,To)
			// excludes from the first — legal, and merged into one window.
			name: "per-node back-to-back intervals valid",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 2, From: 10, To: 20, Behavior: Crash{}},
				{Node: 2, From: 20, To: 30, Behavior: Crash{}},
			}},
			n: 4, f: 1,
		},
		{
			name: "exactly f simultaneous processors valid",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 0, From: 10, To: 20, Behavior: Crash{}},
				{Node: 1, From: 10, To: 20, Behavior: Crash{}},
			}},
			n: 7, f: 2,
		},
		{
			name: "f+1 simultaneous processors rejected",
			sched: Schedule{Corruptions: []Corruption{
				{Node: 0, From: 10, To: 20, Behavior: Crash{}},
				{Node: 1, From: 10, To: 20, Behavior: Crash{}},
				{Node: 2, From: 10, To: 20, Behavior: Crash{}},
			}},
			n: 7, f: 2,
			wantErr: "not 2-limited",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sched.Validate(tc.n, tc.f, theta)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid schedule rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid schedule accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
