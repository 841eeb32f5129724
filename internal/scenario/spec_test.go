package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

func TestLoadSpecAndBuildRoundTrip(t *testing.T) {
	src := `{
		"name": "from-json",
		"seed": 9,
		"n": 7, "f": 2,
		"duration_sec": 600,
		"theta_sec": 300,
		"rho": 1e-4,
		"delay": {"kind": "uniform", "min_sec": 0.005, "max_sec": 0.05},
		"topology": {"kind": "full"},
		"init_spread_sec": 0.2,
		"adversary": [
			{"node": 6, "from_sec": 60, "to_sec": 61,
			 "behavior": {"kind": "smash", "offset_sec": 30, "quiet": true}}
		],
		"sample_period_sec": 5
	}`
	sp, err := LoadSpec(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "from-json" || s.N != 7 || s.F != 2 {
		t.Fatalf("basic fields: %+v", s)
	}
	if s.Duration != 600 || s.Theta != 300 {
		t.Fatalf("durations: %v %v", s.Duration, s.Theta)
	}
	if len(s.Adversary.Corruptions) != 1 || s.Adversary.Corruptions[0].Node != 6 {
		t.Fatalf("adversary: %+v", s.Adversary)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Recoveries) != 1 || !res.Report.Recoveries[0].Ok {
		t.Fatalf("smashed node did not recover: %+v", res.Report.Recoveries)
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	if _, err := LoadSpec(strings.NewReader(`{"n": 4, "not_a_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadSpecRejectsGarbage(t *testing.T) {
	if _, err := LoadSpec(strings.NewReader(`{`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDelaySpecVariants(t *testing.T) {
	cases := []struct {
		spec DelaySpec
		want simtime.Duration // Bound()
	}{
		{DelaySpec{Kind: "constant", D: 0.01}, simtime.Duration(0.01)},
		{DelaySpec{Kind: "uniform", Min: 0.001, Max: 0.02}, simtime.Duration(0.02)},
		{DelaySpec{Kind: "asymmetric", FwdMin: 0.01, FwdMax: 0.03, RevMin: 0.001, RevMax: 0.002}, simtime.Duration(0.03)},
		{DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.01, SpikeProb: 0.1, SpikeMax: 0.05}, simtime.Duration(0.06)},
	}
	for _, tc := range cases {
		m, err := tc.spec.Model()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		got := float64(m.Bound())
		if diff := got - float64(tc.want); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%+v: bound %v, want %v", tc.spec, got, tc.want)
		}
	}
	bad := []DelaySpec{
		{Kind: "warp"},
		{Kind: "constant", D: 0},
		{Kind: "uniform", Min: 0.5, Max: 0.1},
	}
	for _, spec := range bad {
		if _, err := spec.Model(); err == nil {
			t.Fatalf("%+v accepted", spec)
		}
	}
}

// TestDelayProbesRefused: a delay spec or model outside 0 ≤ min ≤ max — or
// with a spike probability outside [0, 1], a negative spike, or a NaN or
// infinite field — is an error from Spec.Build or Run, never a panic inside
// the network or the event queue.
func TestDelayProbesRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		spec  *DelaySpec
		model network.DelayModel // run directly when spec is nil
	}{
		{"spiky min > max", &DelaySpec{Kind: "spiky", Min: 0.01, Max: 0.001}, nil},
		{"spiky prob > 1", &DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.01, SpikeProb: 1.5}, nil},
		{"spiky prob < 0", &DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.01, SpikeProb: -0.1}, nil},
		{"spiky negative spike", &DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.01, SpikeProb: 0.1, SpikeMax: -1}, nil},
		{"spiky NaN prob", &DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.01, SpikeProb: nan}, nil},
		{"asymmetric negative fwd_min", &DelaySpec{Kind: "asymmetric", FwdMin: -0.01, FwdMax: 0.03, RevMin: 0.001, RevMax: 0.002}, nil},
		{"asymmetric rev_min > rev_max", &DelaySpec{Kind: "asymmetric", FwdMin: 0.01, FwdMax: 0.03, RevMin: 0.002, RevMax: 0.001}, nil},
		{"asymmetric infinite fwd_max", &DelaySpec{Kind: "asymmetric", FwdMin: 0.01, FwdMax: inf, RevMin: 0.001, RevMax: 0.002}, nil},
		{"uniform NaN max", &DelaySpec{Kind: "uniform", Min: 0.001, Max: nan}, nil},
		{"constant infinite", &DelaySpec{Kind: "constant", D: inf}, nil},
		{"model with negative minimum", nil, network.AsymmetricDelay{FwdMin: -0.01, FwdMax: 0.03, RevMin: 0.001, RevMax: 0.002}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			sp := Spec{Name: tc.name, N: 4, F: 1, DurationSec: 60, Delay: tc.spec}
			s, err := sp.Build(nil)
			if err == nil {
				if tc.model != nil {
					s.Delay = tc.model
				}
				_, err = Run(s)
			}
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}()
	}
}

func TestTopoSpecVariants(t *testing.T) {
	full, err := (&TopoSpec{Kind: "full"}).Build(5)
	if err != nil || full.N() != 5 {
		t.Fatalf("full: %v %v", full, err)
	}
	ring, err := (&TopoSpec{Kind: "ring"}).Build(5)
	if err != nil || len(ring.Neighbors(0)) != 2 {
		t.Fatalf("ring: %v", err)
	}
	circ, err := (&TopoSpec{Kind: "circulant", Degree: 4}).Build(9)
	if err != nil || len(circ.Neighbors(0)) != 4 {
		t.Fatalf("circulant: %v", err)
	}
	tc, err := (&TopoSpec{Kind: "twocliques", F: 1}).Build(8)
	if err != nil || tc.N() != 8 {
		t.Fatalf("twocliques: %v", err)
	}
	bad := []struct {
		spec TopoSpec
		n    int
	}{
		{TopoSpec{Kind: "hypercube"}, 8},
		{TopoSpec{Kind: "circulant", Degree: 3}, 8},
		{TopoSpec{Kind: "twocliques", F: 1}, 9}, // size mismatch
		{TopoSpec{Kind: "twocliques"}, 8},
	}
	for _, b := range bad {
		if _, err := b.spec.Build(b.n); err == nil {
			t.Fatalf("%+v accepted", b.spec)
		}
	}
}

func TestBehaviorSpecVariants(t *testing.T) {
	kinds := []string{"crash", "smash", "randomliar", "consistentliar", "splitbrain", "honest"}
	for _, k := range kinds {
		if _, err := (&BehaviorSpec{Kind: k}).Build(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if _, err := (&BehaviorSpec{Kind: "gremlin"}).Build(); err == nil {
		t.Fatal("unknown behavior accepted")
	}
}

func TestSpecUnknownProtocol(t *testing.T) {
	sp := Spec{N: 4, F: 1, DurationSec: 60, Protocol: "quantum"}
	if _, err := sp.Build(nil); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// With a registry entry it resolves, and the registered builder is used.
	called := 0
	reg := Registry{"quantum": func(ctx BuildContext) Starter {
		called++
		return SyncBuilder(nil)(ctx)
	}}
	sp.ThetaSec = 300
	sp.Rho = 1e-4
	s, err := sp.Build(reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if called != sp.N {
		t.Fatalf("registered builder called %d times, want %d", called, sp.N)
	}
}

func TestSpecTopologyDelayErrorsPropagate(t *testing.T) {
	sp := Spec{N: 4, F: 1, DurationSec: 60,
		Delay: &DelaySpec{Kind: "nope"}}
	if _, err := sp.Build(nil); err == nil {
		t.Fatal("bad delay accepted")
	}
	sp = Spec{N: 4, F: 1, DurationSec: 60,
		Topology: &TopoSpec{Kind: "nope"}}
	if _, err := sp.Build(nil); err == nil {
		t.Fatal("bad topology accepted")
	}
	sp = Spec{N: 4, F: 1, DurationSec: 60,
		Adversary: []CorruptionSpec{{Behavior: BehaviorSpec{Kind: "nope"}}}}
	if _, err := sp.Build(nil); err == nil {
		t.Fatal("bad behavior accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	// A fully-populated Spec must survive encode → LoadSpec unchanged, and
	// Build must map every field onto the Scenario. This pins the JSON
	// surface: adding a field without a json tag (or with a colliding one)
	// fails here.
	orig := Spec{
		Name: "roundtrip", Seed: 99,
		N: 8, F: 2,
		DurationSec: 600, ThetaSec: 120, Rho: 2e-4,
		Delay:      &DelaySpec{Kind: "spiky", Min: 0.001, Max: 0.02, SpikeProb: 0.05, SpikeMax: 0.5},
		Topology:   &TopoSpec{Kind: "circulant", Degree: 4},
		DropProb:   0.01,
		SyncIntSec: 15, MaxWaitSec: 0.2, WayOffSec: 90,
		InitSpreadSec:    0.25,
		InitialBiasesSec: []float64{0.01, -0.02, 0.03, 0, 0, 0, 0, 0},
		Slopes:           []float64{1e-4, -5e-5, 0, 0, 0, 0, 0, 0},
		TickSec:          0.5,
		Protocol:         "ntp",
		Adversary: []CorruptionSpec{
			{Node: 3, FromSec: 240, ToSec: 270,
				Behavior: BehaviorSpec{Kind: "smash", OffsetSec: 30, Quiet: true}},
			{Node: 5, FromSec: 400, ToSec: 430,
				Behavior: BehaviorSpec{Kind: "splitbrain", Boundary: 4, OffsetSec: 10}},
		},
		UnsafeAdversary: true,
		SamplePeriodSec: 2,
		SkipValidation:  true,
	}
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := LoadSpec(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("re-reading encoded spec: %v", err)
	}
	if !reflect.DeepEqual(orig, decoded) {
		t.Fatalf("spec changed across JSON round-trip:\n  sent %+v\n  got  %+v", orig, decoded)
	}

	s, err := decoded.Build(Registry{"ntp": func(bc BuildContext) Starter { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "roundtrip" || s.Seed != 99 || s.N != 8 || s.F != 2 {
		t.Errorf("identity fields lost: %+v", s)
	}
	if s.Duration != 600*simtime.Second || s.Theta != 2*simtime.Minute || s.Rho != 2e-4 {
		t.Errorf("timing fields lost: %+v", s)
	}
	if s.SyncInt != 15*simtime.Second || s.MaxWait != 200*simtime.Millisecond || s.WayOff != 90*simtime.Second {
		t.Errorf("protocol fields lost: %+v", s)
	}
	if s.InitSpread != 250*simtime.Millisecond || len(s.InitialBiases) != 8 || len(s.Slopes) != 8 {
		t.Errorf("clock fields lost: %+v", s)
	}
	if s.Tick != 500*simtime.Millisecond || s.DropProb != 0.01 || !s.UnsafeAdversary || !s.SkipValidation {
		t.Errorf("misc fields lost: %+v", s)
	}
	if s.SamplePeriod != 2*simtime.Second {
		t.Errorf("sample period lost: %v", s.SamplePeriod)
	}
	if s.Delay == nil || s.Topology == nil || s.Builder == nil {
		t.Error("delay/topology/protocol not resolved")
	}
	if len(s.Adversary.Corruptions) != 2 {
		t.Fatalf("adversary lost: %+v", s.Adversary)
	}
	c := s.Adversary.Corruptions[0]
	if c.Node != 3 || c.From != 240 || c.To != 270 {
		t.Errorf("corruption window lost: %+v", c)
	}
}
