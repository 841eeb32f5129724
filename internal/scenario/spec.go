package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"clocksync/internal/adversary"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Spec is the JSON-serializable form of a Scenario, used by cmd/syncsim
// -config and by saved experiment definitions. Durations are in seconds.
//
// Protocols are referenced by name and resolved through the registry the
// caller passes to Build — the scenario package itself only knows the
// default "sync".
type Spec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	N int `json:"n"`
	F int `json:"f"`

	DurationSec float64 `json:"duration_sec"`
	ThetaSec    float64 `json:"theta_sec,omitempty"`
	Rho         float64 `json:"rho,omitempty"`

	Delay    *DelaySpec `json:"delay,omitempty"`
	Topology *TopoSpec  `json:"topology,omitempty"`
	DropProb float64    `json:"drop_prob,omitempty"`

	SyncIntSec float64 `json:"sync_int_sec,omitempty"`
	MaxWaitSec float64 `json:"max_wait_sec,omitempty"`
	WayOffSec  float64 `json:"way_off_sec,omitempty"`

	InitSpreadSec    float64   `json:"init_spread_sec,omitempty"`
	InitialBiasesSec []float64 `json:"initial_biases_sec,omitempty"`
	Slopes           []float64 `json:"slopes,omitempty"`
	TickSec          float64   `json:"tick_sec,omitempty"`

	Protocol string `json:"protocol,omitempty"` // default "sync"

	Adversary       []CorruptionSpec `json:"adversary,omitempty"`
	UnsafeAdversary bool             `json:"unsafe_adversary,omitempty"`

	SamplePeriodSec float64 `json:"sample_period_sec,omitempty"`
	SkipValidation  bool    `json:"skip_validation,omitempty"`
}

// DelaySpec selects a latency model.
type DelaySpec struct {
	Kind string `json:"kind"` // constant | uniform | asymmetric | spiky
	// constant: D; uniform: Min,Max; asymmetric: FwdMin..RevMax;
	// spiky: Min,Max,SpikeProb,SpikeMax. All in seconds.
	D         float64 `json:"d_sec,omitempty"`
	Min       float64 `json:"min_sec,omitempty"`
	Max       float64 `json:"max_sec,omitempty"`
	FwdMin    float64 `json:"fwd_min_sec,omitempty"`
	FwdMax    float64 `json:"fwd_max_sec,omitempty"`
	RevMin    float64 `json:"rev_min_sec,omitempty"`
	RevMax    float64 `json:"rev_max_sec,omitempty"`
	SpikeProb float64 `json:"spike_prob,omitempty"`
	SpikeMax  float64 `json:"spike_max_sec,omitempty"`
}

// Model resolves the spec to a DelayModel. Every field must be finite, and
// every range well ordered with a non-negative floor: 0 ≤ min ≤ max.
func (d *DelaySpec) Model() (network.DelayModel, error) {
	for _, v := range []float64{d.D, d.Min, d.Max, d.FwdMin, d.FwdMax, d.RevMin, d.RevMax, d.SpikeProb, d.SpikeMax} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("scenario: %s delay has a non-finite field %g", d.Kind, v)
		}
	}
	bad := func(lo, hi float64) bool { return lo < 0 || hi < lo }
	uniform := func() network.UniformDelay {
		return network.NewUniformDelay(simtime.Duration(d.Min), simtime.Duration(d.Max))
	}
	switch d.Kind {
	case "constant":
		if d.D <= 0 {
			return nil, fmt.Errorf("scenario: constant delay needs d_sec > 0")
		}
		return network.ConstantDelay{D: simtime.Duration(d.D)}, nil
	case "uniform":
		if bad(d.Min, d.Max) {
			return nil, fmt.Errorf("scenario: bad uniform delay [%g, %g]", d.Min, d.Max)
		}
		return uniform(), nil
	case "asymmetric":
		if bad(d.FwdMin, d.FwdMax) || bad(d.RevMin, d.RevMax) {
			return nil, fmt.Errorf("scenario: bad asymmetric delay [%g, %g] forward, [%g, %g] reverse",
				d.FwdMin, d.FwdMax, d.RevMin, d.RevMax)
		}
		return network.AsymmetricDelay{
			FwdMin: simtime.Duration(d.FwdMin), FwdMax: simtime.Duration(d.FwdMax),
			RevMin: simtime.Duration(d.RevMin), RevMax: simtime.Duration(d.RevMax),
		}, nil
	case "spiky":
		if bad(d.Min, d.Max) || !(d.SpikeProb >= 0 && d.SpikeProb <= 1) || d.SpikeMax < 0 {
			return nil, fmt.Errorf("scenario: bad spiky delay [%g, %g], spike_prob %g, spike_max_sec %g",
				d.Min, d.Max, d.SpikeProb, d.SpikeMax)
		}
		return network.SpikyDelay{Base: uniform(), SpikeProb: d.SpikeProb, SpikeMax: simtime.Duration(d.SpikeMax)}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown delay kind %q", d.Kind)
	}
}

// TopoSpec selects a topology.
type TopoSpec struct {
	Kind string `json:"kind"` // full | ring | circulant | twocliques
	// circulant: Degree; twocliques: F (builds 6F+2 nodes).
	Degree int `json:"degree,omitempty"`
	F      int `json:"f,omitempty"`
}

// Build resolves the spec to a topology over n processors.
func (t *TopoSpec) Build(n int) (network.Topology, error) {
	switch t.Kind {
	case "full":
		return network.NewFullMesh(n), nil
	case "ring":
		return network.NewRing(n), nil
	case "circulant":
		if t.Degree%2 != 0 || t.Degree < 2 || t.Degree >= n {
			return nil, fmt.Errorf("scenario: circulant needs even 2 ≤ degree < n, got %d", t.Degree)
		}
		return network.NewCirculant(n, t.Degree), nil
	case "twocliques":
		if t.F < 1 {
			return nil, fmt.Errorf("scenario: twocliques needs f ≥ 1")
		}
		g := network.NewTwoCliques(t.F)
		if g.N() != n {
			return nil, fmt.Errorf("scenario: twocliques(f=%d) has %d nodes but n=%d", t.F, g.N(), n)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

// CorruptionSpec is one break-in.
type CorruptionSpec struct {
	Node     int          `json:"node"`
	FromSec  float64      `json:"from_sec"`
	ToSec    float64      `json:"to_sec"`
	Behavior BehaviorSpec `json:"behavior"`
}

// BehaviorSpec selects a Byzantine behavior.
type BehaviorSpec struct {
	Kind string `json:"kind"` // crash | smash | randomliar | consistentliar | splitbrain | honest
	// smash: OffsetSec (+ Quiet); randomliar: AmplitudeSec;
	// consistentliar: OffsetSec; splitbrain: Boundary, OffsetSec.
	OffsetSec    float64 `json:"offset_sec,omitempty"`
	AmplitudeSec float64 `json:"amplitude_sec,omitempty"`
	Boundary     int     `json:"boundary,omitempty"`
	Quiet        bool    `json:"quiet,omitempty"`
}

// Build resolves the spec to a behavior.
func (b *BehaviorSpec) Build() (protocol.Behavior, error) {
	switch b.Kind {
	case "crash":
		return adversary.Crash{}, nil
	case "smash":
		return adversary.ClockSmash{Offset: simtime.Duration(b.OffsetSec), Quiet: b.Quiet}, nil
	case "randomliar":
		return adversary.RandomLiar{Amplitude: simtime.Duration(b.AmplitudeSec)}, nil
	case "consistentliar":
		return adversary.ConsistentLiar{Offset: simtime.Duration(b.OffsetSec)}, nil
	case "splitbrain":
		return adversary.SplitBrain{Boundary: b.Boundary, Offset: simtime.Duration(b.OffsetSec)}, nil
	case "honest":
		return adversary.Honest{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown behavior kind %q", b.Kind)
	}
}

// Registry maps protocol names to Builders. "sync" (and "") are always
// available; callers add baselines.
type Registry map[string]Builder

// Build resolves the spec to a runnable Scenario using the given protocol
// registry (nil is fine when only "sync" is used).
func (sp *Spec) Build(protocols Registry) (Scenario, error) {
	s := Scenario{
		Name:            sp.Name,
		Seed:            sp.Seed,
		N:               sp.N,
		F:               sp.F,
		Duration:        simtime.Duration(sp.DurationSec),
		Theta:           simtime.Duration(sp.ThetaSec),
		Rho:             sp.Rho,
		DropProb:        sp.DropProb,
		SyncInt:         simtime.Duration(sp.SyncIntSec),
		MaxWait:         simtime.Duration(sp.MaxWaitSec),
		WayOff:          simtime.Duration(sp.WayOffSec),
		InitSpread:      simtime.Duration(sp.InitSpreadSec),
		Slopes:          sp.Slopes,
		Tick:            simtime.Duration(sp.TickSec),
		UnsafeAdversary: sp.UnsafeAdversary,
		SamplePeriod:    simtime.Duration(sp.SamplePeriodSec),
		SkipValidation:  sp.SkipValidation,
	}
	for _, b := range sp.InitialBiasesSec {
		s.InitialBiases = append(s.InitialBiases, simtime.Duration(b))
	}
	if sp.Delay != nil {
		m, err := sp.Delay.Model()
		if err != nil {
			return Scenario{}, err
		}
		s.Delay = m
	}
	if sp.Topology != nil {
		topo, err := sp.Topology.Build(sp.N)
		if err != nil {
			return Scenario{}, err
		}
		s.Topology = topo
	}
	switch sp.Protocol {
	case "", "sync":
		// default builder
	default:
		builder, ok := protocols[sp.Protocol]
		if !ok {
			return Scenario{}, fmt.Errorf("scenario: unknown protocol %q", sp.Protocol)
		}
		s.Builder = builder
	}
	for i, c := range sp.Adversary {
		behavior, err := c.Behavior.Build()
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: corruption %d: %w", i, err)
		}
		s.Adversary.Corruptions = append(s.Adversary.Corruptions, adversary.Corruption{
			Node:     c.Node,
			From:     simtime.Time(c.FromSec),
			To:       simtime.Time(c.ToSec),
			Behavior: behavior,
		})
	}
	return s, nil
}

// LoadSpec parses a JSON spec. Unknown fields are rejected so typos in
// config files fail loudly.
func LoadSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return sp, nil
}
