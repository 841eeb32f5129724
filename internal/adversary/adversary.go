// Package adversary implements the mobile Byzantine adversary of §2.2: an
// entity that observes all traffic, breaks into processors (learning and
// rewriting their state, answering their messages arbitrarily), and later
// leaves them — constrained only by Definition 2: within any real-time
// window of length Θ it controls at most f processors.
package adversary

import (
	"fmt"
	"sort"

	"clocksync/internal/des"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Corruption is one break-in: the adversary controls Node during [From, To)
// driving it with Behavior.
type Corruption struct {
	Node     int
	From, To simtime.Time
	Behavior protocol.Behavior
}

// Schedule is a set of corruptions, the static description of an adversary
// strategy for one run.
type Schedule struct {
	Corruptions []Corruption
}

// Validate checks the schedule against Definition 2 for an f-limited
// adversary with period theta over n processors: corruption intervals are
// sane, never overlap per node, and no Θ-window sees more than f distinct
// controlled processors.
//
// A processor p is "seen" by the window [τ, τ+Θ] if some corruption of p
// intersects it, which happens exactly when τ ∈ [From−Θ, To]. The check
// therefore merges each node's corruptions into extended intervals
// [From−Θ, To] and verifies that at most f nodes' extended intervals overlap
// anywhere, by a boundary sweep. The sweep treats touching intervals as
// overlapping, which errs on the safe side.
func (s Schedule) Validate(n, f int, theta simtime.Duration) error {
	if theta <= 0 {
		return fmt.Errorf("adversary: non-positive Θ %v", theta)
	}
	perNode := make(map[int][]Corruption)
	for i, c := range s.Corruptions {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("adversary: corruption %d targets node %d outside [0,%d)", i, c.Node, n)
		}
		if c.To <= c.From {
			return fmt.Errorf("adversary: corruption %d has empty interval [%v,%v)", i, c.From, c.To)
		}
		if c.Behavior == nil {
			return fmt.Errorf("adversary: corruption %d has nil behavior", i)
		}
		perNode[c.Node] = append(perNode[c.Node], c)
	}

	type boundary struct {
		at    simtime.Time
		delta int
	}
	var bounds []boundary
	for node, cs := range perNode {
		sort.Slice(cs, func(i, j int) bool { return cs[i].From < cs[j].From })
		for i := 1; i < len(cs); i++ {
			if cs[i].From < cs[i-1].To {
				return fmt.Errorf("adversary: overlapping corruptions of node %d at %v", node, cs[i].From)
			}
		}
		// Merge this node's extended intervals [From−Θ, To] so that a node
		// corrupted repeatedly in quick succession counts once per window.
		var curLo, curHi simtime.Time
		open := false
		flush := func() {
			if open {
				bounds = append(bounds, boundary{curLo, +1}, boundary{curHi, -1})
			}
		}
		for _, c := range cs {
			lo := c.From.Add(-theta)
			if !open || lo > curHi {
				flush()
				curLo, curHi, open = lo, c.To, true
			} else if c.To > curHi {
				curHi = c.To
			}
		}
		flush()
	}

	sort.Slice(bounds, func(i, j int) bool {
		if bounds[i].at != bounds[j].at {
			return bounds[i].at < bounds[j].at
		}
		// Starts before ends at equal instants: touching counts as
		// overlapping (conservative).
		return bounds[i].delta > bounds[j].delta
	})
	active, worst := 0, 0
	var worstAt simtime.Time
	for _, b := range bounds {
		active += b.delta
		if active > worst {
			worst = active
			worstAt = b.at
		}
	}
	if worst > f {
		return fmt.Errorf("adversary: schedule is not %d-limited: %d processors controlled within a Θ-window around %v", f, worst, worstAt)
	}
	return nil
}

// ActiveAt reports whether node is controlled at instant t.
func (s Schedule) ActiveAt(node int, t simtime.Time) bool {
	for _, c := range s.Corruptions {
		if c.Node == node && t >= c.From && t < c.To {
			return true
		}
	}
	return false
}

// ControlledWithin reports whether node is controlled at any point of the
// closed interval iv. The metrics layer uses it to compute the "good set"
// of Definition 3(i): processors non-faulty throughout [τ−Θ, τ].
func (s Schedule) ControlledWithin(node int, iv simtime.Interval) bool {
	for _, c := range s.Corruptions {
		if c.Node != node {
			continue
		}
		if c.From <= iv.Hi && iv.Lo < c.To {
			return true
		}
	}
	return false
}

// End returns the latest release instant in the schedule (0 for an empty
// schedule).
func (s Schedule) End() simtime.Time {
	var end simtime.Time
	for _, c := range s.Corruptions {
		if c.To > end {
			end = c.To
		}
	}
	return end
}

// Apply schedules the break-ins and releases on the simulator against the
// given harnesses (indexed by node id).
func (s Schedule) Apply(sim *des.Sim, harnesses []*protocol.Harness) {
	for _, c := range s.Corruptions {
		c := c
		sim.At(c.From, func() { harnesses[c.Node].Corrupt(c.Behavior) })
		sim.At(c.To, func() { harnesses[c.Node].Release() })
	}
}

// Static corrupts the given nodes with behaviors from mk for the whole of
// [from, to). len(nodes) must be ≤ f for the schedule to validate.
func Static(nodes []int, from, to simtime.Time, mk func(node int) protocol.Behavior) Schedule {
	var s Schedule
	for _, node := range nodes {
		s.Corruptions = append(s.Corruptions, Corruption{
			Node: node, From: from, To: to, Behavior: mk(node),
		})
	}
	return s
}

// Churn builds a sustained corrupt/release stream pinned at the Definition 2
// budget boundary: break-ins of duration dwell start every (Θ+dwell)/f +
// margin, rotating round-robin over the n processors, from start for as long
// as a whole break-in fits before horizon. With any margin > 0 the stream is
// exactly f-limited — every Θ-window already sees f distinct controlled
// processors, so any additional concurrent corruption would break the budget
// — while margin ≤ 0 packs f+1 extended windows [From−Θ, To] into some
// Θ-window and Validate MUST reject the result (touching windows count as
// overlapping). The boundary property tests drive exactly this knob from
// both sides.
func Churn(n, f int, start, horizon simtime.Time, dwell, theta, margin simtime.Duration, mk func(node int) protocol.Behavior) Schedule {
	if f < 1 || n <= f || dwell <= 0 {
		panic(fmt.Sprintf("adversary: bad Churn(n=%d, f=%d, dwell=%v)", n, f, dwell))
	}
	step := simtime.Duration(float64(theta+dwell)/float64(f)) + margin
	if step <= 0 || simtime.Duration(n)*step <= dwell {
		panic(fmt.Sprintf("adversary: Churn step %v too small for dwell %v over n=%d", step, dwell, n))
	}
	var s Schedule
	for i := 0; ; i++ {
		from := start.Add(simtime.Duration(i) * step)
		if from.Add(dwell) > horizon {
			return s
		}
		node := i % n
		s.Corruptions = append(s.Corruptions, Corruption{
			Node: node, From: from, To: from.Add(dwell), Behavior: mk(node),
		})
	}
}

// Rotate builds the mobile-adversary workload of experiment E5: corruptions
// of duration dwell rotating round-robin over all n processors, for the
// given number of corruption events, starting at start. Consecutive
// break-ins are spaced so that the schedule is f-limited with period theta:
// each new break-in begins more than (Θ + dwell)/f after the previous one,
// which keeps at most f extended intervals overlapping. Over a long run
// every processor is corrupted many times — the total number of faults is
// unbounded, the situation prior protocols cannot handle.
func Rotate(n, f int, start simtime.Time, dwell, theta simtime.Duration, events int, mk func(node int) protocol.Behavior) Schedule {
	if f < 1 || n < 1 || events < 0 {
		panic(fmt.Sprintf("adversary: bad Rotate(n=%d, f=%d, events=%d)", n, f, events))
	}
	step := simtime.Duration(float64(theta+dwell)/float64(f)) + simtime.Millisecond
	var s Schedule
	for i := 0; i < events; i++ {
		node := i % n
		from := start.Add(simtime.Duration(i) * step)
		s.Corruptions = append(s.Corruptions, Corruption{
			Node: node, From: from, To: from.Add(dwell), Behavior: mk(node),
		})
	}
	return s
}
