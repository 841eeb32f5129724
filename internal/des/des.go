// Package des implements a deterministic discrete-event simulator.
//
// The simulator advances a single virtual real-time axis (the "τ" of the
// paper's analysis). Events are callbacks scheduled at instants; events
// scheduled for the same instant fire in scheduling order, so a run with a
// fixed seed is exactly reproducible. A Sim is single-threaded by design:
// processors in the simulated network are state machines driven by events,
// which makes every bias measurable at every instant without races.
// ShardedSim (sharded.go) runs one Sim per shard, plus a global one, in
// conservative windows; each is still driven by one goroutine at a time. A
// one-shard ShardedSim is one Sim, run as it is.
//
// Internally the queue is an index-based 4-ary min-heap over a pooled event
// arena: scheduling an event takes a slot from a free list instead of
// allocating, so the steady-state schedule→fire path performs zero heap
// allocations. Each heap entry is 16 bytes holding the whole ordering key and
// the slot index (heapEnt), so the sift loops compare contiguous memory
// instead of chasing pointers into the arena, and pop picks the least of four
// children without a branch. Recycled slots carry a generation counter; an
// Event handle captures the generation at scheduling time, so cancelling an
// event that has already fired (and whose slot now hosts a different event)
// is a safe no-op. Events fire in the total order (time, sequence number);
// testdata/order.golden pins that order byte for byte.
package des

import (
	"fmt"
	"math"
	"math/bits"

	"clocksync/internal/simtime"
)

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it. It is a small value (not a pointer into
// the queue): the zero Event is valid and Cancel on it is a no-op, and a
// handle kept past its event's firing is defused by the arena's generation
// counter.
type Event struct {
	s   *Sim
	at  simtime.Time
	idx int32
	gen uint32
}

// At returns the instant the event is scheduled for.
func (e Event) At() simtime.Time { return e.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event — or the zero Event — is a no-op: the handle's
// generation no longer matches the recycled slot's, so a slot reused for a
// newer event cannot be cancelled through a stale handle.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	slot := &e.s.arena[e.idx]
	if slot.gen != e.gen {
		return
	}
	slot.cancelled = true
}

// slot is one pooled event in the arena. fn is cleared on recycle so the
// arena does not pin dead closures. The event's instant and sequence number
// live only in its heap entry.
type slot struct {
	fn        func()
	gen       uint32
	cancelled bool
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     simtime.Time
	seq     uint64
	seed    int64
	stopped bool
	fired   uint64

	arena []slot    // pooled event storage
	free  []int32   // recycled arena slots
	heap  []heapEnt // 4-ary min-heap ordered by (hi, lo)
	owned []any     // what the layers above keep on the queue (Owned)
}

// A heap entry's lo word is seq<<slotBits | slot, so a Sim holds at most
// maxSlots arena slots and numbers at most maxSeq events between Resets. At
// panics rather than wrap either field.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1 << (64 - slotBits)
)

// maxSlots is 1<<slotBits; it is a variable only so a test can reach the
// limit without allocating 2^24 slots.
var maxSlots = 1 << slotBits

// heapEnt is one 16-byte heap node: hi is math.Float64bits of the event's
// instant with −0 normalised to +0, lo is seq<<slotBits | slot. Instants are
// never negative and never NaN (At refuses both), and on non-negative floats
// the bit pattern orders as the value does, so comparing (hi, lo) as one
// 128-bit unsigned number is the (time, sequence) order. Sequence numbers are
// unique, so no two entries compare equal and the slot bits never decide.
type heapEnt struct {
	hi, lo uint64
}

// less orders heap nodes by (time, sequence number). The sequence number
// makes the order total and deterministic — same-instant events fire in
// scheduling order.
func (a heapEnt) less(b heapEnt) bool {
	return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo
}

// lessMask is less without a branch: all ones when a orders before b, else
// zero. The borrow out of the 128-bit subtraction a − b is 1 exactly when
// a < b.
func lessMask(a, b heapEnt) uint64 {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return -borrow
}

// pick returns b where mask is all ones and a where it is zero.
func pick(a, b heapEnt, mask uint64) heapEnt {
	return heapEnt{hi: a.hi ^ (a.hi^b.hi)&mask, lo: a.lo ^ (a.lo^b.lo)&mask}
}

func (e heapEnt) at() simtime.Time { return simtime.Time(math.Float64frombits(e.hi)) }
func (e heapEnt) slot() int32      { return int32(e.lo & slotMask) }

// New returns a simulator starting at time 0 for the run with the given seed.
func New(seed int64) *Sim {
	return &Sim{seed: seed}
}

// Reset rewinds the simulator to the state New(seed) returns — time 0, empty
// queue, the new seed — while keeping the event arena and heap storage for
// reuse, and every value the layers above own on the queue (Owned): the
// message layer's envelopes, wire payloads and round buffers, and the
// scenario runner's processor slots. Campaign
// workers run thousands of scenarios back to back; resetting instead of
// reallocating keeps the queue's memory warm across runs, until the
// simulator is dropped. An event still pending is dropped with whatever its
// callback holds, never fired or recycled. A reset simulator replays a seed
// byte-for-byte identically to a fresh one.
func (s *Sim) Reset(seed int64) {
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.fired = 0
	for i := range s.arena {
		sl := &s.arena[i]
		sl.fn = nil
		sl.gen++ // defuse every outstanding handle from the previous run
	}
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := len(s.arena) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.seed = seed
}

// Now returns the current virtual time.
func (s *Sim) Now() simtime.Time { return s.now }

// Seed returns the run's seed. The simulator holds no random source: every
// draw is keyed by the seed and by what it is about (network.Key).
func (s *Sim) Seed() int64 { return s.seed }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet drained).
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn to run at instant t. Scheduling in the past panics: it is
// always a bug in the caller, and silently reordering time would invalidate
// the analysis the simulator exists to check. So does a NaN instant, which
// orders neither before nor after anything, and running out of the slots or
// sequence numbers a heap entry can encode.
func (s *Sim) At(t simtime.Time, fn func()) Event {
	if !(t >= s.now) {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if s.seq == maxSeq {
		panic(fmt.Sprintf("des: %d events scheduled since the last Reset, the most a heap entry can number", s.seq))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.arena) == maxSlots {
			panic(fmt.Sprintf("des: %d events pending, the most a heap entry can address", len(s.arena)))
		}
		s.arena = append(s.arena, slot{})
		idx = int32(len(s.arena) - 1)
	}
	sl := &s.arena[idx]
	sl.fn = fn
	sl.cancelled = false
	// t ≥ now ≥ 0, so clearing the sign bit changes only −0, to +0.
	s.push(heapEnt{hi: math.Float64bits(float64(t)) &^ (1 << 63), lo: s.seq<<slotBits | uint64(idx)})
	s.seq++
	return Event{s: s, at: t, idx: idx, gen: sl.gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d simtime.Duration, fn func()) Event {
	if !(d >= 0) {
		panic(fmt.Sprintf("des: scheduling event %v in the past", d))
	}
	return s.At(s.now.Add(d), fn)
}

// Step fires the next event. It reports false when the queue is empty or the
// simulation has been stopped.
func (s *Sim) Step() bool {
	for len(s.heap) > 0 && !s.stopped {
		top := s.pop()
		idx := top.slot()
		sl := &s.arena[idx]
		if sl.cancelled {
			s.recycle(idx)
			continue
		}
		s.now = top.at()
		fn := sl.fn
		s.fired++
		// Recycle before running: fn may schedule new events, and handing it
		// the hot slot keeps the arena at its steady-state footprint.
		s.recycle(idx)
		fn()
		return true
	}
	return false
}

// RunUntil fires events until virtual time reaches horizon (inclusive of
// events at exactly horizon) or the queue empties. Afterwards the clock
// reads horizon, even if the queue drained early.
func (s *Sim) RunUntil(horizon simtime.Time) {
	for len(s.heap) > 0 && !s.stopped {
		next, ok := s.peek()
		if !ok || next > horizon {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}

// Run fires events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Stop halts the simulation; subsequent Step calls return false.
func (s *Sim) Stop() { s.stopped = true }

// recycle returns an arena slot to the free list, bumping its generation so
// outstanding handles to the old occupant become inert.
func (s *Sim) recycle(idx int32) {
	sl := &s.arena[idx]
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, idx)
}

// peek returns the time of the next live event, draining cancelled events it
// encounters.
func (s *Sim) peek() (simtime.Time, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.arena[top.slot()].cancelled {
			s.pop()
			s.recycle(top.slot())
			continue
		}
		return top.at(), true
	}
	return 0, false
}

// push inserts a node into the 4-ary heap, sifting up with a hole (moves
// instead of swaps).
func (s *Sim) push(e heapEnt) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the minimum node of the 4-ary heap, sifting the
// last node down from the root with a hole. A full set of four children is
// settled by a tournament with no branches — the two pairs, then their
// winners — so the only data-dependent branch per level is whether the
// sinking node stops there. The queue's usual sinking node is a far-future
// alarm that goes nearly to the bottom, which makes that branch predictable
// and the three compares inside the tournament not.
func (s *Sim) pop() heapEnt {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h = h[:last]
	s.heap = h
	n := len(h)
	if n == 0 {
		return top
	}
	i := 0
	c := 1
	for ; c+4 <= n; c = i*4 + 1 {
		q := h[c : c+4 : c+4]
		m01 := lessMask(q[1], q[0])
		m23 := lessMask(q[3], q[2])
		a, b := pick(q[0], q[1], m01), pick(q[2], q[3], m23)
		ia, ib := m01&1, 2|m23&1
		mab := lessMask(b, a)
		w := pick(a, b, mab)
		if lessMask(w, e) == 0 {
			h[i] = e
			return top
		}
		h[i] = w
		i = c + int(ia^(ia^ib)&mab)
	}
	// The partial last level: fewer than four children, and none below them.
	m := c
	for j := c + 1; j < n; j++ {
		if h[j].less(h[m]) {
			m = j
		}
	}
	if m < n && h[m].less(e) {
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}

// Ticker invokes fn every period of virtual time until cancelled. It is a
// convenience for metrics sampling; protocol alarms are driven by hardware
// clocks instead (see internal/protocol).
type Ticker struct {
	sim     *Sim
	period  simtime.Duration
	fn      func(simtime.Time)
	fire    func() // bound once in NewTicker, so a tick allocates nothing
	ev      Event
	stopped bool
}

// NewTicker starts a ticker with the given period; the first tick fires one
// period from now.
func NewTicker(sim *Sim, period simtime.Duration, fn func(simtime.Time)) *Ticker {
	if period <= 0 {
		panic("des: ticker period must be positive")
	}
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn(t.sim.Now())
		t.arm()
	}
	t.arm()
	return t
}

func (t *Ticker) arm() { t.ev = t.sim.After(t.period, t.fire) }

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
