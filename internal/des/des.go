// Package des implements a deterministic discrete-event simulator.
//
// The simulator advances a single virtual real-time axis (the "τ" of the
// paper's analysis). Events are callbacks scheduled at instants; events
// scheduled for the same instant fire in scheduling order, so a run with a
// fixed seed is exactly reproducible. The simulator is single-threaded by
// design: processors in the simulated network are state machines driven by
// events, which makes every bias measurable at every instant without races.
//
// Internally the queue is an index-based 4-ary min-heap over a pooled event
// arena: scheduling an event takes a slot from a free list instead of
// allocating, and the heap stores (time, seq, slot-index) nodes with the
// ordering key inline, so the steady-state schedule→fire path performs zero
// heap allocations and the sift loops compare contiguous memory instead of
// chasing pointers into the arena. Recycled
// slots carry a generation counter; an Event handle captures the generation
// at scheduling time, so cancelling an event that has already fired (and
// whose slot now hosts a different event) is a safe no-op. The firing order
// is the same total (time, sequence) order as the previous container/heap
// implementation — determinism tests pin this byte for byte.
package des

import (
	"fmt"
	"math/rand"

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
// arena does not pin dead closures.
type slot struct {
	at        simtime.Time
	seq       uint64
	fn        func()
	gen       uint32
	cancelled bool
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     simtime.Time
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64

	arena []slot    // pooled event storage
	free  []int32   // recycled arena slots
	heap  []heapEnt // 4-ary min-heap ordered by (at, seq)
}

// heapEnt is one heap node. The ordering key (at, seq) is stored inline so
// the sift loops compare contiguous heap memory instead of dereferencing
// into the arena on every comparison — on large clusters the queue holds
// thousands of events and those derefs are cache misses.
type heapEnt struct {
	at  simtime.Time
	seq uint64
	idx int32
}

// entLess orders heap nodes by (time, sequence number). The sequence number
// makes the order total and deterministic — same-instant events fire in
// scheduling order.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// New returns a simulator starting at time 0 with the given RNG seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Reset rewinds the simulator to the state New(seed) returns — time 0, empty
// queue, fresh RNG stream — while keeping the event arena and heap storage
// for reuse. Campaign workers run thousands of scenarios back to back;
// resetting instead of reallocating keeps the queue's memory warm across
// runs. A reset simulator replays a seed byte-for-byte identically to a
// fresh one.
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
	s.rng.Seed(seed)
}

// Now returns the current virtual time.
func (s *Sim) Now() simtime.Time { return s.now }

// Rand returns the simulator's seeded random source. All randomness in a
// simulation must come from this source to keep runs reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet drained).
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn to run at instant t. Scheduling in the past panics: it is
// always a bug in the caller, and silently reordering time would invalidate
// the analysis the simulator exists to check.
func (s *Sim) At(t simtime.Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, slot{})
		idx = int32(len(s.arena) - 1)
	}
	sl := &s.arena[idx]
	sl.at = t
	sl.seq = s.seq
	sl.fn = fn
	sl.cancelled = false
	s.seq++
	s.push(heapEnt{at: t, seq: sl.seq, idx: idx})
	return Event{s: s, at: t, idx: idx, gen: sl.gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d simtime.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("des: scheduling event %v in the past", d))
	}
	return s.At(s.now.Add(d), fn)
}

// Step fires the next event. It reports false when the queue is empty or the
// simulation has been stopped.
func (s *Sim) Step() bool {
	for len(s.heap) > 0 && !s.stopped {
		idx := s.pop()
		sl := &s.arena[idx]
		if sl.cancelled {
			s.recycle(idx)
			continue
		}
		s.now = sl.at
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
		if s.arena[top.idx].cancelled {
			s.pop()
			s.recycle(top.idx)
			continue
		}
		return top.at, true
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
		if !entLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes the minimum node from the 4-ary heap and returns its arena
// index, sifting down with a hole.
func (s *Sim) pop() int32 {
	h := s.heap
	min := h[0].idx
	last := len(h) - 1
	e := h[last]
	s.heap = h[:last]
	h = s.heap
	n := len(h)
	if n == 0 {
		return min
	}
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return min
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
