package des

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// orderLog hashes (at bits, event id) for each event it is told about, in the
// order it is told.
type orderLog struct {
	h     hash.Hash
	fired int
}

func newOrderLog() *orderLog { return &orderLog{h: sha256.New()} }

func (l *orderLog) fire(at simtime.Time, id uint64) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(float64(at)))
	binary.LittleEndian.PutUint64(b[8:], id)
	l.h.Write(b[:])
	l.fired++
}

func (l *orderLog) line(label string) string {
	return fmt.Sprintf("%s fired=%d sha256=%x\n", label, l.fired, l.h.Sum(nil))
}

// serialScript drives one Sim: it fills the queue with prefill events at
// integer instants, then every firing schedules one or two more at integer
// delays (so many events share an instant) and now and then cancels a random
// handle, live or stale, until budget events have been scheduled. stale holds
// handles from an earlier run on the same queue; cancelling them must do
// nothing. It returns the run's handles and the number of events pending when
// half the budget had fired.
func serialScript(sim *Sim, seed int64, prefill, budget int, stale []Event, log *orderLog) ([]Event, int) {
	rng := rand.New(rand.NewSource(seed))
	handles := append([]Event(nil), stale...)
	next := uint64(0)
	half := -1
	var schedule func(d simtime.Duration)
	schedule = func(d simtime.Duration) {
		if int(next) == budget {
			return
		}
		id := next
		next++
		handles = append(handles, sim.After(d, func() {
			log.fire(sim.Now(), id)
			if log.fired == budget/2 {
				half = sim.Pending()
			}
			switch r := rng.Intn(8); {
			case r == 0:
				schedule(simtime.Duration(rng.Intn(64)))
				schedule(simtime.Duration(rng.Intn(64)))
			case r == 1:
				handles[rng.Intn(len(handles))].Cancel()
				fallthrough
			default:
				schedule(simtime.Duration(rng.Intn(64)))
			}
		}))
	}
	for i := 0; i < prefill; i++ {
		schedule(simtime.Duration(rng.Intn(100)))
	}
	sim.RunUntil(200)
	sim.Run()
	return handles, half
}

// shardScript is one shard's half of the sharded script: like serialScript,
// but a firing may instead send an event to another shard at least one time
// unit (the lookahead) later, which the barrier hook schedules there.
type shardScript struct {
	ps      *ShardedSim
	shard   int
	rng     *rand.Rand
	log     *orderLog
	next    uint64
	budget  uint64
	handles []Event
	outbox  []crossEvent
}

type crossEvent struct {
	to int
	at simtime.Time
	id uint64
}

func (s *shardScript) id() (uint64, bool) {
	if s.next == s.budget {
		return 0, false
	}
	id := uint64(s.shard)<<32 | s.next
	s.next++
	return id, true
}

func (s *shardScript) local(d simtime.Duration) {
	if id, ok := s.id(); ok {
		sim := s.ps.Shard(s.shard)
		s.handles = append(s.handles, sim.After(d, func() { s.fire(id) }))
	}
}

func (s *shardScript) fire(id uint64) {
	sim := s.ps.Shard(s.shard)
	s.log.fire(sim.Now(), id)
	switch r := s.rng.Intn(8); {
	case r == 0:
		s.local(simtime.Duration(s.rng.Intn(32)))
		s.local(simtime.Duration(s.rng.Intn(32)))
	case r == 1:
		s.handles[s.rng.Intn(len(s.handles))].Cancel()
		s.local(simtime.Duration(s.rng.Intn(32)))
	case r < 5:
		if id, ok := s.id(); ok {
			to := (s.shard + 1 + s.rng.Intn(s.ps.Shards()-1)) % s.ps.Shards()
			at := sim.Now().Add(simtime.Duration(1 + s.rng.Intn(32)))
			s.outbox = append(s.outbox, crossEvent{to: to, at: at, id: id})
		}
	default:
		s.local(simtime.Duration(s.rng.Intn(32)))
	}
}

// shardedScript runs the script on a three-shard simulator with lookahead 1
// and a global tick every 10 time units that starts an event on one shard.
// Each shard's firing order is deterministic whichever goroutines run the
// windows; how the shards interleave is not, so the digest is per shard.
func shardedScript(seed int64) string {
	const shards, prefill, budget = 3, 600, 6000
	ps := NewSharded(seed, shards, 1)
	scripts := make([]*shardScript, shards)
	for i := range scripts {
		s := &shardScript{ps: ps, shard: i, rng: rand.New(rand.NewSource(seed + int64(i))),
			log: newOrderLog(), budget: budget}
		scripts[i] = s
		for k := 0; k < prefill; k++ {
			s.local(simtime.Duration(s.rng.Intn(100)))
		}
	}
	ps.OnBarrier(func(simtime.Time) {
		for _, src := range scripts {
			for _, m := range src.outbox {
				dst := scripts[m.to]
				id := m.id
				dst.handles = append(dst.handles, ps.Shard(m.to).At(m.at, func() { dst.fire(id) }))
			}
			src.outbox = src.outbox[:0]
		}
	})
	global := newOrderLog()
	for tick := 1; tick <= 40; tick++ {
		tick := tick
		ps.Global().At(simtime.Time(10*tick), func() {
			global.fire(ps.Now(), uint64(tick))
			scripts[tick%shards].local(0)
		})
	}
	ps.RunUntil(1000)
	var b strings.Builder
	for i, s := range scripts {
		b.WriteString(s.log.line(fmt.Sprintf("shards=3 shard=%d", i)))
	}
	b.WriteString(global.line("shards=3 global"))
	return b.String()
}

// TestFiringOrderGolden pins the event queue's firing order bit for bit
// against testdata/order.golden: the SHA-256 of (instant bits, event id) in
// firing order for a seeded script that keeps over 2,000 events pending at
// integer instants (so many fire at the same instant and the tie-break on
// scheduling order decides), cancels events through live and stale handles,
// runs a second time on the same queue after Reset, and runs on a three-shard
// simulator with cross-shard sends and a global queue. Regenerate
// deliberately with:
//
//	go test ./internal/des -run TestFiringOrderGolden -update
func TestFiringOrderGolden(t *testing.T) {
	const prefill, budget = 2500, 40000
	sim := New(3)
	first := newOrderLog()
	handles, pending := serialScript(sim, 3, prefill, budget, nil, first)
	if pending < 2000 {
		t.Fatalf("first run: %d events pending halfway, want at least 2,000", pending)
	}
	sim.Reset(4)
	second := newOrderLog()
	if _, pending = serialScript(sim, 4, prefill, budget, handles, second); pending < 2000 {
		t.Fatalf("run after Reset: %d events pending halfway, want at least 2,000", pending)
	}
	got := first.line("serial") + second.line("serial after Reset") + shardedScript(5)

	path := filepath.Join("testdata", "order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("firing order drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
