package protocol

import (
	"fmt"
	"testing"

	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

// refHarness is the oracle the pending window is compared against: the
// estimation engine as it was before the window existed, with its pings in
// flight in a map[uint64]pendingPing — an assign per ping, a lookup and a
// delete per answer or timeout, the whole map discarded on abort. It borrows
// identity, clock and alarms from an embedded Harness and none of that
// Harness's pending state. Observability is left out; the scripts run untraced.
type refHarness struct {
	*Harness
	faulty    bool
	nonce     uint64
	pending   map[uint64]pendingPing
	est       Round
	nonces    []uint64
	timeout   des.Event
	roundDone func([]Estimate)
	roundGen  uint64
}

func (r *refHarness) sendPing(peer, idx int, done func(Estimate)) uint64 {
	r.nonce++
	r.pending[r.nonce] = pendingPing{peer: peer, idx: idx, sentAt: r.LocalNow(), done: done}
	r.Net().Send(r.ID(), peer, &TimeReq{Nonce: r.nonce})
	return r.nonce
}

func (r *refHarness) receive(msg network.Message) {
	resp := *msg.Payload.(*TimeResp)
	p, ok := r.pending[resp.Nonce]
	if !ok || p.peer != msg.From {
		return
	}
	delete(r.pending, resp.Nonce)
	if r.faulty {
		return
	}
	now := r.LocalNow()
	if p.idx < 0 {
		p.done(measure(msg.From, p.sentAt, now, resp.Clock, 0))
		return
	}
	if _, ok := r.est.Reply(p.idx, p.sentAt, now, resp.Clock, 0); ok && !r.est.Open() {
		r.timeout.Cancel()
		r.roundDone(r.est.Estimates())
	}
}

func (r *refHarness) Ping(peer int, timeout simtime.Duration, done func(Estimate)) {
	nonce := r.sendPing(peer, -1, done)
	r.ScheduleLocal(timeout, func() {
		if p, still := r.pending[nonce]; still {
			delete(r.pending, nonce)
			p.done(FailedEstimate(peer))
		}
	})
}

func (r *refHarness) PingBest(peer, k int, timeout simtime.Duration, done func(Estimate)) {
	best := FailedEstimate(peer)
	var step func(remaining int)
	step = func(remaining int) {
		r.Ping(peer, timeout, func(e Estimate) {
			if e.OK && (!best.OK || e.A < best.A) {
				best = e
			}
			if remaining == 1 {
				done(best)
				return
			}
			step(remaining - 1)
		})
	}
	step(k)
}

func (r *refHarness) EstimateAll(peers []int, maxWait simtime.Duration, done func([]Estimate)) {
	if r.est.Open() {
		panic("reference: overlapping estimation rounds")
	}
	r.est.Begin(peers)
	if !r.est.Open() {
		done(r.est.Estimates())
		return
	}
	r.roundDone = done
	r.roundGen++
	gen := r.roundGen
	r.nonces = r.nonces[:0]
	for i, peer := range peers {
		r.nonces = append(r.nonces, r.sendPing(peer, i, nil))
	}
	r.timeout = r.ScheduleLocal(maxWait, func() {
		if !r.est.Open() || r.roundGen != gen {
			return
		}
		for _, nonce := range r.nonces {
			delete(r.pending, nonce)
		}
		r.est.Expire()
		r.roundDone(r.est.Estimates())
	})
}

func (r *refHarness) abort() {
	if r.est.Open() {
		r.timeout.Cancel()
		r.est.Abort()
	}
	clear(r.pending)
}

func (r *refHarness) Corrupt(Behavior) { r.faulty = true; r.abort() }
func (r *refHarness) Release()         { r.faulty = false; r.abort() }
func (r *refHarness) Faulty() bool     { return r.faulty }
func (r *refHarness) roundOpen() bool  { return r.est.Open() }

func (h *Harness) roundOpen() bool { return h.est.Open() }

// pinger is what a script drives: the harness under test, or the reference.
type pinger interface {
	EstimateAll(peers []int, maxWait simtime.Duration, done func([]Estimate))
	Ping(peer int, timeout simtime.Duration, done func(Estimate))
	PingBest(peer, k int, timeout simtime.Duration, done func(Estimate))
	receive(network.Message)
	Corrupt(Behavior)
	Release()
	Faulty() bool
	roundOpen() bool
}

// pingWorld is processor 0 — a pinger — among scriptPeers peers that never
// answer by themselves: they record the requests that reach them, and the
// script decides what comes back, from whom, how often and when.
type pingWorld struct {
	sim  *des.Sim
	p    pinger
	seen []seenReq // requests delivered to the peers, in delivery order
	log  []string  // every callback the pinger made, in order
}

type seenReq struct {
	peer  int
	nonce uint64
}

const scriptPeers = 5

func newPingWorld(reference bool) *pingWorld {
	w := &pingWorld{sim: des.New(1)}
	net := network.New(w.sim, network.NewFullMesh(scriptPeers+1), network.ConstantDelay{D: simtime.Millisecond})
	h := NewHarness(0, w.sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1.0001)))
	for id := 1; id <= scriptPeers; id++ {
		id := id
		// These handlers return no payload to the network's free lists.
		net.Register(id, func(m network.Message) {
			w.seen = append(w.seen, seenReq{peer: id, nonce: m.Payload.(*TimeReq).Nonce})
		})
	}
	if reference {
		w.p = &refHarness{Harness: h, pending: make(map[uint64]pendingPing)}
	} else {
		w.p = h
	}
	return w
}

// answer hands the pinger a response as if it had just been delivered. The
// payload is a fresh pointer each time: the harness under test recycles it
// into a free list that never handed it out.
func (w *pingWorld) answer(from int, nonce uint64) {
	w.p.receive(network.Message{From: from, To: 0,
		Payload: &TimeResp{Nonce: nonce, Clock: w.sim.Now().Add(3)}})
}

func (w *pingWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%.6f ", float64(w.sim.Now()))+fmt.Sprintf(format, args...))
}

// The script's opcodes. Every op reads two argument bytes.
const (
	opRound     = iota // EstimateAll over 1 + a%5 peers starting at peer (a/5)%5, unless a round is open
	opPing             // Ping peer 1 + a%5
	opBest             // PingBest peer 1 + a%5, k = 1 + (a/5)%3
	opAnswer           // answer seen request a%len from the peer it reached (twice if b is odd)
	opWrongPeer        // answer seen request a%len under another peer's identity
	opNonce            // answer nonce a (counted back from 2⁶⁴ if b is odd) from peer 1 + b%5
	opFault            // Corrupt if correct, Release if faulty
	opAdvance          // run the simulator for a%48 ms
	opCount
)

// step applies one op. Timeouts are 5–44 ms and links take 1 ms, so a script
// can answer in time, late, or never.
func (w *pingWorld) step(op, a, b byte) {
	peer := 1 + int(a)%scriptPeers
	wait := simtime.Duration(5+int(b)%40) * simtime.Millisecond
	switch op % opCount {
	case opRound:
		if w.p.roundOpen() {
			return
		}
		peers := make([]int, 1+int(a)%scriptPeers)
		for j := range peers {
			peers[j] = 1 + (int(a)/scriptPeers+j)%scriptPeers
		}
		w.p.EstimateAll(peers, wait, func(ests []Estimate) { w.logf("round %v", ests) })
	case opPing:
		w.p.Ping(peer, wait, func(e Estimate) { w.logf("ping %v", e) })
	case opBest:
		w.p.PingBest(peer, 1+(int(a)/scriptPeers)%3, wait, func(e Estimate) { w.logf("best %v", e) })
	case opAnswer:
		if len(w.seen) > 0 {
			r := w.seen[int(a)%len(w.seen)]
			w.answer(r.peer, r.nonce)
			if b%2 == 1 {
				w.answer(r.peer, r.nonce)
			}
		}
	case opWrongPeer:
		if len(w.seen) > 0 {
			r := w.seen[int(a)%len(w.seen)]
			w.answer(1+r.peer%scriptPeers, r.nonce)
		}
	case opNonce:
		nonce := uint64(a)
		if b%2 == 1 {
			nonce = -nonce
		}
		w.answer(1+int(b)%scriptPeers, nonce)
	case opFault:
		if w.p.Faulty() {
			w.p.Release()
		} else {
			w.p.Corrupt(silent{})
		}
	case opAdvance:
		w.sim.RunUntil(w.sim.Now().Add(simtime.Duration(int(a)%48) * simtime.Millisecond))
	}
}

// checkWindow compares the window's contents with the reference map: the
// same nonces live, for the same peers and slots, and nothing else in the
// ring.
func checkWindow(t *testing.T, at int, h *Harness, ref *refHarness) {
	t.Helper()
	w := &h.pend
	if w.next-1 != ref.nonce {
		t.Fatalf("op %d: last nonce %d, reference %d", at, w.next-1, ref.nonce)
	}
	for nonce, want := range ref.pending {
		e := w.lookup(nonce)
		if e == nil || e.peer != want.peer || e.idx != want.idx || e.sentAt != want.sentAt {
			t.Fatalf("op %d: nonce %d: window has %+v, reference %+v", at, nonce, e, want)
		}
	}
	live := 0
	for i := range w.ring {
		if w.ring[i].live {
			live++
		} else if e := w.ring[i]; e.peer != 0 || e.idx != 0 || e.sentAt != 0 || e.sentSim != 0 ||
			e.span != 0 || e.parent != 0 || e.done != nil {
			t.Fatalf("op %d: dead slot %d still holds %+v", at, i, w.ring[i])
		}
	}
	if live != len(ref.pending) {
		t.Fatalf("op %d: %d live slots, reference holds %d", at, live, len(ref.pending))
	}
	if span := int(w.next - w.base); span > len(w.ring) || (live == 0 && span != 0) {
		t.Fatalf("op %d: window [%d,%d) over a ring of %d with %d live", at, w.base, w.next, len(w.ring), live)
	}
}

// runPendingScript drives the harness and the reference through the same
// script in lockstep and requires the same state after every op and, once
// every timeout has fired, the same callbacks with the same estimates in the
// same order.
func runPendingScript(t *testing.T, script []byte) {
	t.Helper()
	got, want := newPingWorld(false), newPingWorld(true)
	h, ref := got.p.(*Harness), want.p.(*refHarness)
	for i := 0; i+2 < len(script); i += 3 {
		got.step(script[i], script[i+1], script[i+2])
		want.step(script[i], script[i+1], script[i+2])
		if h.roundOpen() != ref.roundOpen() || h.Faulty() != ref.Faulty() || len(got.seen) != len(want.seen) {
			t.Fatalf("op %d: round open %v/%v, faulty %v/%v, %d/%d requests seen", i/3,
				h.roundOpen(), ref.roundOpen(), h.Faulty(), ref.Faulty(), len(got.seen), len(want.seen))
		}
		checkWindow(t, i/3, h, ref)
	}
	got.sim.Run()
	want.sim.Run()
	checkWindow(t, len(script)/3, h, ref)
	if h.pend.base != h.pend.next {
		t.Fatalf("drained run left window [%d,%d) open", h.pend.base, h.pend.next)
	}
	for i := 0; i < len(got.log) || i < len(want.log); i++ {
		if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
			t.Fatalf("callback %d differs (%d made, reference %d):\n got: %v\nwant: %v",
				i, len(got.log), len(want.log), got.log[i:min(i+1, len(got.log))], want.log[i:min(i+1, len(want.log))])
		}
	}
}

// pendingScripts is the fuzz seed corpus, and under plain `go test` a table
// test (FuzzPendingWindow/seed#i runs script i): one script per behaviour the
// window must share with the map.
var pendingScripts = [][]byte{
	// 0: round answered in order
	{opRound, 4, 30, opAdvance, 2, 0, opAnswer, 0, 0, opAnswer, 1, 0, opAnswer, 2, 0, opAnswer, 3, 0, opAnswer, 4, 0},
	// 1: round answered out of order, with duplicates
	{opRound, 4, 30, opAdvance, 2, 0, opAnswer, 3, 1, opAnswer, 0, 1, opAnswer, 4, 0, opAnswer, 1, 1, opAnswer, 2, 0, opAnswer, 2, 0},
	// 2: the right nonce from the wrong peer does not consume the entry
	{opRound, 2, 30, opAdvance, 2, 0, opWrongPeer, 0, 0, opWrongPeer, 1, 0, opAnswer, 0, 0, opAnswer, 1, 0, opAnswer, 2, 0},
	// 3: a partial round expires; answers after that are ignored
	{opRound, 4, 10, opAdvance, 2, 0, opAnswer, 1, 0, opAdvance, 20, 0, opAnswer, 0, 0, opAnswer, 2, 0},
	// 4: nonces from a finished round, sent into the next one
	{opRound, 1, 10, opAdvance, 2, 0, opAnswer, 0, 0, opAnswer, 1, 0, opRound, 1, 10, opAnswer, 0, 0, opAnswer, 1, 0, opAdvance, 2, 0, opAnswer, 2, 0, opAnswer, 3, 0},
	// 5: corruption mid-round aborts it, and its nonces stay dead after release
	{opRound, 4, 30, opAdvance, 2, 0, opAnswer, 0, 0, opFault, 0, 0, opAnswer, 1, 0, opAdvance, 40, 0, opFault, 0, 0, opAnswer, 2, 0, opRound, 2, 10, opAdvance, 2, 0, opAnswer, 5, 0},
	// 6: release mid-round aborts what ran while the adversary was in
	{opFault, 0, 0, opRound, 2, 30, opPing, 0, 30, opAdvance, 2, 0, opAnswer, 0, 0, opFault, 0, 0, opAnswer, 1, 0, opAnswer, 3, 0, opAdvance, 47, 0},
	// 7: one standalone ping stays live across three rounds
	{opPing, 0, 39, opRound, 4, 5, opAdvance, 2, 0, opAnswer, 1, 0, opAdvance, 10, 0, opRound, 9, 5, opAdvance, 10, 0, opRound, 4, 5, opAdvance, 2, 0, opAnswer, 0, 0, opAdvance, 47, 0},
	// 8: a ping times out and the late answer is ignored
	{opPing, 2, 0, opAdvance, 10, 0, opAnswer, 0, 0},
	// 9: best of three — answer, timeout, answer
	{opBest, 10, 5, opAdvance, 2, 0, opAnswer, 0, 0, opAdvance, 20, 0, opAdvance, 2, 0, opAnswer, 2, 0},
	// 10: nonces never sent — zero, the next one, far ahead, counted back from 2⁶⁴
	{opRound, 4, 30, opNonce, 0, 0, opNonce, 6, 0, opNonce, 7, 2, opNonce, 1, 1, opNonce, 0, 1, opNonce, 200, 3, opAdvance, 2, 0, opAnswer, 0, 0},
	// 11: pings interleaved with a round, answered newest first
	{opPing, 0, 30, opRound, 3, 30, opPing, 1, 30, opBest, 7, 30, opAdvance, 2, 0, opAnswer, 6, 0, opAnswer, 5, 0, opAnswer, 4, 0, opAnswer, 3, 0, opAnswer, 2, 0, opAnswer, 1, 0, opAnswer, 0, 0},
}

// FuzzPendingWindow interleaves rounds, standalone pings, best-of-k pings,
// answers in and out of order, duplicates, forged identities, dead and
// never-sent nonces, break-ins, releases and timeouts, and compares the
// nonce-indexed window against the map reference callback for callback.
func FuzzPendingWindow(f *testing.F) {
	for _, script := range pendingScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*512 {
			script = script[:3*512]
		}
		runPendingScript(t, script)
	})
}

// TestPendingWindowStaysBounded: a background cache sweeps its peers faster
// than its pings time out, and one peer never answers — so a ping to it is
// always in flight and the window never empties. Its front must still follow
// the oldest live ping: the ring holds what is sent within one timeout, not
// what was sent since the run began.
func TestPendingWindowStaysBounded(t *testing.T) {
	const peers = 7
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(peers+1), network.ConstantDelay{D: simtime.Millisecond})
	hs := make([]*Harness, peers+1)
	for i := range hs {
		hs[i] = NewHarness(i, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	}
	hs[peers].Corrupt(silent{})
	targets := make([]int, peers)
	for i := range targets {
		targets[i] = i + 1
	}
	refresh, maxWait := 100*simtime.Millisecond, 250*simtime.Millisecond
	cache := NewEstimateCache(hs[0], targets, refresh, maxWait)
	cache.Start()
	// A Sync-style round every second on top, over a peer subset.
	var round func()
	round = func() {
		hs[0].ScheduleLocal(simtime.Second, round)
		hs[0].EstimateAll(targets[:4], maxWait, func([]Estimate) {})
	}
	sim.At(0, round)
	maxLive := 0
	des.NewTicker(sim, refresh/2, func(simtime.Time) {
		if live := int(hs[0].pend.next - hs[0].pend.base); live > maxLive {
			maxLive = live
		}
	})
	sim.RunUntil(simtime.Time(10 * simtime.Minute))
	if cache.Sweeps() < 5000 {
		t.Fatalf("only %d sweeps ran", cache.Sweeps())
	}
	if maxLive == 0 {
		t.Fatal("the window was never observed open — the silent peer answered?")
	}
	// Three sweeps and a round fit in one timeout: at most 3·7+4 pings between
	// the oldest live one and the newest, so the ring never passes 32 slots —
	// after 6,000 sweeps and 42,000 pings.
	if got := len(hs[0].pend.ring); got != 32 {
		t.Errorf("ring grew to %d slots (window peaked at %d), want 32", got, maxLive)
	}
}
