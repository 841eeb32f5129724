// Package livenet runs the Sync protocol over a real network in real time.
// It is the deployable counterpart of the simulator: each Node owns a
// datagram Transport (UDP in production, an in-process memory fabric in
// tests and chaos runs), answers authenticated time requests, and
// disciplines a local clock by driving the same Sync round machine
// (core.Round) the simulation drives.
//
// Authenticated links (§2.2) are realized with HMAC-SHA256 over a shared
// key; messages that fail authentication are dropped before they reach the
// protocol. For demonstrations, a Node can simulate a hardware offset and
// drift on top of the host clock, so a loopback cluster exhibits the same
// convergence the paper analyzes.
//
// The live path is built to survive the same adversities the analysis
// covers: per-round retransmission with jittered exponential backoff inside
// MaxWait (RetryConfig), peer-health tracking that degrades gracefully to
// the 3f+1 quorum when peers go dark, and WayOff-based re-join after a
// crash — all observable through the obs counters and event stream, and all
// testable deterministically through FaultTransport (see chaos.go).
package livenet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// OpsConfig groups a node's operational settings — how it is observed and
// logged — separate from the wire/protocol settings that must agree across a
// cluster. Everything here is per-deployment and changing it never affects
// interoperability.
type OpsConfig struct {
	// MetricsAddr, when non-empty, starts an HTTP listener there when the
	// node Runs, serving GET /metrics (Prometheus text), GET /status and
	// /statusz (the node's Statusz document) and the /debug/pprof profiling
	// endpoints. Use "127.0.0.1:0" for an OS-assigned port (read it back via
	// Node.MetricsAddr after Run starts).
	MetricsAddr string

	// Observer receives the node's structured event stream (round, skip,
	// authfail, timeout, peerdark/peerbright events). Nil disables event
	// emission. Counters are always kept, per node, in Node.Metrics — the
	// observer's own Recorder is not written by livenet, so one observer can
	// safely serve a whole cluster's events.
	Observer *obs.Observer

	// SpanBuffer, when positive, keeps the node's most recent spans in an
	// in-memory ring served as JSON on GET /spanz of the metrics endpoint —
	// the surface the fleet telemetry scraper (internal/telemetry, syncmon)
	// joins cross-node spans from. Setting it enables span emission: when
	// Observer is nil a private observer is created for the ring. With a
	// shared multi-node Observer the ring sees every node's spans (the
	// scraper dedupes by (node, span)); per-node observers keep /spanz
	// per-node, which is the fleet-realistic shape.
	SpanBuffer int

	// Logf receives diagnostic output; nil silences the node.
	Logf func(format string, args ...any)
}

// validate checks the operational settings.
func (o OpsConfig) validate() error {
	if o.MetricsAddr != "" {
		if err := validateHostPort("Ops.MetricsAddr", o.MetricsAddr); err != nil {
			return err
		}
	}
	if o.SpanBuffer < 0 {
		return fmt.Errorf("livenet: Ops.SpanBuffer %d is negative (0 disables the /spanz ring)", o.SpanBuffer)
	}
	return nil
}

// Config parameterizes a live node. The first block is the wire/protocol
// configuration every cluster member must agree on for the §3.2 analysis to
// apply; Ops holds the purely operational settings; the Sim* fields
// synthesize a faulty hardware clock for demonstrations.
type Config struct {
	// Wire/protocol settings.
	ID     int
	F      int            // per-period fault budget; the cluster must satisfy n ≥ 3f+1
	Listen string         // UDP listen address, e.g. "127.0.0.1:9000" (ignored when Transport is set)
	Peers  map[int]string // peer id → address (excluding self)

	SyncInt time.Duration // wall time between Sync executions (≥ 2·MaxWait)
	MaxWait time.Duration // estimation timeout
	WayOff  time.Duration // own-clock rejection threshold

	// Key enables HMAC authentication when non-empty. All nodes must share
	// it; without it the "authenticated links" assumption of §2.2 is void.
	Key []byte

	// Transport, when non-nil, carries the node's datagrams instead of a
	// fresh UDP socket on Listen — the seam that lets tests and chaos runs
	// put a whole cluster in one process (MemNetwork) or inject faults
	// (FaultTransport). The node owns the transport and closes it when Run
	// returns.
	Transport Transport

	// Retry configures per-round retransmission with jittered exponential
	// backoff inside MaxWait. The zero value selects the defaults; see
	// RetryConfig.
	Retry RetryConfig

	// DarkAfter is the number of consecutive rounds a peer may fail before
	// it is considered dark: rounds stop waiting for dark peers (beyond a
	// short grace) and degrade gracefully to the answering quorum, while a
	// single probe per round lets the peer rejoin the moment it answers.
	// 0 selects the default (3); negative values are rejected.
	DarkAfter int

	// Serve configures the client-facing time service: a dedicated UDP
	// address or Transport answering 4-timestamp queries (see serve.go).
	// The zero value disables the dedicated endpoint; queries arriving on
	// the sync transport are always answered either way.
	Serve ServeConfig

	// Operational settings (metrics endpoint, event observer, logging).
	Ops OpsConfig

	// SimOffset and SimDriftPPM synthesize a faulty hardware clock on top of
	// the host clock, for demonstrations: the node's clock starts SimOffset
	// away from host time and drifts by SimDriftPPM microseconds per second.
	SimOffset   time.Duration
	SimDriftPPM float64
}

// defaultDarkAfter is the consecutive-failure threshold when DarkAfter is 0.
const defaultDarkAfter = 3

// validateHostPort rejects addresses whose port part is missing, non-numeric
// or outside [0, 65535] (0 is the documented "OS-assigned" value).
func validateHostPort(field, addr string) error {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("livenet: %s %q is not host:port: %v", field, addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("livenet: %s %q has non-numeric port %q", field, addr, port)
	}
	if p < 0 || p > 65535 {
		return fmt.Errorf("livenet: %s %q has port %d outside [0, 65535] (0 = OS-assigned)", field, addr, p)
	}
	return nil
}

// checkWireID rejects an id the sync wire's 4-byte from field cannot carry.
func checkWireID(what string, id int) error {
	if id < 0 || uint64(id) > math.MaxUint32 {
		return fmt.Errorf("livenet: %s id %d outside the wire's [0, 2³²−1]", what, id)
	}
	return nil
}

// Validate checks the configuration, returning actionable errors naming the
// offending field. New calls it; callers constructing configs
// programmatically can call it early to fail before sockets are opened.
func (c *Config) Validate() error {
	if c.SyncInt <= 0 {
		return fmt.Errorf("livenet: SyncInt %v must be positive (wall time between Sync executions, e.g. 2s)", c.SyncInt)
	}
	if c.MaxWait <= 0 {
		return fmt.Errorf("livenet: MaxWait %v must be positive (estimation timeout, e.g. 500ms)", c.MaxWait)
	}
	if c.WayOff <= 0 {
		return fmt.Errorf("livenet: WayOff %v must be positive (own-clock rejection threshold; Theorem 5 suggests Δ+ε)", c.WayOff)
	}
	if c.SyncInt < 2*c.MaxWait {
		return fmt.Errorf("livenet: SyncInt %v < 2·MaxWait %v violates §3.2 — raise SyncInt or lower MaxWait", c.SyncInt, c.MaxWait)
	}
	if err := c.Retry.validate(c.MaxWait); err != nil {
		return err
	}
	if c.DarkAfter < 0 {
		return fmt.Errorf("livenet: DarkAfter %d is negative (0 selects the default of %d)", c.DarkAfter, defaultDarkAfter)
	}
	if c.F < 0 {
		return fmt.Errorf("livenet: negative fault budget f=%d", c.F)
	}
	if err := checkWireID("node", c.ID); err != nil {
		return err
	}
	for id := range c.Peers {
		if err := checkWireID("peer", id); err != nil {
			return err
		}
	}
	if c.Transport == nil {
		if c.Listen == "" {
			return errors.New(`livenet: Listen address required (use "127.0.0.1:0" for an OS-assigned port)`)
		}
		if err := validateHostPort("Listen", c.Listen); err != nil {
			return err
		}
		for id, addr := range c.Peers {
			if err := validateHostPort(fmt.Sprintf("peer %d address", id), addr); err != nil {
				return err
			}
		}
	}
	if err := c.Ops.validate(); err != nil {
		return err
	}
	if err := c.Serve.validate(); err != nil {
		return err
	}
	if _, dup := c.Peers[c.ID]; dup {
		return fmt.Errorf("livenet: peer table contains this node's own id %d — list only the other members", c.ID)
	}
	if len(c.Peers) > 0 && len(c.Peers)+1 < 3*c.F+1 {
		return fmt.Errorf("livenet: cluster size n=%d does not satisfy n ≥ 3f+1 for f=%d — add peers or lower F",
			len(c.Peers)+1, c.F)
	}
	return nil
}

// Node is a live Sync participant.
type Node struct {
	cfg     Config
	tr      Transport
	serveTr Transport // dedicated time-serving endpoint (nil unless configured)
	start   time.Time
	rec     *obs.Recorder
	snap    snapPtr // published Reading snapshot (reading.go)

	spanRing *obs.SpanRing // recent spans for /spanz (nil unless Ops.SpanBuffer > 0)

	mu          sync.Mutex
	peers       []peerRecord // the peer table, sorted by id
	adj         time.Duration
	nonce       uint64
	pending     map[uint64]pendingPing
	syncs       int
	last        time.Duration
	lastRound   core.Outcome // most recent round's verdict, decided at lastRoundAt
	lastRoundAt time.Time    // zero before the first round
	metricsAddr string

	// round is the Sync round machine this node drives; ids, targets and
	// nonces are the driver's per-round buffers, and signer signs its
	// queries. All belong to the sync goroutine and are reused from round to
	// round.
	round   *core.Round
	ids     []int
	targets []roundTarget
	nonces  []uint64
	signer  *syncSigner

	wg sync.WaitGroup
}

// peerRecord is everything the node keeps about one peer: its address, what
// its exchanges measured, and its health — consecutive round failures and
// whether it has been written off as dark.
type peerRecord struct {
	id          int
	addr        string
	lastOffset  time.Duration // last measured C_peer − C_self
	lastSeen    float64       // Unix seconds at the last reply's receipt; 0 before the first
	replies     int
	failures    int
	consecFails int
	dark        bool // probed but not awaited
}

// pendingPing maps a wire nonce back to the round slot it asked about.
type pendingPing struct {
	peer     int
	slot     int     // the peer's slot in the round machine
	attempt  int     // 1-based send attempt within the round
	sentUnix float64 // wall time at send (span timebase)
	span     obs.SpanID
	parent   obs.SpanID
	ch       chan<- liveReply
}

// liveReply is one authenticated answer on its way from the read loop to the
// round that asked: the ping it answers, the peer's reported clock C (Unix
// nanoseconds), the local clock reading R at receipt and the wall time then.
type liveReply struct {
	pendingPing
	clock    int64
	recv     time.Time
	recvUnix float64
}

// unixSec is t in Unix seconds, the timebase of live events and spans.
func unixSec(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// unixNow is the wall clock in Unix seconds.
func unixNow() float64 { return unixSec(time.Now()) }

// wallDuration converts the machine's seconds to wall time.
func wallDuration(d simtime.Duration) time.Duration {
	return time.Duration(float64(d) * float64(time.Second))
}

// New opens the node's transport (UDP on cfg.Listen unless cfg.Transport is
// provided) and records its peer table.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		var err error
		tr, err = NewUDPTransport(cfg.Listen)
		if err != nil {
			return nil, err
		}
	}
	var serveTr Transport
	if cfg.Serve.enabled() {
		serveTr = cfg.Serve.Transport
		if serveTr == nil {
			var err error
			serveTr, err = NewUDPTransport(cfg.Serve.Addr)
			if err != nil {
				tr.Close()
				return nil, err
			}
		}
	}
	var spanRing *obs.SpanRing
	if cfg.Ops.SpanBuffer > 0 {
		// The /spanz ring needs span emission: attach it to the configured
		// observer, or to a private one when the caller did not provide any.
		spanRing = obs.NewSpanRing(cfg.Ops.SpanBuffer)
		if cfg.Ops.Observer == nil {
			cfg.Ops.Observer = obs.NewObserver()
		}
		cfg.Ops.Observer.AddSpanSink(spanRing)
	}
	n := &Node{
		cfg:      cfg,
		tr:       tr,
		serveTr:  serveTr,
		spanRing: spanRing,
		start:    time.Now(),
		// Counters are always per-node (the /metrics endpoint labels them by
		// id); Ops.Observer receives only the event stream.
		rec:     obs.NewRecorder(),
		pending: make(map[uint64]pendingPing),
		round:   core.NewRound(cfg.ID, cfg.F, simtime.Duration(cfg.WayOff.Seconds())),
		signer:  newSyncSigner(cfg.Key),
	}
	// Before the first round the node can only vouch for its clock to
	// within WayOff (anything worse would be rejected as its own): publish
	// that as the epoch-0 prior so Read and the serve path work from birth.
	n.publishReading(cfg.WayOff)
	if err := n.installPeers(cfg.Peers); err != nil {
		n.closeTransports()
		return nil, err
	}
	return n, nil
}

// installPeers vets peers' addresses and installs them as the peer table. A
// peer that stays in the table keeps its record under its (possibly new)
// address; a new peer starts from zero.
func (n *Node) installPeers(peers map[int]string) error {
	checker, _ := n.tr.(addrChecker)
	table := make([]peerRecord, 0, len(peers))
	for id, a := range peers {
		if err := checkWireID("peer", id); err != nil {
			return err
		}
		if checker != nil {
			if err := checker.CheckAddr(a); err != nil {
				return fmt.Errorf("livenet: peer %d (%s): %w", id, a, err)
			}
		}
		table = append(table, peerRecord{id: id, addr: a})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].id < table[j].id })
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range table {
		if old := n.peer(table[i].id); old != nil {
			old.addr = table[i].addr
			table[i] = *old
		}
	}
	n.peers = table
	return nil
}

// peer returns the record of peer id, or nil when id is not in the table.
// The caller holds n.mu.
func (n *Node) peer(id int) *peerRecord {
	i := sort.Search(len(n.peers), func(i int) bool { return n.peers[i].id >= id })
	if i < len(n.peers) && n.peers[i].id == id {
		return &n.peers[i]
	}
	return nil
}

// closeTransports releases the node's transports (sync and, when
// configured, the dedicated serve endpoint).
func (n *Node) closeTransports() {
	n.tr.Close()
	if n.serveTr != nil {
		n.serveTr.Close()
	}
}

// Close releases the node's sockets without running it — the cleanup path
// for a node that was built (New) but never started, or whose Run was never
// reached. A node that is running shuts down by cancelling Run's context,
// which closes the sockets itself; calling Close afterwards is harmless.
func (n *Node) Close() error {
	n.closeTransports()
	return nil
}

// Metrics returns the node's counter recorder. It is live: scraping it (or
// reading counters in tests) reflects the node's current totals.
func (n *Node) Metrics() *obs.Recorder { return n.rec }

// emit sends a structured event to the configured observer, stamping it with
// Unix time in seconds. No-op when no observer is configured.
func (n *Node) emit(kind string, fields map[string]float64) {
	o := n.cfg.Ops.Observer
	if o == nil {
		return
	}
	o.Emit(obs.Event{
		At:     unixNow(),
		Kind:   kind,
		Node:   n.cfg.ID,
		Fields: fields,
	})
}

// ServeMetrics starts the node's observability endpoint on addr: GET
// /metrics in Prometheus text format (counters labeled node="<id>"), GET
// /status and /statusz with the Statusz document, and the net/http/pprof
// endpoints under /debug/pprof/. It returns the bound address; the server
// stops when ctx is cancelled. Run calls this automatically when
// Ops.MetricsAddr is set.
func (n *Node) ServeMetrics(ctx context.Context, addr string) (string, error) {
	labels := fmt.Sprintf("node=%q", fmt.Sprint(n.cfg.ID))
	mux := obs.NewMux(func(w http.ResponseWriter) error {
		return n.rec.WriteProm(w, labels)
	})
	n.registerTelemetry(mux) // /status, /statusz, /read, /spanz (statusz.go)
	bound, err := obs.Serve(ctx, &n.wg, addr, mux)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.metricsAddr = bound
	n.mu.Unlock()
	return bound, nil
}

// MetricsAddr returns the bound address of the observability endpoint, or ""
// when none is serving.
func (n *Node) MetricsAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metricsAddr
}

// Addr returns the node's bound transport address.
func (n *Node) Addr() string { return n.tr.LocalAddr() }

// SetPeers installs or replaces the peer table. It must be called before
// Run when the configuration could not know peer addresses up front (e.g.
// OS-assigned ports). The resulting cluster must satisfy n ≥ 3f+1.
func (n *Node) SetPeers(peers map[int]string) error {
	if len(peers)+1 < 3*n.cfg.F+1 {
		return fmt.Errorf("livenet: n=%d does not satisfy n ≥ 3f+1 for f=%d", len(peers)+1, n.cfg.F)
	}
	return n.installPeers(peers)
}

// localClock returns the node's logical clock as an offset from the host
// clock: simulated hardware error plus the protocol's adjustment. (Returning
// the offset rather than an absolute time keeps the arithmetic exact.)
func (n *Node) localClock() time.Duration {
	elapsed := time.Since(n.start)
	drift := time.Duration(float64(elapsed) * n.cfg.SimDriftPPM * 1e-6)
	n.mu.Lock()
	adj := n.adj
	n.mu.Unlock()
	return n.cfg.SimOffset + drift + adj
}

// clockNow returns the node's disciplined clock reading, exact under the
// protocol mutex — the timestamp source for the sync wire (request answers
// and the S/R instants of §3.1 estimation). The serving read path uses the
// published snapshot instead (Read).
func (n *Node) clockNow() time.Time { return time.Now().Add(n.localClock()) }

// Offset returns the node's current clock offset from the host clock — the
// live analogue of the simulator's bias, measurable because the demo knows
// the host clock is the reference.
func (n *Node) Offset() time.Duration { return n.localClock() }

// InjectOffset shifts the node's disciplined clock by d. It is the
// state-loss hook of the chaos harness: a crash window ends with the node
// restarting on a cold clock, modeled as a sudden injected offset the
// WayOff recovery logic must then pull back into the good envelope.
func (n *Node) InjectOffset(d time.Duration) {
	n.mu.Lock()
	n.adj += d
	n.mu.Unlock()
	// The published snapshot just became wrong by exactly |d|: republish
	// with the injected error folded into the uncertainty so readings stay
	// honest until the next round re-disciplines the clock.
	unc := n.snap.Load().at(time.Now()).Uncertainty
	if d < 0 {
		d = -d
	}
	n.publishReading(unc + d)
}

// Syncs returns the number of completed Sync executions.
func (n *Node) Syncs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.syncs
}

// Run serves requests and executes the Sync loop until ctx is cancelled.
func (n *Node) Run(ctx context.Context) error {
	n.mu.Lock()
	nPeers := len(n.peers)
	n.mu.Unlock()
	if nPeers+1 < 3*n.cfg.F+1 {
		return fmt.Errorf("livenet: n=%d does not satisfy n ≥ 3f+1 for f=%d", nPeers+1, n.cfg.F)
	}
	if n.cfg.Ops.MetricsAddr != "" && n.MetricsAddr() == "" {
		bound, err := n.ServeMetrics(ctx, n.cfg.Ops.MetricsAddr)
		if err != nil {
			return err
		}
		n.logf("metrics endpoint at http://%s/metrics", bound)
	}
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		n.readLoop(ctx)
	}()
	go func() {
		defer n.wg.Done()
		n.syncLoop(ctx)
	}()
	if n.serveTr != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveLoop()
		}()
		n.logf("serving time queries on %s", n.serveTr.LocalAddr())
	}
	<-ctx.Done()
	n.closeTransports() // unblocks the read and serve loops
	n.wg.Wait()
	return ctx.Err()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Ops.Logf != nil {
		n.cfg.Ops.Logf(format, args...)
	}
}

// readLoop answers time requests and routes responses to pending pings.
func (n *Node) readLoop(ctx context.Context) {
	buf := make([]byte, 2048)
	scratch := make([]byte, ServeReplyMaxSize)
	// This goroutine's signer: it verifies every sync packet and signs the
	// answers to queries.
	signer := newSyncSigner(n.cfg.Key)
	for {
		nr, from, err := n.tr.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) || errors.Is(err, ErrClosed) {
				return
			}
			n.logf("read error: %v", err)
			continue
		}
		n.receive(buf[:nr], from, scratch, signer)
	}
}

// receive handles one datagram from the sync socket. Serve and sync packets
// share the socket and the "CS" header; the mode byte sends each to its own
// decoder (serve.go, wire.go). Every datagram the sync decoder refuses —
// wrong length, unknown version or mode, a JSON datagram of the retired
// wire — is counted in MessagesDropped, and one that fails authentication in
// AuthFailures as well. scratch and signer belong to the calling goroutine.
func (n *Node) receive(b []byte, from string, scratch []byte, signer *syncSigner) {
	switch packetMode(b) {
	case serveModeQuery, serveModeReply:
		n.answerServe(b, from, scratch, n.tr)
		return
	}
	msg, tag, err := decodeSync(b)
	if err != nil {
		n.rec.MessagesDropped.Inc()
		return
	}
	if !signer.verify(msg, tag) {
		n.rec.AuthFailures.Inc()
		n.rec.MessagesDropped.Inc()
		n.emit(obs.KindAuthFail, map[string]float64{"from": float64(msg.from)})
		n.logf("dropping unauthenticated message from %v", from)
		return
	}
	n.rec.MessagesReceived.Inc()
	if msg.reply {
		n.handleResponse(msg)
	} else {
		n.answer(msg, from, signer)
	}
}

// answer replies to a time request with the current clock — always the
// current clock, per the paper's roundless design. A traced request (span
// ≠ 0) additionally records this node's half of the exchange as a
// zero-duration "reply" span under the requester's propagated span ID, with
// the reported clock value, this node's own uncertainty interval and epoch —
// the responder-side data the fleet aggregator joins against the requester's
// estimate span.
func (n *Node) answer(req syncMsg, from string, signer *syncSigner) {
	resp := syncMsg{
		reply: true,
		from:  uint32(n.cfg.ID),
		nonce: req.nonce,
		clock: n.clockNow().UnixNano(),
	}
	n.send(signer, resp, from)
	if req.span != 0 {
		if o := n.cfg.Ops.Observer; o.SpansEnabled() {
			r := n.Read()
			nowU := unixNow()
			o.EmitSpan(obs.Span{
				ID: obs.SpanID(req.span), Name: obs.SpanReply, Node: n.cfg.ID,
				Start: nowU, End: nowU,
				Fields: obs.F("origin", float64(req.from)).
					F("origin_epoch", float64(req.epoch)).
					F("node_time", float64(resp.clock)/1e9).
					F("unc", r.Uncertainty.Seconds()).
					F("epoch", float64(r.Epoch)),
			})
		}
	}
}

// send signs msg with the calling goroutine's signer and writes it to to.
func (n *Node) send(signer *syncSigner, msg syncMsg, to string) {
	if err := n.tr.WriteTo(signer.encode(msg), to); err != nil {
		n.rec.MessagesDropped.Inc()
		n.logf("send to %v failed: %v", to, err)
		return
	}
	n.rec.MessagesSent.Inc()
}

// handleResponse routes an answer to the round that asked. The nonce must be
// outstanding and must have been sent to the peer now answering it — checked
// before the entry is consumed, so a peer echoing other peers' nonces under
// its own id cancels nothing. A reply that fails either check — a replay, a
// late duplicate, an answer from the wrong peer — is counted in
// RepliesRefused. The reply is queued under the lock: once a round has
// purged its nonces, nothing more can reach its queue.
func (n *Node) handleResponse(msg syncMsg) {
	now := time.Now()
	rp := liveReply{clock: msg.clock, recv: now.Add(n.localClock()), recvUnix: unixSec(now)}
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pending[msg.nonce]
	if !ok || p.peer != int(msg.from) {
		n.rec.RepliesRefused.Inc()
		return
	}
	delete(n.pending, msg.nonce)
	rp.pendingPing = p
	select {
	case p.ch <- rp:
	default:
	}
}

// syncLoop runs one Sync every SyncInt.
func (n *Node) syncLoop(ctx context.Context) {
	ticker := time.NewTicker(n.cfg.SyncInt)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			n.runSync(ctx)
		}
	}
}

// roundTarget is one peer's driver-side state within a single Sync round;
// its index in Node.targets is its slot in the round machine.
type roundTarget struct {
	id       int
	addr     string
	dark     bool
	attempts int
}

// runSync drives one round of the machine over the transport. Bright
// (healthy) peers are retransmitted to on the retry schedule and the round
// waits for all of them (or MaxWait); dark peers get a single probe and a
// short grace so they can rejoin, but cannot stall the round — that is the
// graceful degradation to whatever quorum is still answering. When every
// peer is dark the degradation rationale vanishes and the round reverts to
// full MaxWait + retries, so an isolated node can find its way back.
func (n *Node) runSync(ctx context.Context) {
	o := n.cfg.Ops.Observer
	var roundSpan obs.SpanID
	var roundStart float64
	var roundEpoch uint64
	if o.SpansEnabled() {
		roundSpan = o.NextSpanID()
		roundStart = unixNow()
		roundEpoch = uint64(n.Syncs())
	}

	// Snapshot the peer table, kept in id order; a target's index is its
	// slot.
	ids, targets, bright := n.ids[:0], n.targets[:0], 0
	n.mu.Lock()
	for _, p := range n.peers {
		ids = append(ids, p.id)
		targets = append(targets, roundTarget{id: p.id, addr: p.addr, dark: p.dark})
		if !p.dark {
			bright++
		}
	}
	n.mu.Unlock()
	n.ids, n.targets, n.nonces = ids, targets, n.nonces[:0]
	n.round.Begin(ids)

	retryCfg := n.cfg.Retry.withDefaults(n.cfg.MaxWait)
	// Sized to the sends of one round: each outstanding nonce is answered at
	// most once, so the read loop never finds the queue full.
	ch := make(chan liveReply, len(targets)*retryCfg.Attempts)
	sentAt := n.clockNow() // local clock reading S; attempts share the send instant
	sentUnix := unixNow()

	// sendPing transmits one request to a slot's peer and registers the
	// pending entry routing its response. Estimates computed from a
	// retransmission reuse the original send instant S, so a reply to attempt
	// k yields a pessimistic-but-safe error bound a = (R−S)/2 (the true offset
	// is always inside [D−a, D+a]; §3.1's analysis only needs the interval to
	// contain it).
	sendPing := func(slot int) {
		t := &targets[slot]
		t.attempts++
		var span obs.SpanID
		if roundSpan != 0 {
			span = o.NextSpanID()
		}
		n.mu.Lock()
		n.nonce++
		nonce := n.nonce
		n.pending[nonce] = pendingPing{
			peer: t.id, slot: slot, attempt: t.attempts, sentUnix: sentUnix,
			span: span, parent: roundSpan, ch: ch,
		}
		n.mu.Unlock()
		n.nonces = append(n.nonces, nonce)
		n.round.Sent(slot, span)
		// Traced queries carry the estimate span's ID and this node's epoch
		// in the trace trailer so the responder's reply span joins to ours;
		// untraced queries (span 0) go without it.
		n.send(n.signer, syncMsg{
			from: uint32(n.cfg.ID), nonce: nonce,
			traced: span != 0, span: uint64(span), epoch: roundEpoch,
		}, t.addr)
	}
	// reply feeds one queued answer to the machine, S being the origin of the
	// timebase, and records what the exchange measured. The machine refuses
	// duplicates (a retransmission answered twice, an injected dup).
	reply := func(rp liveReply) {
		rtt := rp.recv.Sub(sentAt)
		c := time.Unix(0, rp.clock).Sub(sentAt)
		est, ok := n.round.Reply(rp.slot, 0, simtime.Time(rtt.Seconds()), simtime.Time(c.Seconds()), rp.span)
		if !ok {
			return
		}
		if !targets[rp.slot].dark {
			bright--
		}
		n.rec.RTT.Observe(rtt.Seconds())
		n.rec.EstError.Observe(float64(est.A))
		if rp.span != 0 {
			o.EmitSpan(obs.Span{
				ID: rp.span, Parent: rp.parent, Name: obs.SpanEstimate, Node: n.cfg.ID,
				Start: rp.sentUnix, End: rp.recvUnix,
				Fields: obs.F("peer", float64(rp.peer)).
					F("d", float64(est.D)).
					F("a", float64(est.A)).
					F("rtt", rtt.Seconds()).
					F("attempt", float64(rp.attempt)).
					F("ok", 1),
			})
		}
		n.mu.Lock()
		if p := n.peer(rp.peer); p != nil {
			p.lastOffset, p.lastSeen = wallDuration(est.D), rp.recvUnix
			p.replies++
		}
		n.mu.Unlock()
	}

	// With every peer dark there is no answering quorum for the short-grace
	// path to protect — this round IS the rejoin attempt (a node coming back
	// from a crash or long partition sees exactly this). Give dark peers the
	// full MaxWait and the retry schedule instead of a grace window.
	allDark := bright == 0 && len(targets) > 0
	for slot := range targets {
		sendPing(slot)
	}

	// The round's three clocks: the MaxWait deadline, the next instant of the
	// retry schedule, and the dark peers' grace once it starts. A nil channel
	// never fires; every timer is stopped when the round returns, so a round
	// that ends early leaves none behind to fire.
	timers := make([]*time.Timer, 0, 4)
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	after := func(d time.Duration) <-chan time.Time {
		t := time.NewTimer(d)
		timers = append(timers, t)
		return t.C
	}
	resends := retrySchedule(n.cfg.Retry, n.cfg.MaxWait, rand.Float64)
	wallStart := time.Now()
	deadline := after(n.cfg.MaxWait)
	var retryC, graceC <-chan time.Time
	if len(resends) > 0 {
		retryC = after(resends[0])
	}

collect:
	for n.round.Open() {
		if bright == 0 && !allDark && graceC == nil {
			// All healthy peers answered; give dark peers one short grace to
			// rejoin instead of stalling the full MaxWait on them.
			grace := retryCfg.Initial
			if left := n.cfg.MaxWait - time.Since(wallStart); grace > left {
				grace = left
			}
			if grace <= 0 {
				break collect
			}
			graceC = after(grace)
		}
		select {
		case rp := <-ch:
			reply(rp)
		case <-retryC:
			// Retransmit to every bright peer still unanswered.
			resent := 0
			for slot, t := range targets {
				if !n.round.Answered(slot) && (!t.dark || allDark) {
					sendPing(slot)
					resent++
				}
			}
			if resent > 0 {
				n.rec.Retries.Add(int64(resent))
			}
			if resends, retryC = resends[1:], nil; len(resends) > 0 {
				retryC = after(resends[0] - time.Since(wallStart))
			}
		case <-graceC:
			break collect
		case <-deadline:
			break collect
		case <-ctx.Done():
			n.purgePending()
			n.round.Abort()
			return
		}
	}

	// Stop listening: purge the round's outstanding pings, take the answers
	// that were already queued, and let the machine expire the rest.
	outstanding := n.purgePending()
	for queued := true; queued && n.round.Open(); {
		select {
		case rp := <-ch:
			reply(rp)
		default:
			queued = false
		}
	}
	out := n.round.Close()
	n.updateHealth(targets)
	if out.Failed > 0 {
		n.rec.EstimationTimeouts.Add(int64(out.Failed))
	}
	nowU := unixNow()
	for _, p := range outstanding {
		if p.span != 0 && !n.round.Answered(p.slot) {
			o.EmitSpan(obs.Span{
				ID: p.span, Parent: p.parent, Name: obs.SpanEstimate, Node: n.cfg.ID,
				Start: p.sentUnix, End: nowU,
				Fields: obs.F("peer", float64(p.peer)).F("attempt", float64(p.attempt)).
					F("ok", 0).F("timeout", 1),
			})
		}
	}

	// Apply the machine's verdict to the clock, publish the reading it
	// backs, and have the machine record the round in wall time.
	dd := wallDuration(out.Delta)
	n.mu.Lock()
	if out.OK {
		n.adj += dd
		n.syncs++
		n.last = dd
	}
	n.lastRound, n.lastRoundAt = out, time.Now()
	n.mu.Unlock()
	if out.OK {
		n.publishReading(wallDuration(out.Unc))
	}
	n.round.Record(o, n.rec, roundSpan, roundStart, unixNow())
	if out.OK {
		n.logf("sync #%d: adjusted by %v (offset now %v)", n.Syncs(), dd, n.Offset())
	} else {
		n.logf("sync: too few answers (%d of %d) for f=%d", len(targets)-out.Failed, len(targets), n.cfg.F)
	}
}

// purgePending removes the current round's outstanding pings and returns
// them. Replies are queued under the same lock, so none reaches the round's
// queue after this returns.
func (n *Node) purgePending() []pendingPing {
	var outstanding []pendingPing
	n.mu.Lock()
	for _, nonce := range n.nonces {
		if p, ok := n.pending[nonce]; ok {
			delete(n.pending, nonce)
			outstanding = append(outstanding, p)
		}
	}
	n.mu.Unlock()
	return outstanding
}

// updateHealth folds the closed round's outcomes into the peer records: an
// answer resets the failure streak (and rescues a dark peer); a failure
// extends it and — at the DarkAfter threshold — writes the peer off as dark. Transitions are emitted as peerdark/peerbright events and the
// dark population is kept on the PeersDark gauge.
func (n *Node) updateHealth(targets []roundTarget) {
	darkAfter := n.cfg.DarkAfter
	if darkAfter == 0 {
		darkAfter = defaultDarkAfter
	}
	type transition struct {
		peer  int
		dark  bool
		fails int
	}
	var changes []transition
	n.mu.Lock()
	for slot, t := range targets {
		p := n.peer(t.id)
		if p == nil {
			continue // removed from the table mid-round
		}
		if n.round.Answered(slot) {
			p.consecFails = 0
			if p.dark {
				p.dark = false
				n.rec.PeerRejoins.Inc()
				changes = append(changes, transition{peer: t.id, dark: false})
			}
			continue
		}
		p.failures++
		p.consecFails++
		if !p.dark && p.consecFails >= darkAfter {
			p.dark = true
			changes = append(changes, transition{peer: t.id, dark: true, fails: p.consecFails})
		}
	}
	dark := 0
	for _, p := range n.peers {
		if p.dark {
			dark++
		}
	}
	n.mu.Unlock()
	n.rec.PeersDark.Set(float64(dark))
	for _, c := range changes {
		if c.dark {
			n.emit(obs.KindPeerDark, map[string]float64{"peer": float64(c.peer), "fails": float64(c.fails)})
			n.logf("peer %d marked dark after %d silent rounds; degrading to the answering quorum", c.peer, c.fails)
		} else {
			n.emit(obs.KindPeerBright, map[string]float64{"peer": float64(c.peer)})
			n.logf("peer %d answered again; restored to the wait set", c.peer)
		}
	}
}
