package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"clocksync/internal/livenet"
)

// servingNode is one node answering time queries, run until stopped. It has
// no peers: it serves its own (host) clock, so every reading can be checked
// against the host clock the benchmark reads itself.
type servingNode struct {
	node *livenet.Node
	stop context.CancelFunc
	done chan struct{}
}

func startServingNode(cfg livenet.Config) (*servingNode, error) {
	cfg.SyncInt = time.Second
	cfg.MaxWait = 100 * time.Millisecond
	cfg.WayOff = 5 * time.Second
	node, err := livenet.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &servingNode{node: node, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		node.Run(ctx) // returns ctx.Err() once stopped; nothing to report
	}()
	return s, nil
}

// close stops the node and waits until its loops have exited and its
// sockets are closed.
func (s *servingNode) close() {
	s.stop()
	<-s.done
}

// serveUDP is the user-visible serving row: one caller, one query at a time
// against the node's dedicated serve socket on loopback UDP, each waiting for
// its reply the way an NTP client does. Two kernel crossings and three
// goroutine wake-ups set the pace; one closed-loop client because two were
// bimodal on a 2-core box and an open loop needs a core to spin on.
type serveUDP struct {
	r        *run
	warmOps  int
	batchOps int

	srv    *servingNode
	client *livenet.Client
	lat    []float64 // per-query latency in µs, traced half only
}

func newServeUDP(r *run) *serveUDP {
	return &serveUDP{r: r, warmOps: r.sized(100000), batchOps: r.sized(3000)}
}

func (w *serveUDP) setup() error {
	srv, err := startServingNode(livenet.Config{
		Listen: "127.0.0.1:0",
		Serve:  livenet.ServeConfig{Addr: "127.0.0.1:0"},
	})
	if err != nil {
		return err
	}
	w.srv = srv
	w.client, err = livenet.NewClient(livenet.ClientConfig{Server: srv.node.ServeAddr(), Listen: "127.0.0.1:0", Timeout: queryTimeout})
	if err != nil {
		return err
	}
	for i := 0; i < w.warmOps; i++ {
		if !queryOnce(w.client) {
			return fmt.Errorf("warm-up query %d failed", i)
		}
	}
	return nil
}

// queryOnce performs one query and checks the reading: the host clock read
// just before and just after brackets true time at the moment of the reading,
// so the reading's interval [Time−U, Time+U] must reach into that bracket.
func queryOnce(c *livenet.Client) bool {
	before := time.Now()
	reading, err := c.Query(context.Background())
	if err != nil {
		return false
	}
	after := time.Now()
	return !reading.Time.Add(reading.Uncertainty).Before(before) &&
		!reading.Time.Add(-reading.Uncertainty).After(after)
}

func (w *serveUDP) batch() (attempted, failed int) {
	if w.r.tracing {
		for i := 0; i < w.batchOps; i++ {
			t0 := time.Now()
			if !queryOnce(w.client) {
				failed++
			}
			t1 := time.Now()
			w.lat = append(w.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
			// Every query is timed; one in 1024 also becomes a span, which
			// keeps the span file readable at 80k queries a second.
			if i&1023 == 0 {
				w.r.tr.add(w.r.name+"/livenet.Client.Query", t0, t1)
			}
		}
		return w.batchOps, failed
	}
	for i := 0; i < w.batchOps; i++ {
		if !queryOnce(w.client) {
			failed++
		}
	}
	return w.batchOps, failed
}

func (w *serveUDP) verify() error { return nil }

func (w *serveUDP) teardown() {
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

func (w *serveUDP) ledger(o *outcome) {
	r, out := w.r, o.layers
	sort.Float64s(w.lat)
	out["livenet.query_p50_us"] = quantile(w.lat, 0.5)
	p99, used := tailPercentile(w.lat, 0.99)
	out["livenet.query_p99_us"] = p99
	r.notef("query latency from %d samples; livenet.query_p99_us is percentile %.4f", len(w.lat), used*100)

	m := w.srv.node.Metrics()
	out["livenet.serve_bad"] = float64(m.ServeBad.Load())
	out["livenet.serve_dropped"] = float64(m.ServeDropped.Load())

	r.timeLayer("livenet.UDPTransport", func() {
		hop, err := probeUDPHop(r.sized(50000))
		if err != nil {
			r.notef("udp hop probe: %v", err)
		}
		out["livenet.udp_hop_us"] = hop / 1e3
	})
	r.timeLayer("livenet.Client", func() {
		client, raw, err := probeQueryOverMem(r.sized(100000))
		if err != nil {
			r.notef("client probe: %v", err)
		}
		out["livenet.query_client_us"] = (client - raw) / 1e3
		r.notef("over MemNetwork one Client.Query takes %.0f ns, the bare exchange %.0f ns", client, raw)
	})
}

// probeUDPHop is the cost of one datagram one way between two loopback UDP
// sockets, written and read from one goroutine: the kernel's share of a
// query, with no goroutine hand-off in it.
func probeUDPHop(hops int) (ns float64, err error) {
	a, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	var pkt [livenet.ServeQuerySize]byte
	buf := make([]byte, 2048)
	to := b.LocalAddr()
	t0 := time.Now()
	for i := 0; i < hops; i++ {
		if err := a.WriteTo(pkt[:], to); err != nil {
			return 0, err
		}
		if _, _, err := b.ReadFrom(buf); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(hops), nil
}

// memServer is a serving node on a fresh in-process fabric, its dedicated
// serve endpoint at mem://1; clients take endpoints from 100 up.
func memServer() (*servingNode, *livenet.MemNetwork, error) {
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{})
	srv, err := startServingNode(livenet.Config{
		Transport: mn.Transport(0),
		Serve:     livenet.ServeConfig{Transport: mn.Transport(1)},
	})
	return srv, mn, err
}

var memServeAddr = livenet.MemAddr(1)

// probeQueryOverMem times Client.Query and the bare encode → write → read →
// decode exchange, both one at a time over MemNetwork: the difference is what
// the client adds (nonce table, channel, reply goroutine, context, Reading).
func probeQueryOverMem(queries int) (clientNs, rawNs float64, err error) {
	srv, mn, err := memServer()
	if err != nil {
		return 0, 0, err
	}
	defer srv.close()
	client, err := livenet.NewClient(livenet.ClientConfig{Server: memServeAddr, Transport: mn.Transport(100)})
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	t0 := time.Now()
	for i := 0; i < queries; i++ {
		if !queryOnce(client) {
			return 0, 0, fmt.Errorf("query %d over MemNetwork failed", i)
		}
	}
	clientNs = float64(time.Since(t0).Nanoseconds()) / float64(queries)

	raw := mn.Transport(101)
	defer raw.Close()
	x := exchanger{tr: raw, window: 1}
	t0 = time.Now()
	if _, failed := x.exchange(queries); failed > 0 {
		return 0, 0, fmt.Errorf("%d bare exchanges failed", failed)
	}
	rawNs = float64(time.Since(t0).Nanoseconds()) / float64(queries)
	return clientNs, rawNs, nil
}

// exchanger drives raw serve exchanges from one goroutine: encode, write,
// and — once `window` queries are in flight — read and decode, checking that
// each reply echoes the nonce of the oldest outstanding query (one server
// loop and a FIFO fabric keep replies in order).
type exchanger struct {
	tr     *livenet.MemTransport
	window int
	nonce  uint64 // last nonce sent
	acked  uint64 // last nonce whose reply was read
	qbuf   [livenet.ServeQuerySize]byte
	rbuf   [livenet.ServeReplyMaxSize]byte
}

// drainTimeout is how long the end of a batch waits for replies still in
// flight before counting them missing. Replies take microseconds; the five
// seconds are for a host that takes the CPU away, which is not the server
// losing a reply.
const drainTimeout = 5 * time.Second

// queryTimeout bounds one Client.Query of the UDP workload, for the same
// reason well above the client's default of one second.
const queryTimeout = 5 * time.Second

func (x *exchanger) read() bool {
	nr, _, err := x.tr.ReadFrom(x.rbuf[:])
	x.acked++
	if err != nil {
		return false
	}
	reply, err := livenet.DecodeServeReply(x.rbuf[:nr])
	return err == nil && reply.Nonce == x.acked
}

// exchange completes n exchanges and returns how many failed: a reply that
// does not decode, echoes the wrong nonce, or is still missing after the
// drain timeout.
func (x *exchanger) exchange(n int) (attempted, failed int) {
	for i := 0; i < n; i++ {
		x.nonce++
		pkt := livenet.EncodeServeQuery(x.qbuf[:], livenet.ServeQuery{Nonce: x.nonce, T1: time.Now().UnixNano()})
		if err := x.tr.WriteTo(pkt, memServeAddr); err != nil {
			// The endpoint is closed: this query and all after it are lost.
			x.nonce--
			failed += n - i
			break
		}
		if int(x.nonce-x.acked) >= x.window && !x.read() {
			failed++
		}
	}
	// Drain. A reply that never comes must not hang the run: closing the
	// endpoint after the timeout turns the blocked read into an error.
	watchdog := time.AfterFunc(drainTimeout, func() { x.tr.Close() })
	defer watchdog.Stop()
	for x.acked < x.nonce {
		if !x.read() {
			failed++
		}
	}
	return n, failed
}

// serveMem saturates the serve path with no kernel in it: one driver
// goroutine keeps 64 raw exchanges in flight against a running node over
// MemNetwork. serveLoop/answerServe, the codec, Node.Read and MemTransport
// are all there is, so this is where a serve-path optimisation must show.
type serveMem struct {
	r        *run
	warmOps  int
	batchOps int

	srv *servingNode
	x   exchanger
}

func newServeMem(r *run) *serveMem {
	return &serveMem{r: r, warmOps: r.sized(2600000), batchOps: r.sized(70000)}
}

func (w *serveMem) setup() error {
	srv, mn, err := memServer()
	if err != nil {
		return err
	}
	w.srv = srv
	// The window stays far under the endpoints' inbox capacity (512), or the
	// fabric would drop datagrams like a full socket buffer.
	w.x = exchanger{tr: mn.Transport(100), window: 64}
	if _, failed := w.x.exchange(w.warmOps); failed > 0 {
		return fmt.Errorf("%d warm-up exchanges failed", failed)
	}
	return nil
}

func (w *serveMem) batch() (attempted, failed int) {
	t0 := time.Now()
	attempted, failed = w.x.exchange(w.batchOps)
	if w.r.tracing {
		w.r.tr.add(w.r.name+"/livenet.serveLoop", t0, time.Now())
	}
	return attempted, failed
}

// verify checks the server's own books: it answered every query it was sent
// and found none of them malformed.
func (w *serveMem) verify() error {
	m := w.srv.node.Metrics()
	if bad, dropped := m.ServeBad.Load(), m.ServeDropped.Load(); bad+dropped > 0 {
		return fmt.Errorf("server counted %d malformed queries and %d undeliverable replies", bad, dropped)
	}
	// The server counts a query after sending its reply, so the count may
	// trail the last reply read by a moment.
	deadline := time.Now().Add(drainTimeout)
	for uint64(m.ServeQueries.Load()) != w.x.nonce {
		if time.Now().After(deadline) {
			return fmt.Errorf("server answered %d of %d queries", m.ServeQueries.Load(), w.x.nonce)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (w *serveMem) teardown() {
	if w.srv != nil {
		w.x.tr.Close()
		w.srv.close()
		w.srv = nil
	}
}

// Sinks keep the probes' results live so the loops are not compiled away.
var (
	readSink  livenet.Reading
	codecSink uint64
)

func (w *serveMem) ledger(o *outcome) {
	r, out := w.r, o.layers
	m := w.srv.node.Metrics()
	out["livenet.serve_bad"] = float64(m.ServeBad.Load())
	out["livenet.serve_dropped"] = float64(m.ServeDropped.Load())

	var readNs, codecNs, hopNs float64
	r.timeLayer("livenet.Node.Read", func() {
		n := r.sized(1 << 22)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			readSink = w.srv.node.Read()
		}
		readNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
	r.timeLayer("livenet.codec", func() { codecNs = probeCodec(r.sized(1 << 22)) })
	r.timeLayer("livenet.MemTransport", func() { hopNs = probeMemHop(r.sized(1 << 21)) })
	out["livenet.read_ns"] = readNs
	out["livenet.codec_ns"] = codecNs
	out["livenet.mem_hop_ns"] = hopNs
	gap := o.opNs - readNs - codecNs - 2*hopNs
	out["livenet.serve_unaccounted_ns"] = gap

	r.noteStages([]ledgerRow{
		{"livenet.read", 1, readNs}, {"livenet.codec", 1, codecNs}, {"livenet.mem_hop", 2, hopNs},
	}, o.opNs)
	if gap/o.opNs > unaccountedFlag {
		r.notef("FLAG: the stages leave %.0f ns, %.1f%% of a served query, unaccounted (more than %.0f%%): the next thing to explain",
			gap, 100*gap/o.opNs, unaccountedFlag*100)
	}
}

// probeCodec is the codec work of one exchange: the query encoded and
// decoded, the reply encoded and decoded.
func probeCodec(n int) float64 {
	var qbuf [livenet.ServeQuerySize]byte
	var rbuf [livenet.ServeReplySize]byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pkt := livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{Nonce: uint64(i), T1: int64(i)})
		q, _ := livenet.DecodeServeQuery(pkt)
		out := livenet.EncodeServeReply(rbuf[:], livenet.ServeReply{
			Nonce: q.Nonce, T1: q.T1, T2: q.T1 + 1, T3: q.T1 + 2,
			Uncertainty: time.Millisecond, Epoch: 1,
		})
		reply, _ := livenet.DecodeServeReply(out)
		codecSink += reply.Nonce
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeMemHop is the cost of one datagram through MemNetwork, written and
// read from one goroutine.
func probeMemHop(n int) float64 {
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{})
	a, b := mn.Transport(0), mn.Transport(1)
	defer a.Close()
	defer b.Close()
	var pkt [livenet.ServeReplySize]byte
	buf := make([]byte, 2048)
	to := b.LocalAddr()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if a.WriteTo(pkt[:], to) != nil {
			return 0
		}
		if _, _, err := b.ReadFrom(buf); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
