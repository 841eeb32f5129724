package livenet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clocksync/internal/obs"
)

// Client issues 4-timestamp time queries against a serving Node and turns
// the replies into interval-valued Readings. It is the reference consumer of
// the serve wire protocol: one Client owns one Transport (UDP by default, or
// any injected Transport — MemNetwork endpoints and FaultTransports work
// identically), multiplexes any number of concurrent Query calls over it by
// nonce, and keeps the last successful exchange as a local snapshot so Read
// can answer between queries the same way a Node does between Sync rounds.
type Client struct {
	cfg ClientConfig
	tr  Transport

	mu      sync.Mutex
	nonce   uint64
	pending map[uint64]*queryWaiter
	free    []*queryWaiter // waiters of finished queries, ready for reuse
	done    chan struct{}  // closed by Close, under mu; unblocks pending queries

	snap atomic.Pointer[readSnap]
	wg   sync.WaitGroup
}

// clientReply is one reply as captured by the client's read loop: the
// decoded packet plus the client clock at receipt (T4), stamped in the read
// loop so queue latency between goroutines does not pollute the timestamp.
type clientReply struct {
	reply ServeReply
	t4    time.Time
}

// queryWaiter is what one Query waits with: the channel its reply arrives
// on, a timer for the client's default timeout, and the query's send
// buffer. Waiters are recycled through Client.free, so a query in steady
// state allocates none of them.
type queryWaiter struct {
	reply chan clientReply // capacity 1: the first reply wins
	timer *time.Timer      // stopped and drained whenever the waiter is free
	buf   [ServeQueryMaxSize]byte
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Server is the serve address of a node — its Node.ServeAddr when a
	// dedicated endpoint is configured, or its sync address otherwise (both
	// answer queries).
	Server string
	// Transport, when non-nil, carries the client's datagrams instead of a
	// fresh UDP socket. The client owns it and closes it on Close.
	Transport Transport
	// Listen is the UDP listen address when Transport is nil; empty selects
	// an OS-assigned loopback-agnostic port (":0").
	Listen string
	// Timeout bounds one Query when its context has no earlier deadline
	// (default 1s).
	Timeout time.Duration
	// Observer, when it has a span sink attached, makes the client emit a
	// "query" span per completed exchange and stamp the serve wire's
	// trace-context extension, so the server's "serve" span shares the same
	// id and a fleet aggregator can join the two sides. Nil (or sinkless)
	// keeps queries untraced and byte-identical to the pre-extension wire.
	Observer *obs.Observer
	// Origin is the fleet node id stamped into traced queries, identifying
	// this client in merged cross-node traces.
	Origin uint32
}

// clientDriftPPM is the drift bound a client assumes for interpolating
// between queries: its own hardware plus the server's, each at the ρ-like
// hostDriftPPM default.
const clientDriftPPM = 2 * hostDriftPPM

// maxUncertainty is the uncertainty reported before any successful query,
// when the client knows nothing about the cluster's clock.
const maxUncertainty = time.Duration(1<<63 - 1)

// NewClient validates cfg and opens the client's transport.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Server == "" {
		return nil, fmt.Errorf("livenet: ClientConfig.Server is required (a node's serve or sync address)")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	tr := cfg.Transport
	if tr == nil {
		listen := cfg.Listen
		if listen == "" {
			listen = ":0"
		}
		var err error
		tr, err = NewUDPTransport(listen)
		if err != nil {
			return nil, err
		}
	}
	if checker, ok := tr.(addrChecker); ok {
		if err := checker.CheckAddr(cfg.Server); err != nil {
			tr.Close()
			return nil, fmt.Errorf("livenet: server %s: %w", cfg.Server, err)
		}
	}
	c := &Client{cfg: cfg, tr: tr, pending: make(map[uint64]*queryWaiter), done: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop()
	}()
	return c, nil
}

// readLoop stamps and routes replies to waiting queries. Unparseable
// datagrams and replies to expired nonces are dropped, like any datagram
// client must. The hand-off happens under c.mu, so once a query has removed
// its nonce from c.pending no reply can reach its waiter.
func (c *Client) readLoop() {
	buf := make([]byte, 2048)
	for {
		nr, _, err := c.tr.ReadFrom(buf)
		if err != nil {
			return
		}
		t4 := time.Now()
		r, err := DecodeServeReply(buf[:nr])
		if err != nil {
			continue
		}
		c.mu.Lock()
		if w := c.pending[r.Nonce]; w != nil { // nil: expired or unknown nonce
			select {
			case w.reply <- clientReply{reply: r, t4: t4}:
			default: // duplicate; the first reply wins
			}
		}
		c.mu.Unlock()
	}
}

// Query performs one 4-timestamp exchange and returns the resulting Reading
// (also folding it into the client's snapshot for Read). The reading's
// uncertainty is the server's own envelope plus half the measured round-trip
// network delay — the RTT-asymmetry bound — plus the client-side floor.
func (c *Client) Query(ctx context.Context) (Reading, error) {
	c.mu.Lock()
	select {
	case <-c.done:
		c.mu.Unlock()
		return Reading{}, ErrClosed
	default:
	}
	c.nonce++
	nonce := c.nonce
	w := c.takeWaiter()
	c.pending[nonce] = w
	c.mu.Unlock()

	// The client's default timeout runs on the waiter's timer rather than a
	// derived context, which would cost several allocations per query.
	var timeout <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		w.timer.Reset(c.cfg.Timeout)
		timeout = w.timer.C
	}
	armed := timeout != nil // the timer may yet fire, or hold an unread expiry
	defer func() { c.release(nonce, w, armed) }()

	var span obs.SpanID
	if c.cfg.Observer.SpansEnabled() {
		span = c.cfg.Observer.NextSpanID()
	}
	t1 := time.Now()
	pkt := EncodeServeQuery(w.buf[:], ServeQuery{
		Nonce: nonce, T1: t1.UnixNano(),
		Traced: span != 0, Span: uint64(span), Origin: c.cfg.Origin,
	})
	if err := c.tr.WriteTo(pkt, c.cfg.Server); err != nil {
		return Reading{}, fmt.Errorf("livenet: query send: %w", err)
	}

	select {
	case cr := <-w.reply:
		reading, err := c.absorb(cr)
		if err == nil && span != 0 {
			// The client half of the join: send (T1) → reply receipt (T4),
			// under the same id the server's "serve" span carries.
			c.cfg.Observer.EmitSpan(obs.Span{
				ID: span, Name: obs.SpanQuery, Node: int(c.cfg.Origin),
				Start: float64(t1.UnixNano()) / 1e9,
				End:   float64(cr.t4.UnixNano()) / 1e9,
				Fields: obs.F("server", float64(cr.reply.Node)).
					F("theta", reading.Time.Sub(cr.t4).Seconds()).
					F("unc", reading.Uncertainty.Seconds()).
					F("epoch", float64(reading.Epoch)),
			})
		}
		return reading, err
	case <-ctx.Done():
		return Reading{}, fmt.Errorf("livenet: query to %s: %w", c.cfg.Server, ctx.Err())
	case <-timeout:
		armed = false // the expiry is consumed
		return Reading{}, fmt.Errorf("livenet: query to %s: %w", c.cfg.Server, context.DeadlineExceeded)
	case <-c.done:
		return Reading{}, ErrClosed
	}
}

// takeWaiter returns a free waiter, or a new one when none is free. The
// caller holds c.mu.
func (c *Client) takeWaiter() *queryWaiter {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free = c.free[:n-1]
		return w
	}
	w := &queryWaiter{reply: make(chan clientReply, 1), timer: time.NewTimer(time.Hour)}
	w.timer.Stop()
	return w
}

// release retires a finished query's nonce and returns its waiter to the
// free list, emptied. An armed timer is stopped and drained: go.mod pins
// pre-1.23 timer semantics, where a fired timer's value stays buffered in its
// channel until received. A duplicate reply that arrived before the nonce
// was removed is drained under the same lock that removes it, after which
// readLoop cannot reach w.
func (c *Client) release(nonce uint64, w *queryWaiter, armed bool) {
	if armed && !w.timer.Stop() {
		<-w.timer.C
	}
	c.mu.Lock()
	delete(c.pending, nonce)
	select {
	case <-w.reply:
	default:
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// absorb turns one completed exchange into a Reading and publishes it as the
// client's interpolation snapshot.
func (c *Client) absorb(cr clientReply) (Reading, error) {
	r := cr.reply
	t1 := r.T1
	t4 := cr.t4.UnixNano()
	// θ = ((T2−T1)+(T3−T4))/2: the server clock minus the client clock,
	// exact when the two one-way delays are equal, off by at most λ/2
	// however they actually split.
	theta := ((r.T2 - t1) + (r.T3 - t4)) / 2
	// λ = (T4−T1)−(T3−T2): round-trip time net of server processing.
	lambda := (t4 - t1) - (r.T3 - r.T2)
	if lambda < 0 {
		lambda = 0 // clock granularity artifacts; never widen θ's credit
	}
	unc := r.Uncertainty + time.Duration(lambda)/2 + minUncertainty
	if unc < r.Uncertainty { // overflow guard: server already at the max
		unc = maxUncertainty
	}
	reading := Reading{
		Time:        cr.t4.Add(time.Duration(theta)),
		Uncertainty: unc,
		Epoch:       r.Epoch,
	}
	c.snap.Store(&readSnap{
		base:    cr.t4,
		offset:  time.Duration(theta),
		ratePPM: 0, // the client has no rate model for its own hardware
		unc:     unc,
		growPPM: clientDriftPPM,
		epoch:   r.Epoch,
	})
	return reading, nil
}

// Read implements TimeSource from the client's last successful query,
// interpolating forward on the client's own clock with uncertainty growing
// at the combined drift bound. Before any successful Query it reports the
// client's raw clock with maximal uncertainty at epoch 0.
func (c *Client) Read() Reading {
	s := c.snap.Load()
	if s == nil {
		return Reading{Time: time.Now(), Uncertainty: maxUncertainty}
	}
	r := s.at(time.Now())
	if r.Uncertainty < s.unc { // overflow of the growth term
		r.Uncertainty = maxUncertainty
	}
	return r
}

// Close releases the client's transport and unblocks pending queries.
func (c *Client) Close() error {
	c.mu.Lock()
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	c.mu.Unlock()
	err := c.tr.Close()
	c.wg.Wait()
	return err
}
