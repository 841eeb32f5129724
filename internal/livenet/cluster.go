package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"clocksync/internal/obs"
)

// Cluster runs n live nodes in one process on loopback sockets — the
// fastest way to stand up a real (non-simulated) Sync deployment for tests,
// demos and local experiments.
type Cluster struct {
	nodes  []*Node
	cancel context.CancelFunc
	wg     sync.WaitGroup
	runErr []error
}

// ClusterConfig parameterizes an in-process cluster. Per-node simulated
// clock errors come from Offsets/DriftPPM (missing entries default to zero).
type ClusterConfig struct {
	N        int
	F        int
	SyncInt  time.Duration
	MaxWait  time.Duration
	WayOff   time.Duration
	Key      []byte
	Offsets  []time.Duration
	DriftPPM []float64
	Logf     func(format string, args ...any)

	// Metrics, when true, serves each node's observability endpoint
	// (/metrics, /status and /statusz, /debug/pprof) on a loopback port of
	// its own from Start until Stop; read the bound addresses with
	// Cluster.MetricsAddr.
	Metrics bool
	// Serve, when true, gives each node a dedicated UDP time-serving
	// endpoint on a loopback port of its own; read the bound addresses
	// with Cluster.ServeAddr.
	Serve bool
	// Observer receives the structured event stream of every node.
	Observer *obs.Observer
	// SpanBuffer, when positive, gives every node a span ring of that
	// capacity served on its GET /spanz endpoint, enabling cross-node trace
	// propagation. When Observer is nil each node gets a private observer, so
	// per-node span-id counters stay independent and /spanz carries only that
	// node's spans — the shape the telemetry scraper expects.
	SpanBuffer int
}

// NewCluster opens sockets for all nodes and wires their peer tables. Call
// Start to begin synchronizing and Stop to shut down.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("livenet: cluster needs at least one node")
	}
	c := &Cluster{runErr: make([]error, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		var off time.Duration
		if i < len(cfg.Offsets) {
			off = cfg.Offsets[i]
		}
		var drift float64
		if i < len(cfg.DriftPPM) {
			drift = cfg.DriftPPM[i]
		}
		ops := OpsConfig{Logf: cfg.Logf, Observer: cfg.Observer, SpanBuffer: cfg.SpanBuffer}
		if cfg.Metrics {
			ops.MetricsAddr = "127.0.0.1:0"
		}
		var serve ServeConfig
		if cfg.Serve {
			serve.Addr = "127.0.0.1:0"
		}
		node, err := New(Config{
			ID:          i,
			F:           cfg.F,
			Listen:      "127.0.0.1:0",
			SyncInt:     cfg.SyncInt,
			MaxWait:     cfg.MaxWait,
			WayOff:      cfg.WayOff,
			Key:         cfg.Key,
			SimOffset:   off,
			SimDriftPPM: drift,
			Ops:         ops,
			Serve:       serve,
		})
		if err != nil {
			c.closeAll()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	for i, node := range c.nodes {
		peers := make(map[int]string, cfg.N-1)
		for j, other := range c.nodes {
			if j != i {
				peers[j] = other.Addr()
			}
		}
		if err := node.SetPeers(peers); err != nil {
			c.closeAll()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) closeAll() {
	for _, node := range c.nodes {
		if node != nil {
			node.closeTransports()
		}
	}
}

// Start launches every node's Run loop.
func (c *Cluster) Start() {
	if c.cancel != nil {
		panic("livenet: cluster started twice")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i, node := range c.nodes {
		i, node := i, node
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := node.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				c.runErr[i] = err
			}
		}()
	}
}

// Stop shuts the cluster down and returns the first node error, if any.
func (c *Cluster) Stop() error {
	if c.cancel != nil {
		c.cancel()
		c.wg.Wait()
		c.cancel = nil
	}
	for _, err := range c.runErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// MetricsAddr returns the bound observability address of the i-th node (""
// until Start when ClusterConfig.Metrics is set, or always when it is not).
func (c *Cluster) MetricsAddr(i int) string { return c.nodes[i].MetricsAddr() }

// ServeAddr returns the bound time-serving address of the i-th node ("" when
// ClusterConfig.Serve is not set).
func (c *Cluster) ServeAddr(i int) string { return c.nodes[i].ServeAddr() }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Spread returns the current max−min offset across the cluster.
func (c *Cluster) Spread() time.Duration {
	min, max := c.nodes[0].Offset(), c.nodes[0].Offset()
	for _, n := range c.nodes[1:] {
		o := n.Offset()
		if o < min {
			min = o
		}
		if o > max {
			max = o
		}
	}
	return max - min
}

// WaitConverged waits until the cluster's spread is below tol with every
// node having completed minSyncs executions, or the timeout elapses. The
// wait is timer-driven — a deadline timer plus a coarse polling ticker — so
// a slow startup parks the goroutine instead of spinning on the clock.
func (c *Cluster) WaitConverged(tol time.Duration, minSyncs int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		ready := true
		for _, n := range c.nodes {
			if n.Syncs() < minSyncs {
				ready = false
				break
			}
		}
		if ready && c.Spread() < tol {
			return nil
		}
		select {
		case <-deadline.C:
			return fmt.Errorf("livenet: not converged within %v (spread %v)", timeout, c.Spread())
		case <-tick.C:
		}
	}
}
