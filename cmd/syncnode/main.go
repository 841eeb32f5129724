// Command syncnode runs one live clock-synchronization node over UDP — the
// deployable artifact of this repository. A cluster of syncnodes keeps its
// members' clocks synchronized under the paper's guarantees, with
// HMAC-authenticated links.
//
// Usage (three-node cluster on one host):
//
//	syncnode -id 0 -listen 127.0.0.1:9000 -peers 1=127.0.0.1:9001,2=127.0.0.1:9002,3=127.0.0.1:9003 -f 1 -key secret
//	syncnode -id 1 -listen 127.0.0.1:9001 -peers 0=127.0.0.1:9000,2=127.0.0.1:9002,3=127.0.0.1:9003 -f 1 -key secret
//	...
//
// Each node periodically prints its offset from the host clock; -offset and
// -drift-ppm synthesize a bad local clock for demonstrations, and
// -transport faultudp with the -fault-* knobs degrades the node's own
// outbound traffic (seeded drops, duplication, reordering, extra delay)
// for soak-testing the retry and peer-health machinery. -serve-addr opens a
// dedicated UDP time-service endpoint for clients (see docs/SERVING.md and
// cmd/syncload). See docs/LIVENET.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/cliutil"
	"clocksync/internal/livenet"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

func main() {
	if err := run(); err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, "syncnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.Int("id", 0, "this node's identity")
		listen   = cliutil.AddrVar(flag.CommandLine, "listen", "127.0.0.1:9000", "UDP listen address")
		peersArg = flag.String("peers", "", "comma-separated peer list id=host:port,...")
		f        = flag.Int("f", 1, "per-period fault budget (n ≥ 3f+1)")
		syncInt  = flag.Duration("syncint", 2*time.Second, "wall time between Syncs")
		maxWait  = flag.Duration("maxwait", 500*time.Millisecond, "estimation timeout")
		wayOff   = flag.Duration("wayoff", 5*time.Second, "own-clock rejection threshold")
		key      = flag.String("key", "", "shared HMAC key (empty disables authentication)")
		offset   = flag.Duration("offset", 0, "simulated initial clock offset")
		drift    = flag.Float64("drift-ppm", 0, "simulated clock drift in ppm")
		report   = flag.Duration("report", 5*time.Second, "offset report interval (0 = quiet)")
		metrics  = cliutil.AddrVar(flag.CommandLine, "metrics-addr", "", "HTTP address serving /metrics, /status and /debug/pprof (empty = off)")
		serve    = cliutil.AddrVar(flag.CommandLine, "serve-addr", "", "dedicated UDP address answering time-service queries (empty = answer on the sync socket only)")
		traceOut = flag.String("trace-out", "", "append the node's observability event stream as JSON lines to this file; readable with tracestat")
		traceSp  = flag.Bool("trace-spans", false, "also record causal spans (round/estimate/adjust) into -trace-out")
		spanBuf  = flag.Int("span-buffer", 0, "keep this many recent spans served on GET /spanz of -metrics-addr and propagate trace context on the wire (0 = off); the surface syncmon joins cross-node spans from")

		transport = flag.String("transport", "udp", `datagram transport: "udp", or "faultudp" to wrap UDP in seeded fault injection (tune with -fault-*)`)
		faultSeed = flag.Int64("fault-seed", 1, "seed of the fault-injecting transport; same seed + traffic = same packet fates")
		faultDrop = flag.Float64("fault-drop", 0, "faultudp: P(outbound message silently lost), in [0,1)")
		faultDup  = flag.Float64("fault-dup", 0, "faultudp: P(outbound message sent twice), in [0,1)")
		faultReo  = flag.Float64("fault-reorder", 0, "faultudp: P(outbound message held past its successor), in [0,1)")
		faultDel  = flag.Duration("fault-delay-max", 0, "faultudp: extra delivery delay, uniform in [0, this)")

		retryAtt  = flag.Int("retry-attempts", 0, "sends per peer per round incl. the first (0 = default 3, 1 disables retries)")
		retryInit = flag.Duration("retry-initial", 0, "delay before the first retransmission (0 = maxwait/8)")
		darkAfter = flag.Int("dark-after", 0, "consecutive silent rounds before a peer is written off as dark (0 = default 3)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersArg, *id)
	if err != nil {
		return err
	}
	if *traceSp && *traceOut == "" {
		return fmt.Errorf("-trace-spans requires -trace-out")
	}
	var observer *obs.Observer
	var closeTrace func()
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		sink := obs.NewJSONL(fh)
		observer = obs.NewObserver()
		observer.AddSink(sink)
		if *traceSp {
			observer.AddSpanSink(sink)
		}
		// Run returns when the signal context is cancelled, so closing here
		// guarantees the trace ends on a complete line even on SIGINT.
		closeTrace = func() {
			if err := sink.Close(); err != nil {
				log.Printf("node %d: closing trace: %v", *id, err)
			}
			fh.Close()
		}
	}
	logf := log.New(os.Stderr, fmt.Sprintf("node%d ", *id), log.Ltime|log.Lmicroseconds).Printf
	tr, err := buildTransport(transportOpts{
		kind:   *transport,
		listen: *listen,
		id:     *id,
		peers:  peers,
		seed:   *faultSeed,
		chaos: adversary.PacketChaos{
			DropP:    *faultDrop,
			DupP:     *faultDup,
			ReorderP: *faultReo,
			DelayMax: simtime.Duration(faultDel.Seconds()),
		},
		logf: logf,
	})
	if err != nil {
		if closeTrace != nil {
			closeTrace()
		}
		return err
	}
	node, err := livenet.New(livenet.Config{
		ID:          *id,
		F:           *f,
		Listen:      *listen,
		Peers:       peers,
		SyncInt:     *syncInt,
		MaxWait:     *maxWait,
		WayOff:      *wayOff,
		Key:         []byte(*key),
		Transport:   tr,
		Retry:       livenet.RetryConfig{Attempts: *retryAtt, Initial: *retryInit},
		DarkAfter:   *darkAfter,
		SimOffset:   *offset,
		SimDriftPPM: *drift,
		Serve:       livenet.ServeConfig{Addr: *serve},
		Ops: livenet.OpsConfig{
			Observer:   observer,
			SpanBuffer: *spanBuf,
			Logf:       logf,
		},
	})
	if err != nil {
		if tr != nil {
			tr.Close()
		}
		if closeTrace != nil {
			closeTrace()
		}
		return err
	}
	if closeTrace != nil {
		defer closeTrace()
	}
	// Route the fault transport's injection counters onto the node's own
	// recorder so clocksync_faultnet_* shows up on this node's /metrics.
	if ft, ok := tr.(*livenet.FaultTransport); ok {
		ft.SetRecorder(node.Metrics())
	}
	log.Printf("node %d listening on %s with %d peers (f=%d, transport=%s)", *id, node.Addr(), len(peers), *f, *transport)
	if *serve != "" {
		log.Printf("node %d serving time queries on %s", *id, node.ServeAddr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metrics != "" {
		addr, err := node.ServeMetrics(ctx, *metrics)
		if err != nil {
			return err
		}
		log.Printf("node %d observability endpoint at http://%s/metrics (/status, pprof under /debug/pprof)", *id, addr)
	}

	if *report > 0 {
		go func() {
			ticker := time.NewTicker(*report)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					st := node.Statusz()
					reachable := 0
					for _, p := range st.Peers {
						if p.Replies > 0 && p.AgeSec < 3*syncInt.Seconds() {
							reachable++
						}
					}
					log.Printf("node %d: offset %v after %d syncs, last adjust %v, %d/%d peers reachable",
						*id, seconds(st.OffsetSec), st.Syncs, seconds(st.LastAdjustSec), reachable, len(st.Peers))
				}
			}
		}()
	}
	return node.Run(ctx)
}

// seconds renders a status document's seconds field as a duration, to the
// microsecond.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

// transportOpts collects everything buildTransport needs, so tests can
// exercise the selection logic without flag plumbing.
type transportOpts struct {
	kind   string
	listen string
	id     int
	peers  map[int]string
	seed   int64
	chaos  adversary.PacketChaos
	logf   func(format string, args ...any)
}

// buildTransport resolves the -transport flag. "udp" returns nil — livenet
// opens its own socket on the listen address — while "faultudp" opens the
// socket here and wraps it in a seeded FaultTransport applying the ambient
// -fault-* chaos to this node's outbound traffic (structured crash/partition
// schedules are a harness feature; the CLI exposes the ambient knobs).
func buildTransport(o transportOpts) (livenet.Transport, error) {
	switch o.kind {
	case "udp":
		if !o.chaos.Zero() {
			return nil, fmt.Errorf("-fault-drop/-dup/-reorder/-delay-max need -transport faultudp")
		}
		return nil, nil
	case "faultudp":
		if err := o.chaos.Validate(); err != nil {
			return nil, err
		}
		udp, err := livenet.NewUDPTransport(o.listen)
		if err != nil {
			return nil, err
		}
		// The schedule speaks node ids; invert the peer table so fault
		// decisions can resolve datagram addresses back to them.
		byAddr := make(map[string]int, len(o.peers))
		for pid, addr := range o.peers {
			byAddr[addr] = pid
		}
		return livenet.NewFaultTransport(udp, livenet.FaultConfig{
			Seed:     o.seed,
			Node:     o.id,
			Schedule: adversary.NetSchedule{Chaos: o.chaos},
			Resolve: func(addr string) int {
				if pid, ok := byAddr[addr]; ok {
					return pid
				}
				return -1
			},
			Logf: o.logf,
		}), nil
	default:
		return nil, fmt.Errorf("unknown -transport %q (want udp or faultudp)", o.kind)
	}
}

// parsePeers parses "1=host:port,2=host:port" into a peer table via the
// shared helper, naming the flag in the empty-list error.
func parsePeers(arg string, self int) (map[int]string, error) {
	peers, err := cliutil.ParsePeers(arg, self)
	if err != nil {
		if strings.TrimSpace(arg) == "" {
			return nil, fmt.Errorf("missing -peers")
		}
		return nil, err
	}
	return peers, nil
}
