package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"clocksync/internal/obs"
)

// The time-serving wire protocol: a fixed-size binary 4-timestamp exchange
// in the NTP mold, carried over the same Transport abstraction as the sync
// protocol so it works identically over real UDP, the in-process MemNetwork
// and a fault-injecting FaultTransport.
//
//	client                             node
//	  | -- query {nonce, T1} ------------> |  T2 = node clock at receipt
//	  |                                    |  T3 = node clock at transmit
//	  | <- reply {nonce, T1, T2, T3,       |
//	  |           uncertainty, epoch, id}  |
//	  T4 = client clock at receipt
//
// The client recovers offset θ = ((T2−T1)+(T3−T4))/2 and round-trip network
// delay λ = (T4−T1)−(T3−T2). θ's error against the node's clock is bounded
// by λ/2 (the RTT-asymmetry bound: however the delay splits between the two
// directions, the midpoint estimate is off by at most half the total), so
// the client's reading carries uncertainty = node uncertainty + λ/2 — the
// node's own Theorem 5-derived envelope widened by the link, never a bare
// timestamp.
//
// Serve and sync packets are one family (wire.go): they share the magic
// and header, and the mode byte splits the two wires, so both protocols
// share one socket. Serve packets are unauthenticated by design — a public
// time service answers anyone, and a reading's validity is judged by its
// uncertainty interval, not by who transported it. Deployments that need
// authenticated time should front the serve port the same way they would
// front an NTP pool.

// Serve wire constants. Packet sizes are exact at each of the two valid
// lengths: the base layout, or the base layout plus the trace-context
// extension. Any other length is rejected.
const (
	serveMagic   uint16 = 0x4353 // "CS", shared with the sync wire
	serveVersion byte   = 1

	serveModeQuery byte = 1
	serveModeReply byte = 2

	// ServeQuerySize is the exact length of an untraced query datagram.
	ServeQuerySize = 20
	// ServeReplySize is the exact length of an untraced reply datagram.
	ServeReplySize = 56

	// serveExtSize is the trailing trace-context extension: span id (8) +
	// origin node (4), big-endian. A traced client appends it to its query;
	// the node echoes it on the reply and records a "serve" span under the
	// propagated id. Version-1 decoders written before the extension existed
	// rejected the longer packets outright (never misparsed them), so the
	// extension is additive for every reader that accepts it and safely
	// refused by those that predate it.
	serveExtSize = 12

	// ServeQueryMaxSize is the length of a query carrying trace context.
	ServeQueryMaxSize = ServeQuerySize + serveExtSize
	// ServeReplyMaxSize is the length of a reply carrying trace context.
	ServeReplyMaxSize = ServeReplySize + serveExtSize
)

// ServeQuery is a client's time request: an opaque pairing nonce and the
// client clock at transmission (T1), in Unix nanoseconds.
//
// Traced, when set, appends the trace-context extension: Span is the
// client's span id for this exchange and Origin the client's fleet node id,
// so the span the client records and the "serve" span the node records share
// an id and an aggregator can join them across machines. Untraced queries
// encode to exactly the pre-extension bytes.
type ServeQuery struct {
	Nonce uint64
	T1    int64

	Traced bool
	Span   uint64
	Origin uint32
}

// ServeReply is a node's answer: the echoed nonce and T1, the node clock at
// receipt (T2) and at transmission (T3) in Unix nanoseconds, the node's own
// uncertainty half-width at T3, the sync epoch the reading derives from, and
// the node id.
// Traced/Span/Origin echo the query's trace-context extension so the client
// can confirm the join id round-tripped; an untraced query always yields an
// untraced reply.
type ServeReply struct {
	Nonce       uint64
	T1          int64
	T2          int64
	T3          int64
	Uncertainty time.Duration
	Epoch       uint64
	Node        uint32

	Traced bool
	Span   uint64
	Origin uint32
}

// Serve packet layout offsets (big-endian). The header is shared:
// magic(2) version(1) mode(1) nonce(8) t1(8); replies continue with
// t2(8) t3(8) uncertainty(8) epoch(8) node(4).
const (
	serveOffMagic   = 0
	serveOffVersion = 2
	serveOffMode    = 3
	serveOffNonce   = 4
	serveOffT1      = 12
	serveOffT2      = 20
	serveOffT3      = 28
	serveOffUnc     = 36
	serveOffEpoch   = 44
	serveOffNode    = 52
)

// Packet codec errors, shared by the serve and sync decoders. Decoders
// return them (the serve ones wrapped with detail) instead of panicking,
// whatever the input bytes — truncated, oversized or hostile.
var (
	ErrServeBadMagic   = errors.New("livenet: not a serve or sync packet")
	ErrServeBadLength  = errors.New("livenet: packet has wrong length")
	ErrServeBadVersion = errors.New("livenet: unsupported packet version")
	ErrServeBadMode    = errors.New("livenet: unexpected packet mode")
)

// isServePacket reports whether b starts with the packet family's magic
// (serve or sync; full validation happens in the decoders).
func isServePacket(b []byte) bool {
	return len(b) >= 2 && binary.BigEndian.Uint16(b[serveOffMagic:]) == serveMagic
}

// EncodeServeQuery writes q into buf, which must have room for
// ServeQueryMaxSize bytes when q.Traced and ServeQuerySize otherwise, and
// returns the encoded slice. Passing a stack-allocated or reused buffer keeps
// the hot path allocation-free.
func EncodeServeQuery(buf []byte, q ServeQuery) []byte {
	b := buf[:ServeQuerySize]
	binary.BigEndian.PutUint16(b[serveOffMagic:], serveMagic)
	b[serveOffVersion] = serveVersion
	b[serveOffMode] = serveModeQuery
	binary.BigEndian.PutUint64(b[serveOffNonce:], q.Nonce)
	binary.BigEndian.PutUint64(b[serveOffT1:], uint64(q.T1))
	if q.Traced {
		b = buf[:ServeQueryMaxSize]
		binary.BigEndian.PutUint64(b[ServeQuerySize:], q.Span)
		binary.BigEndian.PutUint32(b[ServeQuerySize+8:], q.Origin)
	}
	return b
}

// DecodeServeQuery parses a query datagram, rejecting anything that is not
// exactly a version-1 query at one of the two valid lengths (with or without
// the trace-context extension).
func DecodeServeQuery(b []byte) (ServeQuery, error) {
	if !isServePacket(b) {
		return ServeQuery{}, ErrServeBadMagic
	}
	if len(b) != ServeQuerySize && len(b) != ServeQueryMaxSize {
		return ServeQuery{}, fmt.Errorf("%w: got %d bytes, want %d or %d", ErrServeBadLength, len(b), ServeQuerySize, ServeQueryMaxSize)
	}
	if b[serveOffVersion] != serveVersion {
		return ServeQuery{}, fmt.Errorf("%w: got %d, want %d", ErrServeBadVersion, b[serveOffVersion], serveVersion)
	}
	if b[serveOffMode] != serveModeQuery {
		return ServeQuery{}, fmt.Errorf("%w: got %d, want query (%d)", ErrServeBadMode, b[serveOffMode], serveModeQuery)
	}
	q := ServeQuery{
		Nonce: binary.BigEndian.Uint64(b[serveOffNonce:]),
		T1:    int64(binary.BigEndian.Uint64(b[serveOffT1:])),
	}
	if len(b) == ServeQueryMaxSize {
		q.Traced = true
		q.Span = binary.BigEndian.Uint64(b[ServeQuerySize:])
		q.Origin = binary.BigEndian.Uint32(b[ServeQuerySize+8:])
	}
	return q, nil
}

// EncodeServeReply writes r into buf, which must have room for
// ServeReplyMaxSize bytes when r.Traced and ServeReplySize otherwise, and
// returns the encoded slice.
func EncodeServeReply(buf []byte, r ServeReply) []byte {
	b := buf[:ServeReplySize]
	binary.BigEndian.PutUint16(b[serveOffMagic:], serveMagic)
	b[serveOffVersion] = serveVersion
	b[serveOffMode] = serveModeReply
	binary.BigEndian.PutUint64(b[serveOffNonce:], r.Nonce)
	binary.BigEndian.PutUint64(b[serveOffT1:], uint64(r.T1))
	binary.BigEndian.PutUint64(b[serveOffT2:], uint64(r.T2))
	binary.BigEndian.PutUint64(b[serveOffT3:], uint64(r.T3))
	binary.BigEndian.PutUint64(b[serveOffUnc:], uint64(r.Uncertainty))
	binary.BigEndian.PutUint64(b[serveOffEpoch:], r.Epoch)
	binary.BigEndian.PutUint32(b[serveOffNode:], r.Node)
	if r.Traced {
		b = buf[:ServeReplyMaxSize]
		binary.BigEndian.PutUint64(b[ServeReplySize:], r.Span)
		binary.BigEndian.PutUint32(b[ServeReplySize+8:], r.Origin)
	}
	return b
}

// DecodeServeReply parses a reply datagram, rejecting anything that is not
// exactly a version-1 reply at one of the two valid lengths (with or without
// the trace-context extension).
func DecodeServeReply(b []byte) (ServeReply, error) {
	if !isServePacket(b) {
		return ServeReply{}, ErrServeBadMagic
	}
	if len(b) != ServeReplySize && len(b) != ServeReplyMaxSize {
		return ServeReply{}, fmt.Errorf("%w: got %d bytes, want %d or %d", ErrServeBadLength, len(b), ServeReplySize, ServeReplyMaxSize)
	}
	if b[serveOffVersion] != serveVersion {
		return ServeReply{}, fmt.Errorf("%w: got %d, want %d", ErrServeBadVersion, b[serveOffVersion], serveVersion)
	}
	if b[serveOffMode] != serveModeReply {
		return ServeReply{}, fmt.Errorf("%w: got %d, want reply (%d)", ErrServeBadMode, b[serveOffMode], serveModeReply)
	}
	r := ServeReply{
		Nonce:       binary.BigEndian.Uint64(b[serveOffNonce:]),
		T1:          int64(binary.BigEndian.Uint64(b[serveOffT1:])),
		T2:          int64(binary.BigEndian.Uint64(b[serveOffT2:])),
		T3:          int64(binary.BigEndian.Uint64(b[serveOffT3:])),
		Uncertainty: time.Duration(binary.BigEndian.Uint64(b[serveOffUnc:])),
		Epoch:       binary.BigEndian.Uint64(b[serveOffEpoch:]),
		Node:        binary.BigEndian.Uint32(b[serveOffNode:]),
	}
	if len(b) == ServeReplyMaxSize {
		r.Traced = true
		r.Span = binary.BigEndian.Uint64(b[ServeReplySize:])
		r.Origin = binary.BigEndian.Uint32(b[ServeReplySize+8:])
	}
	return r, nil
}

// ServeConfig configures a node's client-facing time service. The zero value
// disables the dedicated serve endpoint; serve queries arriving on the
// node's sync transport are always answered regardless, so a dedicated
// endpoint is for isolating heavy client traffic from protocol traffic (its
// loop never touches the sync path's state beyond the atomic snapshot).
type ServeConfig struct {
	// Addr, when non-empty, opens a dedicated UDP serve socket there when
	// the node is created (use "127.0.0.1:0" for an OS-assigned port; read
	// it back with Node.ServeAddr). Ignored when Transport is set.
	Addr string
	// Transport, when non-nil, carries serve traffic instead of a UDP
	// socket on Addr — the seam that lets tests and benchmarks serve over
	// MemNetwork or through a FaultTransport. The node owns it and closes
	// it when Run returns.
	Transport Transport
}

// validate checks the serve settings.
func (s ServeConfig) validate() error {
	if s.Transport == nil && s.Addr != "" {
		return validateHostPort("Serve.Addr", s.Addr)
	}
	return nil
}

// enabled reports whether a dedicated serve endpoint was requested.
func (s ServeConfig) enabled() bool { return s.Transport != nil || s.Addr != "" }

// ServeAddr returns the bound address of the dedicated serve endpoint, or ""
// when none is configured.
func (n *Node) ServeAddr() string {
	if n.serveTr == nil {
		return ""
	}
	return n.serveTr.LocalAddr()
}

// answerServe replies to one serve query. buf holds the raw datagram;
// scratch is the caller's reuse buffer for the reply and tr the transport
// the query arrived on (each read loop owns both), keeping the per-query
// path free of allocations outside the transport. Malformed serve-magic
// datagrams are counted and dropped.
func (n *Node) answerServe(buf []byte, from string, scratch []byte, tr Transport) {
	// ServeLatency is sampled 1-in-64 (cheap counter mask, no RNG) so the
	// reply p50/p95/p99 surface stays live without putting two extra
	// time.Now() calls on every query of a multi-Mqps hot path.
	sampled := n.rec.ServeQueries.Load()&63 == 0
	var begin time.Time
	if sampled {
		begin = time.Now()
	}
	q, err := DecodeServeQuery(buf)
	if err != nil {
		n.rec.ServeBad.Inc()
		return
	}
	// One snapshot read serves as both T2 (receipt) and T3 (transmit): the
	// nanoseconds of decode between them are far below the reading's own
	// uncertainty floor, and T2 = T3 only makes the client's λ accounting
	// conservative (server processing time counts as network delay).
	r := n.Read()
	t := r.Time.UnixNano()
	reply := EncodeServeReply(scratch, ServeReply{
		Nonce:       q.Nonce,
		T1:          q.T1,
		T2:          t,
		T3:          t,
		Uncertainty: r.Uncertainty,
		Epoch:       r.Epoch,
		Node:        uint32(n.cfg.ID),
		Traced:      q.Traced,
		Span:        q.Span,
		Origin:      q.Origin,
	})
	if err := tr.WriteTo(reply, from); err != nil {
		n.rec.ServeDropped.Inc()
		return
	}
	n.rec.ServeQueries.Inc()
	if sampled {
		n.rec.ServeLatency.Observe(time.Since(begin).Seconds())
	}
	// A traced query gets a "serve" span under the client's propagated id:
	// the server half of the cross-node join. Zero-duration at the reading
	// instant; node_time is exactly the T2=T3 value the client folds into θ.
	if o := n.cfg.Ops.Observer; q.Traced && q.Span != 0 && o.SpansEnabled() {
		nowU := unixNow()
		o.EmitSpan(obs.Span{
			ID: obs.SpanID(q.Span), Name: obs.SpanServe, Node: n.cfg.ID,
			Start: nowU, End: nowU,
			Fields: obs.F("origin", float64(q.Origin)).
				F("node_time", float64(t)/1e9).
				F("unc", r.Uncertainty.Seconds()).
				F("epoch", float64(r.Epoch)),
		})
	}
}

// serveLoop answers time queries on the dedicated serve transport until it
// is closed. It reads nothing but serve packets: sync traffic does not
// arrive here, and anything unrecognized is counted and dropped.
func (n *Node) serveLoop() {
	buf := make([]byte, 2048)
	scratch := make([]byte, ServeReplyMaxSize)
	for {
		nr, from, err := n.serveTr.ReadFrom(buf)
		if err != nil {
			return // closed (shutdown) or fatal; either way the loop is done
		}
		if !isServePacket(buf[:nr]) {
			n.rec.ServeBad.Inc()
			continue
		}
		n.answerServe(buf[:nr], from, scratch, n.serveTr)
	}
}
