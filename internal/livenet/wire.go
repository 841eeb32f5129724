package livenet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// The sync wire: the two-party estimation exchange of §3.1, in the serve
// codec's packet family. A requester sends a query; the peer answers with its
// clock C, which the requester brackets between its send instant S and its
// receipt instant R. Sync packets share the serve header — magic "CS",
// version, mode, nonce — and the mode byte splits the two wires on one
// socket:
//
//	offset  size  field
//	0       2     magic "CS"
//	2       1     version (1)
//	3       1     mode: 3 sync query, 4 sync reply (1 and 2 are serve.go's)
//	4       8     nonce, pairing a reply with its query
//	12      4     from: the sender's node id
//	16      8     clock: the responder's clock in Unix nanoseconds (0 on queries)
//	24      32    HMAC-SHA256 tag, present exactly when the sender is keyed
//	24|56   16    trace trailer: span (8), epoch (8); traced queries only
//
// So a packet is 24, 40, 56 or 72 bytes long, and every other length is
// refused. Integers are big-endian. A layout with more timestamps is a new
// version, which version-1 decoders refuse rather than misparse.
//
// The tag covers the protocol fields only: uint64(from), nonce,
// uint64(clock), the version byte and the type (0 query, 1 reply) — the same
// 26 bytes, in the same order, that the JSON wire this replaced signed, so
// tags are unchanged (testdata/wire_mac.golden). Trace context is outside
// the MAC: it is observability metadata, never protocol input, and forging
// it can only pollute telemetry, not clocks.
const (
	syncModeQuery byte = 3
	syncModeReply byte = 4

	syncOffFrom   = 12
	syncOffClock  = 16
	syncBaseSize  = 24
	syncTagSize   = sha256.Size
	syncTraceSize = 16
	syncMaxSize   = syncBaseSize + syncTagSize + syncTraceSize

	syncMACInputSize = 8 + 8 + 8 + 2
)

// syncMsg is one sync datagram: a query asking the receiver for its clock,
// or the reply carrying it. span and epoch are the requester's trace
// context — its estimate span's ID and its sync epoch at send — under which
// the responder records its half of the exchange, so the two sides join
// across process boundaries; traced says whether the trailer is on the wire.
type syncMsg struct {
	reply bool
	from  uint32
	nonce uint64
	clock int64

	traced bool
	span   uint64
	epoch  uint64
}

// packetMode is the mode byte of a datagram in the "CS" family, or 0 when b
// carries no such header.
func packetMode(b []byte) byte {
	if len(b) <= serveOffMode || !isServePacket(b) {
		return 0
	}
	return b[serveOffMode]
}

// encodeSync writes m into buf, followed by tag (nil on an unkeyed node) and,
// when m is traced, the trace trailer, and returns the encoded slice. buf
// must have room for syncMaxSize bytes.
func encodeSync(buf []byte, m syncMsg, tag []byte) []byte {
	mode := syncModeQuery
	if m.reply {
		mode = syncModeReply
	}
	b := binary.BigEndian.AppendUint16(buf[:0], serveMagic)
	b = append(b, serveVersion, mode)
	b = binary.BigEndian.AppendUint64(b, m.nonce)
	b = binary.BigEndian.AppendUint32(b, m.from)
	b = binary.BigEndian.AppendUint64(b, uint64(m.clock))
	b = append(b, tag...)
	if m.traced {
		b = binary.BigEndian.AppendUint64(b, m.span)
		b = binary.BigEndian.AppendUint64(b, m.epoch)
	}
	return b
}

// decodeSync parses a sync datagram and returns its tag, aliasing b, or nil
// when the packet carries none. It refuses anything that is not exactly a
// version-1 sync query or reply at one of the four valid lengths, and
// returns the serve codec's errors, without allocating, for every refusal.
func decodeSync(b []byte) (m syncMsg, tag []byte, err error) {
	switch {
	case !isServePacket(b):
		return m, nil, ErrServeBadMagic
	case len(b) <= serveOffMode:
		return m, nil, ErrServeBadLength
	case b[serveOffVersion] != serveVersion:
		return m, nil, ErrServeBadVersion
	case b[serveOffMode] != syncModeQuery && b[serveOffMode] != syncModeReply:
		return m, nil, ErrServeBadMode
	}
	switch len(b) - syncBaseSize {
	case 0:
	case syncTraceSize:
		m.traced = true
	case syncTagSize:
		tag = b[syncBaseSize:]
	case syncTagSize + syncTraceSize:
		tag, m.traced = b[syncBaseSize:syncBaseSize+syncTagSize], true
	default:
		return m, nil, ErrServeBadLength
	}
	m.reply = b[serveOffMode] == syncModeReply
	m.nonce = binary.BigEndian.Uint64(b[serveOffNonce:])
	m.from = binary.BigEndian.Uint32(b[syncOffFrom:])
	m.clock = int64(binary.BigEndian.Uint64(b[syncOffClock:]))
	if m.traced {
		trailer := b[len(b)-syncTraceSize:]
		m.span = binary.BigEndian.Uint64(trailer)
		m.epoch = binary.BigEndian.Uint64(trailer[8:])
	}
	return m, tag, nil
}

// syncSigner signs, verifies and encodes sync packets for one goroutine. Its
// keyed HMAC is built once and Reset per packet, and the MAC input, the sum
// and the encode buffer are fields, so a packet costs no heap. A hash.Hash
// is not safe for concurrent use: every goroutine that signs or verifies
// owns its own signer.
type syncSigner struct {
	mac hash.Hash // nil on an unkeyed node
	in  [syncMACInputSize]byte
	sum [syncTagSize]byte
	out [syncMaxSize]byte
}

func newSyncSigner(key []byte) *syncSigner {
	s := &syncSigner{}
	if len(key) > 0 {
		s.mac = hmac.New(sha256.New, key)
	}
	return s
}

// tag returns m's authentication tag, or nil on an unkeyed node. The slice is
// the signer's and is overwritten by the next call.
func (s *syncSigner) tag(m syncMsg) []byte {
	if s.mac == nil {
		return nil
	}
	binary.BigEndian.PutUint64(s.in[0:], uint64(m.from))
	binary.BigEndian.PutUint64(s.in[8:], m.nonce)
	binary.BigEndian.PutUint64(s.in[16:], uint64(m.clock))
	s.in[24] = serveVersion
	s.in[25] = 0
	if m.reply {
		s.in[25] = 1
	}
	s.mac.Reset()
	s.mac.Write(s.in[:])
	return s.mac.Sum(s.sum[:0])
}

// verify reports whether tag authenticates m. An unkeyed node accepts every
// packet, tagged or not; a keyed one refuses a packet without a tag.
func (s *syncSigner) verify(m syncMsg, tag []byte) bool {
	return s.mac == nil || hmac.Equal(tag, s.tag(m))
}

// encode signs m and encodes it into the signer's buffer, which the next
// call overwrites.
func (s *syncSigner) encode(m syncMsg) []byte {
	return encodeSync(s.out[:], m, s.tag(m))
}
