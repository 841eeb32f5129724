package livenet

import (
	"fmt"
	"net"
	"sync"
)

// Transport is the wire under a live Node: an unreliable, unordered
// datagram service addressed by opaque strings. The default is real UDP
// (NewUDPTransport); tests and in-process chaos clusters use the memory
// transport (MemNetwork); FaultTransport wraps any of them with
// deterministic fault injection. A Node never touches sockets directly —
// everything it sends or receives flows through its Transport, which is
// what makes the live path testable under message loss, partitions and
// crashes without leaving the process.
//
// Implementations must allow concurrent WriteTo calls and a concurrent
// ReadFrom; Close must unblock a pending ReadFrom. Neither call keeps the
// caller's buffer: WriteTo has copied or sent data by the time it returns,
// and ReadFrom copies into buf, so callers may reuse both. The from that
// ReadFrom reports is stable for a given sender — the same string for every
// datagram it sends, and one WriteTo accepts as a destination.
type Transport interface {
	// ReadFrom blocks until a datagram arrives, copies it into buf, and
	// returns its length and the sender's address. It returns an error
	// after Close.
	ReadFrom(buf []byte) (n int, from string, err error)
	// WriteTo sends one datagram. Delivery is best-effort: like UDP, a nil
	// error does not mean the peer received it.
	WriteTo(data []byte, to string) error
	// LocalAddr returns the transport's own address, in the same namespace
	// peers use to reach it.
	LocalAddr() string
	// Close releases the transport and unblocks pending reads.
	Close() error
}

// addrChecker is implemented by transports that can vet a peer address
// without sending to it; Node.SetPeers uses it to fail fast on typos.
type addrChecker interface {
	CheckAddr(addr string) error
}

// UDPTransport is the production Transport: one UDP socket, string
// addresses in host:port form. Destination addresses are resolved once and
// cached.
type UDPTransport struct {
	conn *net.UDPConn

	mu       sync.Mutex
	resolved map[string]*net.UDPAddr
}

// NewUDPTransport opens a UDP socket on listen (use "127.0.0.1:0" for an
// OS-assigned port).
func NewUDPTransport(listen string) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: resolving listen address: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listening: %w", err)
	}
	return &UDPTransport{conn: conn, resolved: make(map[string]*net.UDPAddr)}, nil
}

// ReadFrom implements Transport.
func (t *UDPTransport) ReadFrom(buf []byte) (int, string, error) {
	n, raddr, err := t.conn.ReadFromUDP(buf)
	if err != nil {
		return 0, "", err
	}
	return n, raddr.String(), nil
}

// WriteTo implements Transport.
func (t *UDPTransport) WriteTo(data []byte, to string) error {
	ua, err := t.resolve(to)
	if err != nil {
		return err
	}
	_, err = t.conn.WriteToUDP(data, ua)
	return err
}

func (t *UDPTransport) resolve(addr string) (*net.UDPAddr, error) {
	t.mu.Lock()
	ua, ok := t.resolved[addr]
	t.mu.Unlock()
	if ok {
		return ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: resolving %s: %w", addr, err)
	}
	t.mu.Lock()
	t.resolved[addr] = ua
	t.mu.Unlock()
	return ua, nil
}

// CheckAddr implements addrChecker by resolving (and caching) the address.
func (t *UDPTransport) CheckAddr(addr string) error {
	_, err := t.resolve(addr)
	return err
}

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Close implements Transport.
func (t *UDPTransport) Close() error { return t.conn.Close() }
