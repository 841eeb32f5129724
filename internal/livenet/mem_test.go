package livenet

import (
	"bytes"
	"testing"
)

// TestMemAddrExactSpelling: the fabric routes by the exact string MemAddr(id),
// so CheckAddr — and NewClient, which vets its server through it — accept
// that spelling and nothing else. "mem://05" used to pass as node 5, and a
// client aimed at it timed out on every query.
func TestMemAddrExactSpelling(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	tr := mn.Transport(99)
	for i, tc := range []struct {
		addr string
		ok   bool
	}{
		{"mem://0", true}, {"mem://5", true}, {"mem://1234", true},
		{"mem://05", false}, {"mem://+5", false}, {"mem://-0", false}, {"mem://-5", false},
		{"mem:// 5", false}, {"mem://5 ", false}, {"mem://", false}, {"mem://x", false},
		{"udp://5", false}, {"5", false},
	} {
		if err := tr.CheckAddr(tc.addr); (err == nil) != tc.ok {
			t.Errorf("CheckAddr(%q) = %v, want ok=%v", tc.addr, err, tc.ok)
		}
		// The client owns its transport and closes it on failure or Close.
		c, err := NewClient(ClientConfig{Server: tc.addr, Transport: mn.Transport(100 + i)})
		if (err == nil) != tc.ok {
			t.Errorf("NewClient(Server: %q) = %v, want ok=%v", tc.addr, err, tc.ok)
		}
		if c != nil {
			c.Close()
		}
	}
}

// TestMemTransportPayloadShapes checks that payloads of every size arrive
// intact, and that the writer may reuse its buffer as soon as WriteTo
// returns.
func TestMemTransportPayloadShapes(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	a, b := mn.Transport(0), mn.Transport(1)
	defer a.Close()
	defer b.Close()
	buf := make([]byte, 2048)
	for _, size := range []int{0, 1, ServeQuerySize, ServeReplyMaxSize, 1500} {
		data := bytes.Repeat([]byte{byte(size)}, size)
		want := append([]byte(nil), data...)
		if err := a.WriteTo(data, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xee // the writer reuses its buffer
		}
		n, _, err := b.ReadFrom(buf)
		if err != nil || !bytes.Equal(buf[:n], want) {
			t.Errorf("%d-byte payload: got %d bytes (err %v), want it intact", size, n, err)
		}
	}
}
