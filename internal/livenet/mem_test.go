package livenet

import (
	"bytes"
	"testing"
)

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
