package livenet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestClientCloseUnblocksPendingQuery: Close returns a query that is
// waiting on a reply with ErrClosed at once, not after its timeout.
func TestClientCloseUnblocksPendingQuery(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	c, err := NewClient(ClientConfig{
		Server:    MemAddr(9), // nobody home
		Transport: mn.Transport(42),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background())
		errc <- err
	}()
	for pending := 0; pending == 0; {
		c.mu.Lock()
		pending = len(c.pending)
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	closed := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("query after Close: err = %v, want ErrClosed", err)
		}
		if d := time.Since(closed); d > 100*time.Millisecond {
			t.Fatalf("query returned %v after Close, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query still blocked 5s after Close")
	}
}

// TestClientLateReplyNeverCrossesQueries drives one client against a server
// that answers some queries twice and some only after the client has given
// up, stamping each reply's Epoch with the nonce it answers. Queries reuse
// one waiter, so a late or duplicate reply that reached a waiter after its
// query ended would surface as the next query's answer.
func TestClientLateReplyNeverCrossesQueries(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	srv := mn.Transport(1)
	go func() {
		buf := make([]byte, 2048)
		var late []byte // a withheld reply, sent just before the next one
		for {
			n, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := DecodeServeQuery(buf[:n])
			if err != nil {
				continue
			}
			reply := EncodeServeReply(make([]byte, ServeReplySize), ServeReply{
				Nonce: q.Nonce, T1: q.T1, T2: q.T1, T3: q.T1, Epoch: q.Nonce,
			})
			if late != nil {
				srv.WriteTo(late, from)
				late = nil
			}
			switch q.Nonce % 6 {
			case 0: // withheld until the client has timed out
				late = reply
				continue
			case 1, 4: // answered twice
				srv.WriteTo(reply, from)
			}
			srv.WriteTo(reply, from)
		}
	}()
	defer srv.Close()

	c, err := NewClient(ClientConfig{Server: MemAddr(1), Transport: mn.Transport(2), Timeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ok, timedOut int
	for nonce := uint64(1); nonce <= 120; nonce++ {
		r, err := c.Query(context.Background())
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
		case err != nil:
			t.Fatalf("query %d: %v", nonce, err)
		case r.Epoch != nonce:
			t.Fatalf("query %d returned the reply to query %d", nonce, r.Epoch)
		default:
			ok++
		}
	}
	if ok == 0 || timedOut == 0 {
		t.Fatalf("%d queries answered, %d timed out: the script exercised nothing", ok, timedOut)
	}
}

// TestClientQueryAllocBound pins a steady-state query over MemNetwork to
// three allocations: the snapshot it publishes for Read, and the fabric's
// heap copy of the query and of the reply. The client's own machinery —
// reply channel, timer, send buffer — allocates nothing.
func TestClientQueryAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates")
	}
	mn := NewMemNetwork(MemNetworkConfig{})
	n := readNode(t, Config{ID: 0, Transport: mn.Transport(0)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	c, err := NewClient(ClientConfig{Server: MemAddr(0), Transport: mn.Transport(42)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func() {
		if _, err := c.Query(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	query() // the first query makes the client's waiter
	if allocs := testing.AllocsPerRun(1000, query); allocs > 3 {
		t.Errorf("Client.Query allocates %v times per query, budget is 3", allocs)
	}
}
