package conformance

import (
	"sync"

	"clocksync/internal/obs"
)

// Collector is an in-process obs sink pair that accumulates the event and
// span stream of a run as the very records trace.Read decodes from JSONL
// (TestCollectorMatchesJSONLRoundTrip) — so a live run can be
// refinement-checked without a round-trip through a file. It is safe for
// concurrent emission (live nodes emit from several goroutines).
type Collector struct {
	mu     sync.Mutex
	events []obs.Event
}

var (
	_ obs.Sink     = (*Collector)(nil)
	_ obs.SpanSink = (*Collector)(nil)
)

// Emit implements obs.Sink.
func (c *Collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// EmitSpan implements obs.SpanSink.
func (c *Collector) EmitSpan(s obs.Span) { c.Emit(obs.SpanEvent(s)) }

// Events returns the collected stream (a copy, safe to use while emission
// continues).
func (c *Collector) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// Reset clears the collector for reuse across runs.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = c.events[:0]
	c.mu.Unlock()
}
