package obs

import (
	"encoding/json"
	"sort"
	"sync"
)

// The span layer makes a round's outcome causally traceable to individual
// messages: each Sync execution opens a round span whose children are one
// estimation span per peer (send → reply or timeout), one reading span per
// estimate (accepted or trimmed by the convergence function), and one
// adjustment span. Counters say *that* a bound was approached; the span tree
// says *which* peer estimate, timeout or trimmed reading pulled the
// convergence function there.
//
// Spans are emitted on completion, not opened/closed through the observer:
// the instrumented layers guard every span construction with
// Observer.SpansEnabled(), so with no span sink attached the fast path costs
// one atomic load and zero allocations (TestObserverDisabledAllocFree asserts
// this).

// SpanID identifies a span within one Observer's stream. IDs are assigned
// from Observer.NextSpanID, never reused, and never zero; zero means "no
// span" (tracing disabled, or a root span's missing parent).
type SpanID uint64

// Span names emitted by the instrumented layers. Consumers must accept
// unknown names, as with event kinds.
const (
	SpanRound    = "round"    // one Sync execution, estimation start → adjustment
	SpanEstimate = "estimate" // one peer estimation, send → reply/timeout
	SpanReading  = "reading"  // the convergence function's verdict on one estimate
	SpanAdjust   = "adjust"   // the adjustment step of a round

	// Cross-node telemetry spans. These carry a span ID *propagated over the
	// wire* rather than issued locally: the responder records its side of an
	// exchange under the requester's span ID, so a fleet aggregator
	// (internal/telemetry) can join the two halves recorded on different
	// nodes. They are observability metadata, not protocol state — the
	// conformance checker counts and ignores them.
	SpanReply = "reply" // responder's view of one estimate exchange (joins to "estimate")
	SpanServe = "serve" // server's view of one serve query (joins to "query")
	SpanQuery = "query" // client's view of one serve exchange, send → reply
)

// maxSpanFields bounds the inline field storage of a Span. The widest span
// the instrumented layers emit is a reading span with six fields; the cap
// leaves headroom without bloating every Span copy.
const maxSpanFields = 8

// Field is one key→value entry of a span's numeric payload.
type Field struct {
	Key string
	Val float64
}

// Fields is a span's numeric payload: a small ordered key→value set stored
// inline (no heap allocation), built by chaining F calls:
//
//	obs.F("peer", 3).F("rtt", 0.04)
//
// Emitting a span is on the per-round hot path of every traced protocol
// execution; inline fields are what keep a fully traced round allocation-free
// (BenchmarkRoundSpan pins this). Fields hold at most maxSpanFields entries;
// exceeding the cap panics, as it is always an instrumentation bug. The JSON
// encoding is an object with sorted keys, byte-compatible with the
// map[string]float64 encoding earlier releases used.
type Fields struct {
	n  int32
	kv [maxSpanFields]Field
}

// F starts a field set with one entry. It is the head of the builder chain.
func F(key string, val float64) Fields {
	var f Fields
	return f.F(key, val)
}

// F returns a copy of the set with one more entry appended.
func (f Fields) F(key string, val float64) Fields {
	if int(f.n) == len(f.kv) {
		panic("obs: span field cap exceeded")
	}
	f.kv[f.n] = Field{Key: key, Val: val}
	f.n++
	return f
}

// Len returns the number of entries.
func (f Fields) Len() int { return int(f.n) }

// Get returns the value for key, or 0 when absent — mirroring map indexing,
// which consumers of the previous representation relied on.
func (f Fields) Get(key string) float64 {
	v, _ := f.Lookup(key)
	return v
}

// Lookup returns the value for key and whether it is present.
func (f Fields) Lookup(key string) (float64, bool) {
	for i := 0; i < int(f.n); i++ {
		if f.kv[i].Key == key {
			return f.kv[i].Val, true
		}
	}
	return 0, false
}

// Each calls fn for every entry in insertion order.
func (f Fields) Each(fn func(key string, val float64)) {
	for i := 0; i < int(f.n); i++ {
		fn(f.kv[i].Key, f.kv[i].Val)
	}
}

// Map returns the entries as a freshly allocated map, for consumers that
// want map semantics off the hot path.
func (f Fields) Map() map[string]float64 {
	if f.n == 0 {
		return nil
	}
	m := make(map[string]float64, f.n)
	for i := 0; i < int(f.n); i++ {
		m[f.kv[i].Key] = f.kv[i].Val
	}
	return m
}

// MarshalJSON encodes the set as a JSON object with sorted keys — the same
// bytes encoding/json produced for the map representation, so JSONL traces
// and their golden files are unchanged.
func (f Fields) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.Map())
}

// UnmarshalJSON decodes a JSON object into the set, so a Fields round-trips
// through the JSONL encoding.
func (f *Fields) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*f = Fields{}
	// Sorted insertion keeps decoding deterministic.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		*f = f.F(k, m[k])
	}
	return nil
}

// Span is one completed span. Start and End are in seconds on the same
// timebase as Event.At (simulation time for simulated runs, Unix time for
// live nodes); zero-duration spans (Start == End) mark instantaneous
// decisions such as readings. Fields carries the numeric payload inline;
// values must be finite (encoding/json rejects infinities, and sinks are
// entitled to encode).
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for roots
	Name   string
	Node   int
	Start  float64
	End    float64
	Fields Fields
}

// Dur returns the span's duration in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// SpanSink consumes completed spans. Implementations must be safe for
// concurrent EmitSpan calls: live nodes emit from several goroutines.
type SpanSink interface {
	EmitSpan(Span)
}

// SpanSinkFunc adapts a function to a SpanSink. The function must be safe
// for concurrent calls.
type SpanSinkFunc func(Span)

// EmitSpan implements SpanSink.
func (f SpanSinkFunc) EmitSpan(s Span) { f(s) }

// SpanRing is a fixed-capacity in-memory span sink keeping the most recent
// spans — the span counterpart of Ring.
type SpanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	count int
	total int64
}

// NewSpanRing returns a ring holding the last capacity spans.
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]Span, capacity)}
}

// EmitSpan implements SpanSink.
func (r *SpanRing) EmitSpan(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *SpanRing) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Total returns the number of spans ever emitted (including overwritten
// ones).
func (r *SpanRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
