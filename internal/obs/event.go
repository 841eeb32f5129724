package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is one record of the observability stream, and the one place that
// knows its JSON encoding: JSONL writes it a line at a time, /spanz serves an
// array of it (MarshalSpans), conformance.Collector keeps it in memory, and
// trace.Read, cmd/tracestat, internal/telemetry and conformance.Check consume
// it. At is in seconds — simulation time for simulated runs, Unix time for
// live nodes. Kind names the observation; Fields carries its numeric payload
// (e.g. {"delta": 0.004} for a round). Sample records additionally carry the
// per-node bias vector and the good-set deviation.
//
// A completed span (SpanEvent) is a record of kind "span": At is the span's
// start, Name/Span/Parent its identity and Dur its duration — non-nil on
// every span record, so a zero-duration reading still writes "dur":0, and nil
// on everything else.
//
// Delta is read-only history: the "adjust" lines of archives written by the
// retired `syncsim -trace` carry their step there. No producer sets it; read
// either shape through Adjustment.
type Event struct {
	At        float64            `json:"at"`
	Kind      string             `json:"kind"`
	Node      int                `json:"node,omitempty"`
	Name      string             `json:"name,omitempty"`
	Span      uint64             `json:"span,omitempty"`
	Parent    uint64             `json:"parent,omitempty"`
	Dur       *float64           `json:"dur,omitempty"`
	Fields    map[string]float64 `json:"fields,omitempty"`
	Biases    []float64          `json:"biases,omitempty"`
	Deviation float64            `json:"deviation,omitempty"`
	Delta     float64            `json:"delta,omitempty"`
}

// SpanEvent returns the stream record of a completed span.
func SpanEvent(s Span) Event {
	dur := s.Dur()
	return Event{
		At: s.Start, Kind: KindSpan, Node: s.Node,
		Name: s.Name, Span: uint64(s.ID), Parent: uint64(s.Parent),
		Dur: &dur, Fields: s.Fields.Map(),
	}
}

// Field returns the named value from Fields (0 when absent).
func (e Event) Field(name string) float64 { return e.Fields[name] }

// Duration returns a span record's duration in seconds (0 for other records,
// and for span lines of old exports that dropped a zero "dur").
func (e Event) Duration() float64 {
	if e.Dur == nil {
		return 0
	}
	return *e.Dur
}

// Adjustment returns the step the record says Node applied to its clock: a
// round event's fields.delta, or a legacy adjust line's delta. The two are
// the same fact, so consumers count them through this one accessor.
func (e Event) Adjustment() (delta float64, ok bool) {
	switch e.Kind {
	case KindRound:
		return e.Fields["delta"], true
	case KindAdjust:
		return e.Delta, true
	}
	return 0, false
}

// Standard event kinds emitted by the instrumented layers. Sinks must accept
// unknown kinds: layers may add new ones.
const (
	KindRound    = "round"    // a node stepped its clock by fields.delta; Sync adds failed, wayoff
	KindSkip     = "skip"     // a Sync execution that applied no adjustment
	KindCorrupt  = "corrupt"  // the adversary broke into a node
	KindRelease  = "release"  // the adversary left a node
	KindAuthFail = "authfail" // a message failed HMAC verification
	KindTimeout  = "timeout"  // a peer estimation hit MaxWait; fields: peer
	KindSample   = "sample"   // a measurement sample; carries Biases and Deviation
	// Peer-health transitions of the live degradation path; fields: peer,
	// and (for peerdark) fails = the consecutive-failure count that tripped.
	KindPeerDark   = "peerdark"   // a peer stopped answering and was marked dark
	KindPeerBright = "peerbright" // a dark peer answered and rejoined the wait set

	KindSpan   = "span"   // a completed span (SpanEvent); uses Name, Span, Parent, Dur
	KindAdjust = "adjust" // legacy, read only: an adjustment line of a `syncsim -trace` archive
)

// Sink consumes events. Implementations must be safe for concurrent Emit
// calls: live nodes emit from several goroutines.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to a Sink. The function must be safe for
// concurrent calls.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Ring is a fixed-capacity in-memory sink keeping the most recent events —
// the "flight recorder" for tests and post-mortem inspection.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int
	total int64
}

// NewRing returns a ring holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Total returns the number of events ever emitted (including overwritten
// ones).
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// JSONL streams events — and, since it also implements SpanSink, spans — to a
// writer as JSON lines. Both go through Emit, one encoder under one mutex, so
// a single trace file interleaves them without torn lines. Encoding errors are
// sticky and reported by Flush, so an unwritable trace never corrupts a run.
type JSONL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	err    error
	closed bool
}

// NewJSONL returns a sink writing one JSON object per line to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	if j.err == nil && !j.closed {
		j.err = j.enc.Encode(e)
	}
	j.mu.Unlock()
}

// EmitSpan implements SpanSink.
func (j *JSONL) EmitSpan(s Span) { j.Emit(SpanEvent(s)) }

// MarshalSpans encodes spans as a JSON array of their stream records — each
// element byte-identical to the JSONL line of the same span, so trace.ReadJSON
// decodes it. The /spanz endpoint of a live node serves this shape and the
// telemetry scraper parses it.
func MarshalSpans(spans []Span) ([]byte, error) {
	recs := make([]Event, len(spans))
	for i, s := range spans {
		recs[i] = SpanEvent(s)
	}
	return json.Marshal(recs)
}

// Flush drains the buffer and returns the first error encountered, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Close flushes and marks the sink closed: later Emit/EmitSpan calls are
// dropped. Because the encoder writes whole lines under the mutex, a closed
// and flushed trace file always ends on a complete line even if other
// goroutines are still emitting — the graceful-shutdown guarantee syncnode
// and syncsim rely on.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Observer bundles a Recorder with an event stream and a span stream: the
// single handle the instrumented layers write to and the public API hands
// around. A nil *Observer is valid and discards everything, so call sites
// need no guards.
type Observer struct {
	rec *Recorder

	hasSpans atomic.Bool   // true once a span sink is attached
	spanID   atomic.Uint64 // last issued SpanID

	mu        sync.Mutex
	sinks     []Sink
	spanSinks []SpanSink
	counts    map[string]int64
}

// NewObserver returns an observer with a fresh Recorder, fanning events out
// to the given sinks.
func NewObserver(sinks ...Sink) *Observer {
	return &Observer{rec: NewRecorder(), sinks: sinks, counts: make(map[string]int64)}
}

// Recorder returns the observer's counter/gauge recorder (nil for a nil
// observer — callers incrementing counters must check).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// AddSink attaches another sink. Events emitted before the call are not
// replayed.
func (o *Observer) AddSink(s Sink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	o.mu.Unlock()
}

// AddSpanSink attaches a span sink and enables span emission. Spans emitted
// before the call are not replayed.
func (o *Observer) AddSpanSink(s SpanSink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.spanSinks = append(o.spanSinks, s)
	o.mu.Unlock()
	o.hasSpans.Store(true)
}

// SpansEnabled reports whether any span sink is attached. Instrumented layers
// guard span construction with this so the disabled path costs one atomic
// load and zero allocations. Safe on a nil observer.
func (o *Observer) SpansEnabled() bool {
	return o != nil && o.hasSpans.Load()
}

// NextSpanID issues a fresh non-zero span ID. Safe on a nil observer (returns
// 0, the "no span" ID).
func (o *Observer) NextSpanID() SpanID {
	if o == nil {
		return 0
	}
	return SpanID(o.spanID.Add(1))
}

// EmitSpan fans a completed span out to every span sink. Safe on a nil
// observer.
func (o *Observer) EmitSpan(s Span) {
	if o == nil || !o.hasSpans.Load() {
		return
	}
	o.mu.Lock()
	sinks := o.spanSinks
	o.mu.Unlock()
	for _, snk := range sinks {
		snk.EmitSpan(s)
	}
}

// Emit tallies the event and fans it out to every sink. Safe on a nil
// observer.
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.counts[e.Kind]++
	sinks := o.sinks
	o.mu.Unlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}

// EventCounts returns a copy of the per-kind tally of every event emitted
// through this observer.
func (o *Observer) EventCounts() map[string]int64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.counts))
	for k, v := range o.counts {
		out[k] = v
	}
	return out
}
