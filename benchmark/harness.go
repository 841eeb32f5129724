package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// workload is one named benchmark workload. The harness drives every
// workload the same way: set up (several times, for a steady setup_s), run
// equal batches of about 50 ms from one goroutine until the timed phase is
// over, verify, tear down — and, in a traced run only, ask for the per-layer
// ledger.
type workload interface {
	// setup builds the system under test and runs the workload's fixed
	// warm-up op count. It is what setup_s times.
	setup() error
	// batch runs one batch and reports the ops it attempted and how many of
	// them failed an output check. Batches of one run are equal: the same
	// op count, or for the paced live workload the same wall time.
	batch() (attempted, failed int)
	// verify runs the run-level output checks after the timed phase.
	verify() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// ledger fills in the workload's per-layer metrics (o.layers). Called
	// once, after verify, in traced runs only.
	ledger(o *outcome)
}

// run is the state of one benchmark run, shared between the harness and the
// workload it drives.
type run struct {
	name    string
	seed    int64
	seconds float64
	traced  bool // this run is the traced pass
	outDir  string
	setups  int
	env     envRecord

	// tracing is switched on for the second half of a traced run's timed
	// phase; workloads record their spans only while it is set.
	tracing bool
	tr      tracer
	notes   []string // free-form lines for the trace file and the printout
}

// sized scales a fixed op count chosen for the full run length down to a
// shorter --seconds, never below one op.
func (r *run) sized(n int) int {
	if r.seconds >= runSeconds {
		return n
	}
	if s := int(float64(n) * r.seconds / runSeconds); s > 1 {
		return s
	}
	return 1
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteStages notes a stage table: per stage its count per op, unit cost and
// share of the op, then the op itself.
func (r *run) noteStages(rows []ledgerRow, opNs float64) {
	r.notef("%-18s %12s %12s %8s", "stage", "count/op", "unit ns", "share")
	for _, row := range rows {
		r.notef("%-18s %12.0f %12.1f %8.3f", row.stage, row.count, row.unitNs, row.count*row.unitNs/opNs)
	}
	r.notef("%-18s %12s %12.1f %8.3f", "op", "", opNs, 1.0)
}

// batchRec is one measured batch.
type batchRec struct {
	ops     int // attempted − failed: only verified ops count as throughput
	wall    time.Duration
	cpu     time.Duration
	bytes   uint64 // heap bytes allocated
	objects uint64 // heap objects allocated
	traced  bool
}

func (b batchRec) opsPerSec() float64 { return float64(b.ops) / b.wall.Seconds() }

// outcome is what a run measured.
type outcome struct {
	tally
	batches  []batchRec
	setupS   []float64
	gcCycles uint64
	cpu      time.Duration // process CPU over the timed phase
	gcCPU    float64       // seconds of it spent in the collector
	schedP99 float64       // seconds
	loadavg  float64

	// Traced runs only: the per-layer metrics, and the op time of the
	// untraced batches (1 ÷ ops_per_s) that every share is a share of.
	layers map[string]float64
	opNs   float64
}

// rates returns the per-batch throughput and CPU per op of the batches taken
// with tracing on or off.
func (o *outcome) rates(traced bool) (opsPerSec, cpuUsPerOp []float64) {
	for _, b := range o.batches {
		if b.traced != traced || b.ops == 0 {
			continue
		}
		opsPerSec = append(opsPerSec, b.opsPerSec())
		cpuUsPerOp = append(cpuUsPerOp, float64(b.cpu.Nanoseconds())/1e3/float64(b.ops))
	}
	return
}

// allocs returns the per-batch heap kilobytes and objects allocated per op
// of the untraced batches.
func (o *outcome) allocs() (kbPerOp, objectsPerOp []float64) {
	for _, b := range o.batches {
		if b.traced || b.ops == 0 {
			continue
		}
		kbPerOp = append(kbPerOp, float64(b.bytes)/1e3/float64(b.ops))
		objectsPerOp = append(objectsPerOp, float64(b.objects)/float64(b.ops))
	}
	return
}

func (o *outcome) verified() int { return o.attempted - o.failed }

// fastShare is the share of a run's batches the reported rates are read
// from: ops_per_s is the throughput the fastest tenth of the batches reached
// (the 90th percentile), cpu_us_per_op the CPU the cheapest tenth cost (the
// 10th). On a shared box interference only ever takes time away, in bursts of
// milliseconds to seconds; sized on this one over ten runs of each workload,
// the median batch moved 8–35 % from run to run while the fast tenth moved
// 3–18 % (README, "Built to repeat"). With few batches the percentile moves
// toward the median until ten batches lie beyond it.
const fastShare = 0.10

// fastRate is the throughput of the fast tenth of the batches.
func fastRate(opsPerSec []float64) float64 {
	v, _ := tailPercentile(sorted(opsPerSec), 1-fastShare)
	return v
}

// lowCost is the per-op cost of the cheapest tenth of the batches: the same
// percentile as fastRate, counted from the other end.
func lowCost(perOp []float64) float64 {
	asc := sorted(perOp)
	_, used := tailPercentile(asc, 1-fastShare)
	return quantile(asc, 1-used)
}

// endToEndValues computes the six end-to-end metrics, each read off the
// distribution over batches so that a stall moves one sample and not the
// result. What an op allocates does not depend on the host, so there the
// median batch is the figure; it steps over the odd batch in which a timeout
// made the live cluster retransmit.
func (o *outcome) endToEndValues() map[string]float64 {
	ops, cpu := o.rates(false)
	kb, objects := o.allocs()
	return map[string]float64{
		"ops_per_s":       fastRate(ops),
		"cpu_us_per_op":   lowCost(cpu),
		"alloc_kb_per_op": median(kb),
		"allocs_per_op":   median(objects),
		"ok_ratio":        o.okRatio(),
		"setup_s":         median(o.setupS),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// allocSamples is reused by every allocated call, so that reading the
// counters around a batch adds nothing to them.
var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// allocated reads the heap bytes and objects allocated so far. Unlike
// runtime.ReadMemStats it does not stop the world, so it can be read around
// every batch.
func allocated() (bytes, objects uint64) {
	s := allocSamples
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[1].Value.Kind() == metrics.KindUint64 {
		bytes, objects = s[0].Value.Uint64(), s[1].Value.Uint64()
	}
	return
}

// runtimeSample reads the collector and scheduler figures the ledger uses.
func runtimeSample() (gcCycles uint64, gcCPU float64, sched *metrics.Float64Histogram) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		sched = s[2].Value.Float64Histogram()
	}
	return
}

// histDeltaQuantile is quantile q of the samples a cumulative runtime
// histogram gained between two reads, as the upper edge of the bucket the
// quantile falls in.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen > want {
			edge := after.Buckets[i+1]
			if edge > 1e6 { // +Inf overflow bucket
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// measure runs one workload start to finish.
func measure(r *run, w workload) (*outcome, error) {
	o := &outcome{loadavg: loadavg()}
	r.tr.begin(r.name + "/run")

	// Set up several times and report the median: one set-up of a couple of
	// seconds is at the mercy of whatever else the host did just then. The
	// last instance is the one measured.
	for i := 0; i < r.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		r.tr.begin(r.name + "/setup")
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", r.name, err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		r.tr.end()
	}
	defer w.teardown()

	cycles0, gc0, sched0 := runtimeSample()
	cpu0 := cpuTime()
	r.tr.begin(r.name + "/timed")
	start := time.Now()
	limit := time.Duration(r.seconds * float64(time.Second))
	for time.Since(start) < limit {
		// A traced run spends its first half exactly like an untraced one,
		// so the two halves give the cost of observing.
		r.tracing = r.traced && time.Since(start) >= limit/2
		if r.tracing {
			r.tr.begin(r.name + "/batch")
		}
		bytes0, objects0 := allocated()
		c0, t0 := cpuTime(), time.Now()
		attempted, failed := w.batch()
		wall, cpu := time.Since(t0), cpuTime()-c0
		bytes1, objects1 := allocated()
		if r.tracing {
			r.tr.end()
		}
		o.add(attempted, failed)
		o.batches = append(o.batches, batchRec{
			ops: attempted - failed, wall: wall, cpu: cpu,
			bytes: bytes1 - bytes0, objects: objects1 - objects0, traced: r.tracing,
		})
	}
	r.tracing = false
	r.tr.end()
	o.cpu = cpuTime() - cpu0
	cycles1, gc1, sched1 := runtimeSample()
	o.gcCycles = cycles1 - cycles0
	o.gcCPU = gc1 - gc0
	o.schedP99 = histDeltaQuantile(sched0, sched1, 0.99)

	r.tr.begin(r.name + "/verify")
	err := w.verify()
	r.tr.end()
	if err != nil {
		return o, fmt.Errorf("%s: output check failed: %w", r.name, err)
	}

	if r.traced {
		o.layers = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			o.layers[d.name] = 0
		}
		untraced, _ := o.rates(false)
		tracedRates, _ := o.rates(true)
		if u := fastRate(untraced); u > 0 {
			o.opNs = 1e9 / u
			o.layers["obs.trace_overhead_share"] = 1 - fastRate(tracedRates)/u
		}
		r.tr.begin(r.name + "/probes")
		w.ledger(o)
		r.tr.end()
		v := float64(o.verified())
		if v == 0 {
			v = 1
		}
		if o.cpu > 0 {
			o.layers["runtime.gc_cpu_share"] = o.gcCPU / o.cpu.Seconds()
		}
		o.layers["runtime.gc_cycles_per_op"] = float64(o.gcCycles) / v
		o.layers["runtime.peak_rss_mb"] = peakRSSMB()
		o.layers["runtime.sched_latency_p99_us"] = o.schedP99 * 1e6
		o.layers["harness.batches"] = float64(len(o.batches))
		o.layers["harness.batch_iqr_rel"] = iqrRel(untraced)
		o.layers["harness.loadavg_start"] = o.loadavg
	}
	r.tr.end()
	return o, nil
}

// span is one recorded interval: which layer (or harness stage) was running,
// from when to when, and inside which other span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. Spans nest strictly (run >
// timed > batch > op, run > probes > layer), so the parent of a new span is
// whatever span is open. Only the driving goroutine records: no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // ids of the spans begun and not yet ended, outermost first
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) {
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.parent()
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// add records an interval the caller timed itself, inside the open span.
func (t *tracer) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent(), Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
}

// timeLayer runs fn under a span named <workload>/<layer>; the probes use
// it so every unit cost in the ledger has the interval it was measured in.
func (r *run) timeLayer(layer string, fn func()) {
	r.tr.begin(r.name + "/" + layer)
	fn()
	r.tr.end()
}

// traceFile is what a traced run leaves in <outDir>/trace-<workload>.json.
type traceFile struct {
	Env      envRecord          `json:"env"`
	Workload string             `json:"workload"`
	Layers   map[string]float64 `json:"per_layer"`
	Notes    []string           `json:"notes"`
	Spans    []span             `json:"spans"`
}

func writeTrace(r *run, o *outcome) (string, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(r.outDir, "trace-"+r.name+".json")
	data, err := json.Marshal(traceFile{Env: r.env, Workload: r.name, Layers: o.layers, Notes: r.notes, Spans: r.tr.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
