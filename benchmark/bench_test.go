package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/simtime"
)

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the command
// prints from: same workloads, same metrics, units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the op counts are sized for %d", m.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if !legalName.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: illegal name or why too long", w.Name)
		}
	}
	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the table", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			want := defs[i]
			if d.Name != want.name || d.Unit != want.unit || d.Better != want.better {
				t.Errorf("%s %d: declared %+v, table %+v", kind, i, d, want)
			}
			if !legalName.MatchString(d.Name) || !legalUnit.MatchString(d.Unit) {
				t.Errorf("%s %q: illegal name or unit %q", kind, d.Name, d.Unit)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != want.bound || *d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v, table %v", kind, d.Name, d.Bound, want.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsEmitDeclaredMetrics is the smoke test: every workload, 200 ms
// untraced and 200 ms traced, must print exactly the declared metric names,
// fail no op, and leave a span file behind in the traced pass.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := &run{name: w.name, seed: 7, seconds: 0.2, traced: traced, outDir: out, setups: 1}
			res, err := runOne(r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%v", w.name, traced, err, r.notes)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if !legalName.MatchString(name) || !legalUnit.MatchString(v.Unit) {
					t.Errorf("%s: illegal metric %q unit %q", w.name, name, v.Unit)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, declared %v", w.name, traced, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d\n%v", w.name, traced, res.Attempted, res.Failed, r.notes)
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, v.Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestRatesIgnoreStalledBatches: with a fifth of the batches stalled by the
// host, the mean throughput drops by more than a tenth and the reported rates
// do not move — they are read off the fast tenth of the batches.
func TestRatesIgnoreStalledBatches(t *testing.T) {
	o := &outcome{}
	for i := 0; i < 50; i++ {
		wall, cpu := time.Second, 500*time.Millisecond
		if i%5 == 2 {
			wall, cpu = 3*time.Second, 800*time.Millisecond // the host went away
		}
		o.batches = append(o.batches, batchRec{ops: 100, wall: wall, cpu: cpu})
		o.add(100, 0)
	}
	v := o.endToEndValues()
	if v["ops_per_s"] != 100 {
		t.Errorf("ops_per_s %v, want the undisturbed 100", v["ops_per_s"])
	}
	if v["cpu_us_per_op"] != 5000 {
		t.Errorf("cpu_us_per_op %v, want the undisturbed 5000", v["cpu_us_per_op"])
	}
	// Too few batches for a tenth to hold ten of them: the median it is.
	if got := fastRate([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); got != 6.5 {
		t.Errorf("fast rate of 12 batches %v, want their median 6.5", got)
	}
	if got := lowCost([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); got != 6.5 {
		t.Errorf("low cost of 12 batches %v, want their median 6.5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count %v, want 2.5", got)
	}
	// Traced batches are kept apart from the untraced ones.
	o.batches = append(o.batches, batchRec{ops: 100, wall: 10 * time.Second, traced: true})
	if untraced, _ := o.rates(false); len(untraced) != 50 {
		t.Errorf("%d untraced batches, want 50", len(untraced))
	}
}

// TestTailPercentileNeedsTenSamplesBeyond pins the rule for reported tails.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	// 2000 samples: p99 has 20 beyond it and is reported as asked.
	if _, used := tailPercentile(asc(2000), 0.99); used != 0.99 {
		t.Errorf("2000 samples: used %v, want 0.99", used)
	}
	// 200 samples: p99 would rest on 2 samples; p95 is the highest with 10.
	v, used := tailPercentile(asc(200), 0.99)
	if used != 0.95 {
		t.Errorf("200 samples: used %v, want 0.95", used)
	}
	if beyond := 199 - v; beyond < tailSamples-1 {
		t.Errorf("200 samples: only %v samples beyond the reported value", beyond)
	}
	// 12 samples: nothing above the median qualifies.
	if _, used := tailPercentile(asc(12), 0.99); used != 0.5 {
		t.Errorf("12 samples: used %v, want 0.5", used)
	}
	if v, used := tailPercentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("no samples: %v at %v", v, used)
	}
}

// TestFailedOpsAreAttempted: a refused, timed-out or wrong op lowers the ok
// ratio; it does not vanish from the denominator.
func TestFailedOpsAreAttempted(t *testing.T) {
	var tl tally
	tl.add(90, 0)
	tl.add(10, 10) // ten ops timed out
	if tl.attempted != 100 || tl.failed != 10 || tl.okRatio() != 0.9 {
		t.Errorf("tally %+v ok ratio %v", tl, tl.okRatio())
	}

	// A query nobody answers times out and is reported as failed.
	dead, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr()
	dead.Close()
	c, err := livenet.NewClient(livenet.ClientConfig{Server: addr, Listen: "127.0.0.1:0", Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if queryOnce(c) {
		t.Error("a query to a closed port passed its check")
	}
}

// TestWrongNonceRaisesFailures breaks the pipelined workload's output check
// on purpose: a server that echoes the wrong nonce fails every exchange.
func TestWrongNonceRaisesFailures(t *testing.T) {
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{})
	server, client := mn.Transport(1), mn.Transport(100)
	defer client.Close()
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		buf := make([]byte, 2048)
		var out [livenet.ServeReplySize]byte
		for {
			n, from, err := server.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := livenet.DecodeServeQuery(buf[:n])
			if err != nil {
				continue
			}
			server.WriteTo(livenet.EncodeServeReply(out[:], livenet.ServeReply{Nonce: q.Nonce + 1, T1: q.T1}), from)
		}
	}()
	x := exchanger{tr: client, window: 4}
	attempted, failed := x.exchange(20)
	if attempted != 20 || failed != 20 {
		t.Errorf("attempted %d failed %d, want every one of 20 exchanges to fail", attempted, failed)
	}
	server.Close()
	<-stopped
}

// TestHostileMixRaisesFailures breaks the campaign's honesty on purpose: the
// over-budget churn! family is flagged by the checker, and every flagged run
// counts as a failed op.
func TestHostileMixRaisesFailures(t *testing.T) {
	r := &run{name: "campaign_mixed", seed: 1, seconds: 0.2, setups: 1}
	w := newCampaignMixed(r)
	w.families, w.warm = "churn!", 0
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	// The over-budget stream needs f+1 break-ins to exceed the budget, which
	// the workload's 5-minute runs are too short for.
	w.cfg.Duration = 30 * simtime.Minute
	attempted, failed := w.batch()
	if attempted < 1 || failed < 1 {
		t.Errorf("attempted %d failed %d: the hostile mix went unnoticed", attempted, failed)
	}
}

// TestLiveRoundsMissingAgainstThePhase: rounds lost to one short stall early
// in the phase are inside the allowance (a tenth of the whole phase, not of
// the little due so far); a cluster that stops completing rounds is not.
func TestLiveRoundsMissingAgainstThePhase(t *testing.T) {
	r := &run{name: "live_round_n7", seed: 1, seconds: 1, setups: 1}
	w := newLiveRound(r)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	// As if the host had taken the first 60 ms of the phase away.
	w.began = w.began.Add(-60 * time.Millisecond)
	if _, failed := w.batch(); failed != 0 {
		t.Errorf("a 60 ms stall at the start of a 1 s phase counted %d rounds as failed", failed)
	}
	// As if no round had completed for a second.
	w.began = w.began.Add(-time.Second)
	attempted, failed := w.batch()
	if failed < 250 || attempted < failed {
		t.Errorf("attempted %d failed %d: a second without rounds went unnoticed", attempted, failed)
	}
}
