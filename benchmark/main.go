// Command benchmark is the repository's benchmark: six workloads, six
// end-to-end metrics each, and — in a separate traced pass — a per-layer
// ledger measured from outside the layers. See README.md in this directory.
//
//	bash benchmark/run.sh --workload sim_mesh_n64 --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload sim_mesh_n64 --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh -selfcheck
//
// The last line on standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// pinnedProcs is the GOMAXPROCS every run uses, whatever the host offers:
// the numbers are sized for, and only comparable at, two.
const pinnedProcs = 2

// loadWarn is the 1-minute load average above which a run says so.
const loadWarn = 0.5

// envRecord is where and how a result was measured.
type envRecord struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"timed_seconds"`
	Loadavg    float64 `json:"loadavg_start"`
}

func environment(seed int64, seconds float64) envRecord {
	return envRecord{
		Commit:     commit(),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Loadavg:    loadavg(),
	}
}

// commit asks git for the checkout's commit; a checkout that is not a
// repository (the driver's is not) has none to report.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload and builds its result: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
func runOne(r *run) (result, error) {
	def := findWorkload(r.name)
	if def == nil {
		return result{}, fmt.Errorf("unknown workload %q", r.name)
	}
	o, err := measure(r, def.new(r))
	if err != nil {
		return result{}, err
	}
	defs, values := endToEnd, o.endToEndValues()
	if r.traced {
		defs, values = perLayer, o.layers
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.traced {
		path, err := writeTrace(r, o)
		if err != nil {
			return res, fmt.Errorf("writing span file: %w", err)
		}
		r.notef("spans written to %s", path)
	}
	return res, nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "workload seed: op i uses seed+i")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the runs against the bounds")
	)
	flag.Parse()
	if runtime.NumCPU() < pinnedProcs {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU available; the benchmark needs %d (one for the driver goroutine, one for what it drives)\n", runtime.NumCPU(), pinnedProcs)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(pinnedProcs)
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || findWorkload(*name) == nil {
		fmt.Fprintln(os.Stderr, "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>, or -selfcheck; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}

	env := environment(*seed, *seconds)
	if env.Loadavg > loadWarn {
		fmt.Fprintf(os.Stderr, "benchmark: warning: harness.loadavg_start %.2f is above %.1f; something else is using this machine\n", env.Loadavg, loadWarn)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	r := &run{name: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: filepath.Join("benchmark", "out"), setups: 3, env: env}
	res, err := runOne(r)
	for _, n := range r.notes {
		fmt.Println("note", n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("metric %-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// selfCheck is the A/A test: every workload twice, the second pass in
// reverse order, each run in a process of its own. Two runs of the same code
// must agree within every end-to-end metric's bound; it returns the exit
// code.
func selfCheck(seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	order := make([]string, 0, 2*len(workloads))
	for _, w := range workloads {
		order = append(order, w.name)
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, workloads[i].name)
	}
	runs := map[string][]result{}
	for _, name := range order {
		fmt.Fprintf(os.Stderr, "selfcheck: %s\n", name)
		res, err := child(exe, name, seed, seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		runs[name] = append(runs[name], res)
	}
	fmt.Printf("%-20s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	excess := 0
	for _, w := range workloads {
		a, b := runs[w.name][0], runs[w.name][1]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if !(diff <= d.bound) {
				verdict = "  EXCEEDS"
				excess++
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w.name, d.name, x, y, diff*100, d.bound*100, verdict)
		}
		if !a.Correct || !b.Correct {
			fmt.Printf("%-20s failed ops: %d and %d\n", w.name, a.Failed, b.Failed)
			excess++
		}
	}
	if excess > 0 {
		fmt.Printf("selfcheck: %d differences exceed their bounds\n", excess)
		return 1
	}
	fmt.Println("selfcheck: every difference is within its bound")
	return 0
}

// child runs one untraced workload in a fresh process — a fresh heap, no
// leftover goroutines — and parses the result line it prints last.
func child(exe, name string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
