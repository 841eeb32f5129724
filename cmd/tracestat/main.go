// Command tracestat summarizes a recorded observability stream — the JSON
// lines of syncsim/syncnode -trace-out or syncmon -export: adjustment
// distribution, deviation profile, span and histogram summaries, and the
// corruption timeline. With -plot it also renders the per-node bias
// trajectories and the deviation series as ASCII charts; with -perfetto it
// exports the span records as a Chrome/Perfetto trace-event JSON file.
//
// Usage:
//
//	syncsim -n 7 -f 2 -rotate -duration 30m -trace-out run.jsonl -trace-spans
//	tracestat run.jsonl
//	tracestat -plot run.jsonl
//	tracestat -perfetto run.json run.jsonl   # open in ui.perfetto.dev
//	tracestat -conform -conform-f 2 run.jsonl   # spec refinement check
//	tracestat -          # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clocksync/internal/asciiplot"
	"clocksync/internal/conformance"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	plot := fs.Bool("plot", false, "render ASCII charts of the sample series")
	perfetto := fs.String("perfetto", "", "write a Chrome/Perfetto trace-event JSON file here")
	conform := fs.Bool("conform", false, "replay the trace through the abstract Sync-round spec (refinement check; see docs/CONFORMANCE.md)")
	conformF := fs.Int("conform-f", 2, "fault bound f the traced run was configured with (trimming depth)")
	conformWayOff := fs.Float64("conform-wayoff", 0, "WayOff threshold in trace time units (0 = branch decision unpinned)")
	conformTol := fs.Float64("conform-tol", 0, "numeric tolerance for matching recorded adjustments (0 = default 1e-6)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: tracestat [-plot] [-perfetto out.json] [-conform -conform-f F] <file.jsonl | ->")
	}
	var r io.Reader
	if fs.Arg(0) == "-" {
		r = stdin
	} else {
		fh, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer fh.Close()
		r = fh
	}
	events, err := trace.Read(r)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("trace is empty")
	}
	if _, err := io.WriteString(stdout, trace.Summarize(events).String()); err != nil {
		return err
	}
	if *perfetto != "" {
		fh, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		if err := trace.WritePerfetto(fh, events); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perfetto trace written to %s\n", *perfetto)
	}
	if *plot {
		if err := writePlots(stdout, events); err != nil {
			return err
		}
	}
	if *conform {
		rep, err := conformance.Check(events, conformance.Config{
			F: *conformF, WayOff: *conformWayOff, Tol: *conformTol,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s\n", rep.Summary())
		const limit = 10
		for i, v := range rep.Violations {
			if i == limit {
				fmt.Fprintf(stdout, "  … %d more\n", len(rep.Violations)-limit)
				break
			}
			fmt.Fprintf(stdout, "  %s\n", v.String())
		}
		if !rep.Ok() {
			return fmt.Errorf("trace does not refine the spec: %d violations", len(rep.Violations))
		}
	}
	return nil
}

// writePlots renders the deviation series and per-node bias trajectories
// from the trace's sample events.
func writePlots(w io.Writer, events []obs.Event) error {
	var ts, devs []float64
	biases := map[string][]float64{}
	nodes := 0
	for _, e := range events {
		if e.Kind != obs.KindSample {
			continue
		}
		ts = append(ts, e.At)
		devs = append(devs, e.Deviation)
		if len(e.Biases) > nodes {
			nodes = len(e.Biases)
		}
		for i, b := range e.Biases {
			key := fmt.Sprintf("n%d", i)
			biases[key] = append(biases[key], b)
		}
	}
	if len(ts) == 0 {
		return fmt.Errorf("trace has no sample events to plot")
	}
	if _, err := fmt.Fprintf(w, "\ngood-set deviation over time:\n%s",
		asciiplot.Line(ts, map[string][]float64{"dev": devs},
			asciiplot.Options{Width: 68, Height: 12, XLabel: "real time (s)"})); err != nil {
		return err
	}
	// Plotting every node drowns the chart; cap the per-node view at 5.
	if nodes > 5 {
		trimmed := map[string][]float64{}
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("n%d", i)
			trimmed[key] = biases[key]
		}
		biases = trimmed
		fmt.Fprintf(w, "\n(bias trajectories: first 5 of %d nodes)\n", nodes)
	} else {
		fmt.Fprintf(w, "\nbias trajectories:\n")
	}
	_, err := io.WriteString(w, asciiplot.Line(ts, biases,
		asciiplot.Options{Width: 68, Height: 12, XLabel: "real time (s)"}))
	return err
}
