package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the goldens:
//
//	go test ./cmd/tracestat -run 'TestSummaryGolden|TestPerfettoGolden' -update
var update = flag.Bool("update", false, "rewrite the golden tracestat outputs from current output")

// TestSummaryGolden locks the exact human-facing summary format: any change
// to trace.Summarize or its String rendering shows up as a diff against a
// golden instead of silently reshaping what operators (and scripts scraping
// the output) see. Two inputs: testdata/sample.jsonl, the hand-written
// fixture in the retired `syncsim -trace` vocabulary (legacy adjust lines
// beside a round event and spans), and the recorded stream of a real run —
// internal/scenario's stream.golden — whose adjustments: line and per-node
// rows must come out non-zero from round events alone.
func TestSummaryGolden(t *testing.T) {
	for _, tc := range []struct{ input, golden string }{
		{filepath.Join("testdata", "sample.jsonl"), "summary.golden"},
		{filepath.Join("..", "..", "internal", "scenario", "testdata", "stream.golden"), "summary_stream.golden"},
	} {
		var out bytes.Buffer
		if err := run([]string{tc.input}, nil, &out); err != nil {
			t.Fatal(err)
		}
		goldenPath := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create it): %v", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("summary of %s differs from %s (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
				tc.input, tc.golden, out.Bytes(), want)
		}
	}
}

// TestPerfettoGolden locks the Chrome/Perfetto trace-event JSON shape: span
// records must export as complete ("X") events carrying span_id/parent_id
// args, instants as "i" events, with microsecond timestamps — the contract
// ui.perfetto.dev loads.
func TestPerfettoGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	var sum bytes.Buffer
	if err := run([]string{"-perfetto", out, filepath.Join("testdata", "sample.jsonl")}, nil, &sum); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "perfetto.golden")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("perfetto export differs from golden (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}
