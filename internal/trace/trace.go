// Package trace reads a recorded observability stream back — the JSON lines
// an obs.JSONL sink wrote (syncsim/syncnode -trace-out, syncmon -export), or
// the JSON array a live node's /spanz serves — and condenses it: Summarize
// for cmd/tracestat's report, WritePerfetto for a span timeline. The record
// type and its encoding belong to internal/obs (obs.Event); this package
// only decodes and analyses.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"clocksync/internal/obs"
)

// Read parses a JSON-lines stream back into records. A malformed line is an
// error naming its line number; unknown kinds and unknown keys are kept or
// ignored, never refused, so archives from older writers (adjust lines with
// a top-level delta, note lines) stay readable.
func Read(r io.Reader) ([]obs.Event, error) {
	var out []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// ReadJSON parses a JSON *array* of records — the shape a live node's
// GET /spanz endpoint serves (obs.MarshalSpans) — into the same records the
// JSONL reader produces, so downstream consumers (conformance, tracestat)
// need not care which transport delivered the trace.
func ReadJSON(data []byte) ([]obs.Event, error) {
	var out []obs.Event
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("trace: parsing event array: %w", err)
	}
	return out, nil
}
