package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clocksync/internal/conformance"
)

// conformTrace is a faithful f=1 round in span form: peers at 2±1 and 4±1
// plus the implicit self-estimate give m=3, M=1 and the clamped midpoint
// delta = 0.5.
const conformTrace = `{"at":10,"kind":"span","node":0,"name":"round","span":1,"dur":1,"fields":{"delta":0.5,"wayoff":0}}
{"at":10.1,"kind":"span","node":0,"name":"estimate","span":2,"parent":1,"dur":0.2,"fields":{"peer":1,"d":2,"a":1,"ok":1}}
{"at":10.1,"kind":"span","node":0,"name":"estimate","span":3,"parent":1,"dur":0.2,"fields":{"peer":2,"d":4,"a":1,"ok":1}}
`

// TestRunConformClean: a faithful trace passes -conform and the summary
// reports what was replayed.
func TestRunConformClean(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-conform", "-conform-f", "1", "-conform-wayoff", "100", "-"},
		strings.NewReader(conformTrace), &out)
	if err != nil {
		t.Fatalf("clean trace failed refinement: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "conformance: 1 rounds") {
		t.Errorf("missing conformance summary:\n%s", out.String())
	}
}

// TestRunConformViolation: the clamp-dropped delta ((m+M)/2 = 2 instead of
// 0.5) must make tracestat exit non-zero and print the offending transition.
func TestRunConformViolation(t *testing.T) {
	bad := strings.Replace(conformTrace, `"delta":0.5`, `"delta":2`, 1)
	var out bytes.Buffer
	err := run([]string{"-conform", "-conform-f", "1", "-conform-wayoff", "100", "-"},
		strings.NewReader(bad), &out)
	if err == nil {
		t.Fatalf("clamp-dropped trace passed refinement:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ApplyAdjust") {
		t.Errorf("violation output missing the spec action:\n%s", out.String())
	}
}

// TestRunConformEventMode: a span-less trace is refused outright — there is
// nothing to replay, and passing it on a weaker structural check would read
// as "refines the spec".
func TestRunConformEventMode(t *testing.T) {
	evs := `{"at":1,"kind":"round","node":0,"fields":{"delta":0.5,"wayoff":0}}
`
	var out bytes.Buffer
	err := run([]string{"-conform", "-conform-f", "1", "-conform-wayoff", "100", "-"},
		strings.NewReader(evs), &out)
	if !errors.Is(err, conformance.ErrNoRoundSpans) {
		t.Fatalf("span-less trace: err = %v, want ErrNoRoundSpans\n%s", err, out.String())
	}
}
