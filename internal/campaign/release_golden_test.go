package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/scenario"
)

// runDigest reduces what a campaign run measured to a line: a SHA-256 over
// every sample of its log (instant, biases, good set and deviation, as bits),
// every field of its report and every recorded violation.
func runDigest(t *testing.T, label string, r *scenario.Result) string {
	t.Helper()
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			word(1)
		} else {
			word(0)
		}
	}
	samples := r.Recorder.Samples()
	for _, sm := range samples {
		float(float64(sm.At))
		for _, b := range sm.Biases {
			float(float64(b))
		}
		for _, g := range sm.Good {
			flag(g)
		}
		float(float64(sm.Deviation))
	}
	rep := r.Report
	for _, v := range []float64{
		float64(rep.MaxDeviation), float64(rep.MeanDeviation),
		float64(rep.MaxDiscontinuity), float64(rep.MaxAdjustment),
		rep.WorstRate, float64(rep.AccuracyDrawdown), float64(rep.AccuracyRunup),
	} {
		float(v)
	}
	for _, rv := range rep.Recoveries {
		word(uint64(rv.Node))
		float(float64(rv.ReleasedAt))
		float(float64(rv.Rejoined))
		flag(rv.Ok)
		float(float64(rv.InitialDistance))
	}
	enc := json.NewEncoder(h)
	for _, v := range r.Violations {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	word(uint64(r.ViolationsDropped))
	return fmt.Sprintf("%s samples=%d recoveries=%d violations=%d+%d sha256=%x\n",
		label, len(samples), len(rep.Recoveries), len(r.Violations), r.ViolationsDropped, h.Sum(nil))
}

// TestReleaseGolden pins what campaign runs measure against
// testdata/release.golden: seeds 1–64 of the benchmark's honest family mix
// (five simulated minutes each) and seeds 1–4 of churn! and delayskew! at the
// default thirty, which must fail. They run serially on one reused
// simulator, a worker's steady state, and each run's result is released once
// digested, so every run after the first measures into storage an earlier
// run, often of another length, gave back. Regenerate deliberately with:
//
//	go test ./internal/campaign -run TestReleaseGolden -update
func TestReleaseGolden(t *testing.T) {
	var got strings.Builder
	sim := des.New(0)
	run := func(cfg Config, seed int64) (violations int) {
		s, fw := cfg.generate(seed)
		s.ReuseSim = sim
		r, err := scenario.Run(s)
		if err != nil {
			t.Fatalf("family %s seed %d: %v", fw, seed, err)
		}
		got.WriteString(runDigest(t, fmt.Sprintf("family=%s seed=%d", fw, seed), r))
		r.Release()
		return len(r.Violations)
	}
	honest := benchmarkMix(t)
	for seed := int64(1); seed <= 64; seed++ {
		run(honest, seed)
	}
	for _, fam := range []Family{FamilyChurn, FamilyDelaySkew} {
		for seed := int64(1); seed <= 4; seed++ {
			if run(Config{Families: soloMix(fam, true)}, seed) == 0 {
				t.Errorf("hostile %s seed %d recorded no violation", fam, seed)
			}
		}
	}

	path := filepath.Join("testdata", "release.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("campaign runs drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}
