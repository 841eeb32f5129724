package scenario_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/campaign"
	"clocksync/internal/des"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// reportFingerprint runs s and reduces its measurement plane to a line (see
// fingerprint).
func reportFingerprint(t *testing.T, label string, s scenario.Scenario) string {
	t.Helper()
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(label, res)
}

// fingerprint reduces one run's measurement plane to a line: a SHA-256 over
// every sample (instant, biases, good set and deviation, as bits) and over
// every field of the report, recoveries included.
func fingerprint(label string, res *scenario.Result) string {
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
	samples := res.Recorder.Samples()
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
	rep := res.Report
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
	return fmt.Sprintf("%s samples=%d recoveries=%d violations=%d sha256=%x\n",
		label, len(samples), len(rep.Recoveries), len(res.Violations), h.Sum(nil))
}

// TestReportGolden pins every sample a run records and every field of its
// report bit for bit against testdata/report.golden: seeds 1–4 of each
// family of the benchmark's honest campaign mix (checker on, one simulator
// reused across all of them, as a campaign worker does) and one minute of
// the benchmark's 64-node full mesh. Any change to how the recorder stores
// samples or condenses them must reproduce it unmodified. Regenerate
// deliberately with:
//
//	go test ./internal/scenario -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	mix, err := campaign.ParseFamilyMix("delayskew:2,churn,flash,coldstart")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	sim := des.New(0)
	for _, fw := range mix {
		cfg := campaign.Config{Families: campaign.FamilyMix{fw}}
		for seed := int64(1); seed <= 4; seed++ {
			s := cfg.Scenario(seed)
			s.ReuseSim = sim
			got.WriteString(reportFingerprint(t, fmt.Sprintf("family=%s seed=%d", fw, seed), s))
		}
	}
	mesh := scenario.Scenario{
		Name: "report-mesh", Seed: 1, N: 64, F: 21,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Rho: 1e-4, SyncInt: 10 * simtime.Second, ReuseSim: sim,
	}
	got.WriteString(reportFingerprint(t, "mesh n=64 seed=1", mesh))

	path := filepath.Join("testdata", "report.golden")
	if *scenario.UpdateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("samples or report drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}
