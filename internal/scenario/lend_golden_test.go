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

	"clocksync/internal/adversary"
	"clocksync/internal/baseline"
	"clocksync/internal/network"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// lendScenarios are the runs testdata/lend.golden pins. Between them they end
// estimation rounds every way a round can end, on lanes that several
// processors share: a three-shard sampled run with drops and a break-in; a
// serial run whose MaxWait is below the delay model's round trip, so many
// replies land after their round's alarm; and the BoundedCF baseline, which
// drives Harness.EstimateAll with a done callback of its own.
func lendScenarios() []scenario.Scenario {
	smash := func(node int) adversary.Schedule {
		return adversary.Schedule{Corruptions: []adversary.Corruption{{
			Node: node, From: simtime.Time(25 * simtime.Second), To: simtime.Time(70 * simtime.Second),
			Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second},
		}}}
	}
	return []scenario.Scenario{
		{
			Name: "lend-sharded", Seed: 1, N: 64, F: 2, SamplePeers: 7, Shards: 3, DropProb: 0.2,
			Duration: 2 * simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
			InitSpread: 100 * simtime.Millisecond, SyncInt: 10 * simtime.Second,
			Adversary: smash(5),
		},
		{
			Name: "lend-late", Seed: 1, N: 7, F: 2, SkipValidation: true,
			Delay:    network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond),
			MaxWait:  40 * simtime.Millisecond,
			Duration: 2 * simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
			InitSpread: 100 * simtime.Millisecond,
			Adversary:  smash(3),
		},
		{
			Name: "lend-boundedcf", Seed: 1, N: 7, F: 2, DropProb: 0.1,
			Duration: 2 * simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
			InitSpread: 100 * simtime.Millisecond,
			Adversary:  smash(3),
		},
	}
}

// lendFingerprint runs s and reduces it to a line: traffic totals and a
// SHA-256 over every sample's instant, biases and deviation, the report's
// fields and every node's protocol counters — Sync's SyncStats, or a
// BoundedCF node's Syncs and Clamped when s runs that baseline.
func lendFingerprint(t *testing.T, s scenario.Scenario) string {
	t.Helper()
	var bounded []*baseline.BoundedCF
	if s.Name == "lend-boundedcf" {
		bounded = make([]*baseline.BoundedCF, s.N)
		build := baseline.BoundedCFBuilder(0)
		s.Builder = func(ctx scenario.BuildContext) scenario.Starter {
			b := build(ctx).(*baseline.BoundedCF)
			bounded[ctx.Index] = b
			return b
		}
	}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	samples := res.Recorder.Samples()
	for _, sm := range samples {
		float(float64(sm.At))
		for _, b := range sm.Biases {
			float(float64(b))
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
		float(float64(rv.Rejoined))
	}
	rounds := 0
	for _, st := range res.SyncStats {
		if st == nil {
			continue
		}
		word(uint64(st.Syncs))
		word(uint64(st.Skipped))
		word(uint64(st.WayOffTriggers))
		float(float64(st.LastDelta))
		rounds += st.Syncs + st.Skipped
	}
	for _, b := range bounded {
		word(uint64(b.Syncs))
		word(uint64(b.Clamped))
		rounds += b.Syncs
	}
	return fmt.Sprintf("%s n=%d msgs=%d bytes=%d samples=%d rounds=%d sha256=%x\n",
		s.Name, s.N, res.MsgsSent, res.BytesSent, len(samples), rounds, h.Sum(nil))
}

// TestLendGolden pins lendScenarios bit for bit against testdata/lend.golden,
// taken while every processor still owned its round buffers: lending them
// from the lane for the length of a round must not change a single reading.
// Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestLendGolden -update
func TestLendGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range lendScenarios() {
		got.WriteString(lendFingerprint(t, s))
	}
	path := filepath.Join("testdata", "lend.golden")
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
		t.Errorf("lending runs drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}
