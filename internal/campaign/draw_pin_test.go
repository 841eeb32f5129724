package campaign

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/des"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// drawSeeds is the seed set of the distributional pin: seeds 1–64 of every
// family. The per-seed spread of the traffic totals was measured over seeds
// 1–drawWideSeeds instead: a total moves mostly by the rare seed whose
// staggered start fits one more round, and 64 seeds see too few of those to
// say how rare they are.
const (
	drawSeeds     = 64
	drawWideSeeds = 512
)

// drawRun is what the distributional pin reads from one run.
type drawRun struct {
	dev        float64 // Report.MaxDeviation / Bounds.MaxDeviation
	msgs       int
	drops      int
	bytes      int
	violations int
}

// drawFamily is one scenario family of the pin: how to run a seed, and
// whether its runs must be clean (0 violations) or must fail (≥ 1).
type drawFamily struct {
	name    string
	hostile bool
	run     func(t *testing.T, sim *des.Sim, seed int64) drawRun
}

// runDraw runs s and reduces it to a drawRun. Serial runs carry an observer,
// whose recorder counts the messages lost in transit.
func runDraw(t *testing.T, s scenario.Scenario) drawRun {
	t.Helper()
	if s.Shards == 0 {
		s.Observer = obs.NewObserver()
	}
	r, err := scenario.Run(s)
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.Name, s.Seed, err)
	}
	d := drawRun{
		dev:        float64(r.Report.MaxDeviation) / float64(r.Bounds.MaxDeviation),
		msgs:       r.MsgsSent,
		bytes:      r.BytesSent,
		violations: len(r.Violations) + r.ViolationsDropped,
	}
	if rec := r.Obs.Recorder(); rec != nil {
		d.drops = int(rec.MessagesDropped.Load())
	}
	r.Release()
	return d
}

func drawFamilies(t *testing.T) []drawFamily {
	honest := benchmarkMix(t)
	generated := func(cfg Config) func(*testing.T, *des.Sim, int64) drawRun {
		return func(t *testing.T, sim *des.Sim, seed int64) drawRun {
			s, _ := cfg.generate(seed)
			s.ReuseSim = sim
			return runDraw(t, s)
		}
	}
	return []drawFamily{
		{name: "mesh7", run: func(t *testing.T, sim *des.Sim, seed int64) drawRun {
			return runDraw(t, scenario.Scenario{
				Name: "mesh7", Seed: seed, N: 7, F: 2,
				Duration: 10 * simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
				InitSpread: 100 * simtime.Millisecond, Check: true, ReuseSim: sim,
			})
		}},
		{name: "sampled64", run: func(t *testing.T, _ *des.Sim, seed int64) drawRun {
			return runDraw(t, scenario.Scenario{
				Name: "sampled64", Seed: seed, N: 64, F: 2,
				Duration: simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
				InitSpread: 100 * simtime.Millisecond, SamplePeers: 7, Shards: 1,
			})
		}},
		{name: "honest-mix", run: generated(honest)},
		{name: "churn!", hostile: true, run: generated(Config{Families: soloMix(FamilyChurn, true)})},
		{name: "delayskew!", hostile: true, run: generated(Config{Families: soloMix(FamilyDelaySkew, true)})},
		{name: "liar-drop", run: func(t *testing.T, sim *des.Sim, seed int64) drawRun {
			return runDraw(t, scenario.Scenario{
				Name: "liar-drop", Seed: seed, N: 7, F: 2,
				Duration: 10 * simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
				InitSpread: 100 * simtime.Millisecond, DropProb: 0.01, Check: true, ReuseSim: sim,
				Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
					Node: 3, From: simtime.Time(simtime.Minute), To: simtime.Time(8 * simtime.Minute),
					Behavior: adversary.RandomLiar{Amplitude: 200 * simtime.Millisecond},
				}}},
			})
		}},
	}
}

// drawSample is one family's 64 runs, column by column.
type drawSample struct {
	dev                      []float64 // sorted ascending
	msgs, drops, bytes, viol []float64 // by seed
}

func (s *drawSample) add(d drawRun) {
	s.dev = append(s.dev, d.dev)
	s.msgs = append(s.msgs, float64(d.msgs))
	s.drops = append(s.drops, float64(d.drops))
	s.bytes = append(s.bytes, float64(d.bytes))
	s.viol = append(s.viol, float64(d.violations))
}

func (s *drawSample) columns() map[string][]float64 {
	return map[string][]float64{"dev": s.dev, "msgs": s.msgs, "drops": s.drops, "bytes": s.bytes, "violations": s.viol}
}

// drawZ is the number of standard errors a pinned statistic may move. Every
// band below is a two-sample band: it allows for the parent's sample and the
// current one each being one draw from the distribution.
const drawZ = 3.5

// quantileBand is where the current sample's q-quantile (nearest rank) may
// fall: between the parent's order statistics at ranks
// 64q ± drawZ·sqrt(2·64·q(1−q)), the distribution-free band for the
// difference of two samples' quantiles. A rank past the parent's largest
// value takes the maximum's upper band.
func quantileBand(parent []float64, q float64) (lo, hi float64) {
	n := float64(len(parent))
	half := drawZ * math.Sqrt(2*n*q*(1-q))
	rlo := int(math.Floor(n*q - half))
	rhi := int(math.Ceil(n*q + half))
	lo = parent[max(rlo, 1)-1]
	if rhi > len(parent) {
		_, hi = maxBand(parent)
	} else {
		hi = parent[rhi-1]
	}
	return lo, hi
}

// maxBand is where the current sample's maximum may fall. Below: the parent's
// 56th value of 64, which the current maximum undercuts only if all of the
// nine largest of the 128 values are the parent's (probability ≈ 2^-9). Above:
// the parent's maximum plus twice the spread of its top nine values.
func maxBand(parent []float64) (lo, hi float64) {
	n := len(parent)
	top := parent[n-1]
	lo = parent[n-9]
	return lo, top + 2*(top-lo)
}

// totalBand is where the current sample's total may fall: the parent's total
// ± drawZ·sqrt(2·64)·sd, sd being the parent's per-seed standard deviation
// over seeds 1–drawWideSeeds.
func totalBand(parent []float64, sd float64) (lo, hi float64) {
	sum := total(parent)
	tol := drawZ * math.Sqrt(2*float64(len(parent))) * sd
	return sum - tol, sum + tol
}

func nearestRank(sorted []float64, q float64) float64 {
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// readDrawParent reads testdata/draws_parent.txt: per family and column, the
// 64 values the parent of the random-stream change measured (dev sorted, the
// rest by seed), and per traffic column its per-seed standard deviation over
// seeds 1–drawWideSeeds (column "msgs-sd" and kin, one value).
func readDrawParent(t *testing.T) map[string]map[string][]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "draws_parent.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 && len(fields) != 2+drawSeeds {
			t.Fatalf("draws_parent.txt: %d fields in %q", len(fields), fields[:2])
		}
		vals := make([]float64, len(fields)-2)
		for i, s := range fields[2:] {
			if vals[i], err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatal(err)
			}
		}
		if out[fields[0]] == nil {
			out[fields[0]] = map[string][]float64{}
		}
		out[fields[0]][fields[1]] = vals
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDrawDistributionPin holds what the simulator measures to its
// distribution rather than its bytes, so that the random streams behind it
// may change: testdata/draws_parent.txt holds seeds 1–64 of six families as
// measured before the simulator's draws were keyed by what they are about,
// and each statistic of the current code must fall in a band derived from
// those numbers alone (quantileBand, maxBand, totalBand). The families: a
// serial n=7 full mesh; a sampled n=64 minute on the sharded engine at one
// shard; the benchmark's honest campaign mix; churn! and delayskew!; and a
// RandomLiar inside the fault budget with 1 % message loss. Pinned per
// family: p50, p90 and the maximum of MaxDeviation/Δ, the message, drop and
// byte totals, 0 violations on every seed of an honest family and at least
// one on every seed of a hostile one. The file has no update path: its
// numbers are the parent's, and the bands are never refitted.
func TestDrawDistributionPin(t *testing.T) {
	parent := readDrawParent(t)
	sim := des.New(0)
	for _, fam := range drawFamilies(t) {
		var cur drawSample
		for seed := int64(1); seed <= drawSeeds; seed++ {
			d := fam.run(t, sim, seed)
			if fam.hostile && d.violations == 0 {
				t.Errorf("%s seed %d: hostile run recorded no violation", fam.name, seed)
			}
			if !fam.hostile && d.violations != 0 {
				t.Errorf("%s seed %d: honest run recorded %d violations", fam.name, seed, d.violations)
			}
			cur.add(d)
		}
		sort.Float64s(cur.dev)
		par := parent[fam.name]
		if par == nil {
			t.Errorf("%s: no parent sample in draws_parent.txt", fam.name)
			continue
		}
		check := func(stat string, got, lo, hi float64) {
			if got < lo || got > hi {
				t.Errorf("%s %s = %.6g, outside the parent's band [%.6g, %.6g]", fam.name, stat, got, lo, hi)
			} else {
				t.Logf("%s %s = %.6g in [%.6g, %.6g]", fam.name, stat, got, lo, hi)
			}
		}
		for _, q := range []float64{0.5, 0.9} {
			lo, hi := quantileBand(par["dev"], q)
			check(fmt.Sprintf("p%.0f dev/Δ", 100*q), nearestRank(cur.dev, q), lo, hi)
		}
		lo, hi := maxBand(par["dev"])
		check("max dev/Δ", cur.dev[len(cur.dev)-1], lo, hi)
		cols := cur.columns()
		for _, col := range []string{"msgs", "drops", "bytes"} {
			lo, hi := totalBand(par[col], par[col+"-sd"][0])
			check(col+" total", total(cols[col]), lo, hi)
		}
	}
}
