package clocksync_test

import (
	"testing"

	"clocksync/internal/experiments"
)

// Experiment benchmarks — one per table/figure of EXPERIMENTS.md. Each
// regenerates the experiment (quick mode) and fails the benchmark if the
// measured results lose the shape the paper predicts. Run
// `go run ./cmd/benchtables` for full-length tables with the printed output.

func benchExperiment(b *testing.B, run func(bool) experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table := run(true)
		if !table.ChecksPass() {
			b.Fatalf("%s failed its shape checks:\n%s", table.ID, table.String())
		}
	}
}

func BenchmarkE01Deviation(b *testing.B) { benchExperiment(b, experiments.E01Deviation) }

func BenchmarkE02AccuracyTradeoff(b *testing.B) {
	benchExperiment(b, experiments.E02AccuracyTradeoff)
}

func BenchmarkE03RecoveryHalving(b *testing.B) {
	benchExperiment(b, experiments.E03RecoveryHalving)
}

func BenchmarkE04RecoveryVsBaselines(b *testing.B) {
	benchExperiment(b, experiments.E04RecoveryVsBaselines)
}

func BenchmarkE05MobileAdversary(b *testing.B) {
	benchExperiment(b, experiments.E05MobileAdversary)
}

func BenchmarkE06ResilienceThreshold(b *testing.B) {
	benchExperiment(b, experiments.E06ResilienceThreshold)
}

func BenchmarkE07TwoClique(b *testing.B) { benchExperiment(b, experiments.E07TwoClique) }

func BenchmarkE08MessageOverhead(b *testing.B) {
	benchExperiment(b, experiments.E08MessageOverhead)
}

func BenchmarkE09Discontinuity(b *testing.B) {
	benchExperiment(b, experiments.E09Discontinuity)
}

func BenchmarkE10EstimationError(b *testing.B) {
	benchExperiment(b, experiments.E10EstimationError)
}

func BenchmarkE11WayOffAblation(b *testing.B) {
	benchExperiment(b, experiments.E11WayOffAblation)
}

func BenchmarkE12DriftDelaySweep(b *testing.B) {
	benchExperiment(b, experiments.E12DriftDelaySweep)
}

func BenchmarkE13ConnectivitySweep(b *testing.B) {
	benchExperiment(b, experiments.E13ConnectivitySweep)
}

func BenchmarkE14SelfStabilization(b *testing.B) {
	benchExperiment(b, experiments.E14SelfStabilization)
}

func BenchmarkE15DriftCompensation(b *testing.B) {
	benchExperiment(b, experiments.E15DriftCompensation)
}

func BenchmarkE16MessageLoss(b *testing.B) {
	benchExperiment(b, experiments.E16MessageLoss)
}

func BenchmarkE17CachedEstimation(b *testing.B) {
	benchExperiment(b, experiments.E17CachedEstimation)
}

func BenchmarkE18ProactiveSecurity(b *testing.B) {
	benchExperiment(b, experiments.E18ProactiveSecurity)
}

func BenchmarkE19TightnessProbe(b *testing.B) {
	benchExperiment(b, experiments.E19TightnessProbe)
}

func BenchmarkE20NetworkOutage(b *testing.B) {
	benchExperiment(b, experiments.E20NetworkOutage)
}

func BenchmarkE21SamplingScaling(b *testing.B) {
	benchExperiment(b, experiments.E21SamplingScaling)
}
