package taskbench

import (
	"sort"
	"testing"
	"time"

	"gottg/internal/rt"
)

// The overhead acceptance gate for the unified metrics layer: with metrics
// enabled, Task-Bench throughput on 1k-cycle tasks must stay within a few
// percent of the uninstrumented run. Compare:
//
//	go test ./internal/taskbench -run - -bench 'TTGStencilMetrics' -benchtime 5x
//
// and check the ns/op ratio between the Off and On variants.
func metricsBenchSpec() Spec {
	return Spec{Pattern: Stencil1D, Width: 16, Steps: 500, Flops: 1000}
}

func metricsBenchRunner() TTGRunner {
	return TTGRunner{Label: "TTG LLP", Cfg: func(t int) rt.Config {
		cfg := rt.OptimizedConfig(t)
		cfg.PinWorkers = false
		return cfg
	}}
}

// TestMetricsOverheadBudget is the CI form of the gate: with metrics on and
// causal tracing off (RunInstrumented never enables it), throughput must
// stay near the uninstrumented run. The budget is <2% on quiet hardware;
// the assertion allows 15% so shared CI runners don't flake, which still
// catches the failure mode it guards against — accidentally timing every
// task (≈2 clock reads per µs-scale task, ~10%+) or enabling span
// allocation on the metrics-only path.
//
// Statistics: each of K rounds runs the two variants back-to-back (paired),
// so slowly-decaying background load — GC debt or goroutine teardown from
// heavier tests sharing this binary — hits both sides of one pair roughly
// equally and cancels in the per-pair ratio. The assertion is on the MEDIAN
// of the K ratios: a single pair polluted by a scheduler hiccup (in either
// direction) cannot decide the verdict, unlike min-of-N — where one lucky
// "off" and one ordinary "on" manufacture a false overhead — and unlike a
// retry-until-green loop, which converts a real regression into flakiness
// instead of a deterministic failure.
func TestMetricsOverheadBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate")
	}
	spec, r := metricsBenchSpec(), metricsBenchRunner()
	const rounds = 9
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		// Alternate which variant leads within the pair: if ambient load
		// decays monotonically, leading is a (dis)advantage that would
		// otherwise bias every pair the same way.
		var off, on time.Duration
		if i%2 == 0 {
			off = r.Run(spec, 2).Elapsed
			res, _ := r.RunInstrumented(spec, 2)
			on = res.Elapsed
		} else {
			res, _ := r.RunInstrumented(spec, 2)
			on = res.Elapsed
			off = r.Run(spec, 2).Elapsed
		}
		ratio := float64(on) / float64(off)
		ratios = append(ratios, ratio)
		t.Logf("pair %d: metrics off %v, on %v, ratio %.3f", i, off, on, ratio)
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	t.Logf("median ratio %.3f over %d pairs", median, rounds)
	if median > 1.15 {
		t.Fatalf("metrics overhead median ratio %.3f exceeds budget 1.15 (pairs %v)", median, ratios)
	}
}

func BenchmarkTTGStencilMetricsOff(b *testing.B) {
	spec, r := metricsBenchSpec(), metricsBenchRunner()
	tasks := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Run(spec, 2)
		tasks += int64(res.Tasks)
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

func BenchmarkTTGStencilMetricsOn(b *testing.B) {
	spec, r := metricsBenchSpec(), metricsBenchRunner()
	tasks := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := r.RunInstrumented(spec, 2)
		tasks += int64(res.Tasks)
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}
