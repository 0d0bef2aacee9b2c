package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gottg/internal/bench"
	"gottg/internal/taskbench"
)

// telemetryReps is how many paired off/on runs cmdTelemetry takes per
// pattern before reporting the median ratio — single pairs on a shared host
// swing with scheduling noise, medians over enough alternating-lead pairs
// don't.
const telemetryReps = 9

// cmdTelemetry is the telemetry-plane overhead profile: a ~1k-cycle
// Task-Bench (chain and stencil_1d) run over 4 in-process ranks, once with
// the cluster telemetry plane off and once streaming at the default 250ms
// interval, emitting one BENCH record per (pattern, plane) cell. Both sides
// run with the metric registries enabled — the counters' own cost has its
// own budget gate (TestMetricsOverheadBudget); these rows isolate what the
// plane adds (sampler goroutine, flattening, frame streaming, rank-0
// aggregation). The "on" rows carry the median on/off elapsed ratio as
// telemetry.overhead_pct; the committed BENCH_pr10.json must show <2% on
// the chain pattern.
func cmdTelemetry(c *ctx) {
	steps := 200
	if c.full {
		steps = 1000
	}
	specs := []struct {
		label string
		spec  taskbench.Spec
	}{
		// no_comm is Task-Bench's chain pattern: width independent chains.
		{"chain", taskbench.Spec{Pattern: taskbench.NoComm, Width: 16, Steps: steps, Flops: 1000}},
		{"stencil_1d", taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: steps, Flops: 1000}},
	}
	const ranks, wpr = 4, 2
	if !*flagJSON {
		fmt.Printf("# telemetry: %d-cycle Task-Bench over %d ranks, plane off vs on (250ms interval, median of %d pairs)\n",
			steps, ranks, telemetryReps)
	}
	for _, sp := range specs {
		want := sp.spec.Reference()
		run := func(on bool) (time.Duration, taskbench.DistReport) {
			res, rep := mustRunDist(fmt.Sprintf("telemetry: %s on=%v", sp.label, on), sp.spec, want, taskbench.DistOptions{
				Ranks: ranks, Workers: wpr, Telemetry: on, RuntimeMetrics: true,
				TelemetryInterval: 250 * time.Millisecond,
			})
			return res.Elapsed, rep
		}
		offs := make([]time.Duration, 0, telemetryReps)
		ons := make([]time.Duration, 0, telemetryReps)
		ratios := make([]float64, 0, telemetryReps)
		var lastRep taskbench.DistReport
		for i := 0; i < telemetryReps; i++ {
			var off, on time.Duration
			if i%2 == 0 { // alternate lead so drift cannot bias one side
				off, _ = run(false)
				on, lastRep = run(true)
			} else {
				on, lastRep = run(true)
				off, _ = run(false)
			}
			offs = append(offs, off)
			ons = append(ons, on)
			ratios = append(ratios, float64(on)/float64(off))
		}
		sort.Float64s(ratios)
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		sort.Slice(ons, func(i, j int) bool { return ons[i] < ons[j] })
		median := ratios[len(ratios)/2]
		overheadPct := (median - 1) * 100
		tasks := int64(sp.spec.TotalTasks())
		for _, v := range []struct {
			label   string
			elapsed time.Duration
			on      bool
		}{
			{"off", offs[len(offs)/2], false},
			{"on", ons[len(ons)/2], true},
		} {
			name := fmt.Sprintf("TTG telemetry %s (%s)", v.label, sp.label)
			rec := bench.NewRecord("ttg-bench", name, wpr, tasks, v.elapsed)
			rec.Ranks = ranks
			rec.Config = map[string]any{
				"pattern":     sp.spec.Pattern.String(),
				"width":       sp.spec.Width,
				"steps":       sp.spec.Steps,
				"flops":       sp.spec.Flops,
				"metrics":     true, // registries on both sides; rows isolate the plane
				"telemetry":   v.on,
				"interval_ms": 250,
			}
			if v.on {
				rec.Metrics = map[string]float64{
					"telemetry.overhead_ratio": median,
					"telemetry.overhead_pct":   overheadPct,
					"telemetry.coverage":       float64(lastRep.Coverage),
					"telemetry.samples":        float64(lastRep.Samples),
					"telemetry.frames":         float64(lastRep.Frames),
					"telemetry.events":         float64(lastRep.Events),
				}
			}
			if *flagJSON {
				if err := bench.WriteRecord(os.Stdout, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				fmt.Printf("%-30s %8d tasks  %9.0f ns/task\n", name, rec.Tasks, rec.PerTaskNs)
			}
		}
		if !*flagJSON {
			fmt.Printf("%-30s median overhead %+.2f%%  (coverage %d/%d, %d samples, %d frames)\n",
				fmt.Sprintf("  plane cost (%s)", sp.label), overheadPct,
				lastRep.Coverage, ranks, lastRep.Samples, lastRep.Frames)
		}
	}
}
