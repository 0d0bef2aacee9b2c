package main

import (
	"fmt"
	"os"
	"time"

	"gottg/internal/bench"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

// metgReps is how many times cmdMETG repeats each granularity, keeping the
// fastest repetition.
const metgReps = 3

// metgFlopsList is the granularity sweep for cmdMETG, largest first like the
// paper's efficiency curves.
func metgFlopsList(full bool) []int {
	if full {
		return []int{262144, 65536, 16384, 4096, 1024, 256, 64}
	}
	return []int{65536, 16384, 4096, 1024, 256, 64}
}

// cmdMETG measures the Minimum Effective Task Granularity (Task-Bench
// METG(50%)): a flops-per-task sweep of the shared-memory TTG runner, once
// with the default policy and once with online bottom-level priorities,
// each summarized as a BENCH record carrying the `metg` block. A lower METG
// means the runtime stays efficient at smaller tasks — the paper's headline
// axis.
func cmdMETG(c *ctx) {
	workers := c.maxT
	if workers <= 0 {
		workers = c.hostCPUs
	}
	if workers > 4 {
		workers = 4
	}
	if workers < 1 {
		workers = 1
	}
	base := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: 100}
	if c.full {
		base.Steps = 500
	}
	flopsList := metgFlopsList(c.full)
	variants := []struct {
		label    string
		priority bool
	}{
		{"off", false},
		{"on", true},
	}
	if !*flagJSON {
		fmt.Printf("# metg: %s width=%d steps=%d, %d workers, METG(50%%) sweep %v\n",
			base.Pattern.String(), base.Width, base.Steps, workers, flopsList)
	}
	for _, v := range variants {
		runner := taskbench.TTGRunner{
			Label: "TTG metg " + v.label,
			Cfg: func(threads int) rt.Config {
				cfg := rt.OptimizedConfig(threads)
				cfg.PinWorkers = false
				cfg.AutoPriority = v.priority
				return cfg
			},
		}
		pts := taskbench.SweepBest(runner, base, workers, flopsList, 0, metgReps)
		metg := taskbench.METG(pts, 0.5)
		peak := taskbench.PeakRate(pts)
		var tasks int64
		var elapsedNs int64
		for _, p := range pts {
			tasks += int64(base.TotalTasks())
			elapsedNs += p.Elapsed.Nanoseconds()
		}
		rec := bench.NewRecord("ttg-bench", runner.Label, workers, tasks, time.Duration(elapsedNs))
		rec.Config = map[string]any{
			"pattern":  base.Pattern.String(),
			"width":    base.Width,
			"steps":    base.Steps,
			"priority": v.priority,
		}
		rec.METG = &bench.METG{
			FracPct:    50,
			Flops:      metg,
			PeakRate:   peak,
			SweepFlops: flopsList,
		}
		if *flagJSON {
			if err := bench.WriteRecord(os.Stdout, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Printf("%-14s METG(50%%) = %d flops/task  (peak %.3g flops/s/core over %d granularities)\n",
				runner.Label, metg, peak, len(pts))
		}
	}
}
