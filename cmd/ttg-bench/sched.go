package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"gottg/internal/bench"
	"gottg/internal/obs/critpath"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

// schedReps is how many times cmdSched repeats each (pattern, policy) cell
// before taking the median-queue-share repetition.
const schedReps = 3

// cmdSched is the critical-path-guided-scheduling A/B profile: a ~1k-cycle
// Task-Bench (chain and stencil_1d patterns) run distributed with causal
// tracing, once with the default policy and once with online bottom-level
// priorities plus adaptive inlining, emitting one critpath-bearing BENCH
// record per (pattern, policy) cell. The CI sched-smoke job asserts the "on"
// rows spend a smaller share of the critical path in scheduler queue wait
// (chain) and less per-task overhead (both patterns).
//
// Each cell runs schedReps times and reports the repetition with the median
// per-task path overhead: single traced runs on an oversubscribed CI host
// see large scheduling-noise swings, medians don't.
func cmdSched(c *ctx) {
	steps := 200
	if c.full {
		steps = 1000
	}
	specs := []struct {
		label string
		spec  taskbench.Spec
		ranks int
		wpr   int
	}{
		// no_comm is Task-Bench's chain pattern: each point feeds only
		// itself, so the iteration space is Width independent chains.
		{"chain", taskbench.Spec{Pattern: taskbench.NoComm, Width: 16, Steps: steps, Flops: 1000}, 4, 2},
		// The stencil cell runs 2x1: its critical path crosses ranks every
		// hop, so on an oversubscribed host extra virtual workers only add
		// timeshare noise to the comm term and bury the scheduling signal.
		{"stencil_1d", taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: steps, Flops: 1000}, 2, 1},
	}
	// The 20µs producer-cost ceiling (vs the 3µs default) keeps the inline
	// gate from flapping when body times measured under GOMAXPROCS
	// oversubscription include preemption gaps.
	variants := []struct {
		label string
		tn    taskbench.Tuning
	}{
		{"off", taskbench.Tuning{}},
		{"on", taskbench.Tuning{Priority: true, InlineAuto: true, InlineNs: 20000}},
	}
	if !*flagJSON {
		fmt.Printf("# sched: 1k-cycle Task-Bench, priorities+adaptive inlining off vs on (causal tracing, median of %d)\n",
			schedReps)
	}
	for _, sp := range specs {
		want := sp.spec.Reference()
		for _, v := range variants {
			type cell struct {
				res taskbench.Result
				rep *critpath.Report
			}
			cells := make([]cell, 0, schedReps)
			for i := 0; i < schedReps; i++ {
				res, td := mustRunDist(fmt.Sprintf("sched: %s/%s", sp.label, v.label), sp.spec, want,
					taskbench.DistOptions{Ranks: sp.ranks, Workers: sp.wpr, Trace: true, Tune: v.tn})
				rep, err := critpath.Analyze(td.Spans)
				if err != nil {
					fmt.Fprintf(os.Stderr, "sched: %s/%s: %v\n", sp.label, v.label, err)
					os.Exit(1)
				}
				cells = append(cells, cell{res, rep})
			}
			sort.Slice(cells, func(i, j int) bool {
				return cells[i].rep.PerTaskOverheadNs < cells[j].rep.PerTaskOverheadNs
			})
			res, rep := cells[schedReps/2].res, cells[schedReps/2].rep
			queueShare := float64(rep.QueueNs) / float64(rep.LenNs) * 100
			cycles := rep.PerTaskOverheadNs * c.ghz
			name := fmt.Sprintf("TTG sched %s (%s)", v.label, sp.label)
			rec := bench.NewRecord("ttg-bench", name, sp.wpr, int64(res.Tasks), res.Elapsed)
			rec.Ranks = sp.ranks
			rec.Config = map[string]any{
				"pattern":     sp.spec.Pattern.String(),
				"width":       sp.spec.Width,
				"steps":       sp.spec.Steps,
				"flops":       sp.spec.Flops,
				"priority":    v.tn.Priority,
				"inline_auto": v.tn.InlineAuto,
			}
			rec.Metrics = map[string]float64{
				"critpath.queue_share_pct": queueShare,
			}
			rec.Critpath = &bench.CritPath{
				Spans:                 rep.Spans,
				Tasks:                 rep.Tasks,
				LenNs:                 rep.LenNs,
				BodyNs:                rep.BodyNs,
				QueueNs:               rep.QueueNs,
				CommNs:                rep.CommNs,
				RemoteHops:            rep.RemoteHops,
				PerTaskOverheadNs:     rep.PerTaskOverheadNs,
				PerTaskOverheadCycles: cycles,
			}
			if *flagJSON {
				if err := bench.WriteRecord(os.Stdout, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				fmt.Printf("%-28s %8d tasks  %9.0f ns/task  queue-wait %5.1f%% of path  overhead %6.0f cyc/task\n",
					name, rec.Tasks, rec.PerTaskNs, queueShare, cycles)
			}
		}
	}
}

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
// with the default policy and once with priorities plus adaptive inlining,
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
		label string
		tn    taskbench.Tuning
	}{
		{"off", taskbench.Tuning{}},
		{"on", taskbench.Tuning{Priority: true, InlineAuto: true}},
	}
	if !*flagJSON {
		fmt.Printf("# metg: %s width=%d steps=%d, %d workers, METG(50%%) sweep %v\n",
			base.Pattern.String(), base.Width, base.Steps, workers, flopsList)
	}
	for _, v := range variants {
		tn := v.tn
		runner := taskbench.TTGRunner{
			Label: "TTG metg " + v.label,
			Cfg: func(threads int) rt.Config {
				cfg := rt.OptimizedConfig(threads)
				cfg.PinWorkers = false
				tn.Apply(&cfg)
				return cfg
			},
		}
		pts := taskbench.SweepBest(runner, base, workers, flopsList, 0, schedReps)
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
			"pattern":     base.Pattern.String(),
			"width":       base.Width,
			"steps":       base.Steps,
			"priority":    tn.Priority,
			"inline_auto": tn.InlineAuto,
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
