package main

import (
	"fmt"
	"os"

	"gottg/internal/bench"
	"gottg/internal/taskbench"
)

// figSteal runs the work-stealing benchmark matrix — a balanced and a
// deliberately skewed Task-Bench stencil at 4 simulated ranks, stealing off
// and on — and emits one BENCH record per cell. The skewed instance tilts
// the kernel cost linearly across the iteration space (Spec.Skew) so the
// block map overloads the highest rank; stealing must actually fire there
// (the command fails on zero steals) and is expected to beat its steal-off
// pair on throughput, which the steal-smoke CI job asserts from the records.
// The balanced rows bound the protocol's overhead when there is nothing
// worth moving.
func figSteal(c *ctx) {
	ranks, wpr := 4, 2
	// The sleep component (upstream task-bench's "sleep" kernel type) makes
	// the instance latency-bound: a sleeping task holds a worker, not a core,
	// so rebalancing shows up in wall clock even when the host has fewer CPUs
	// than ranks x workers — without it a CPU-bound skewed run on a small host
	// just timeshares one core and stealing can't beat the total-flops floor.
	base := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 64, Steps: 20, Flops: 2000, SleepNs: 500_000}
	if c.full {
		base.Steps = 60
	}
	instances := []struct {
		label string
		spec  taskbench.Spec
	}{
		{"balanced", base},
		{"skewed", func() taskbench.Spec { s := base; s.Skew = 8; return s }()},
	}
	for _, inst := range instances {
		want := inst.spec.Reference()
		var perSec [2]float64 // indexed by steal on/off for the win report
		for _, steal := range []bool{false, true} {
			res, st := mustRunDist(fmt.Sprintf("steal: %s steal=%v", inst.label, steal), inst.spec, want,
				taskbench.DistOptions{Ranks: ranks, Workers: wpr, Metrics: true, Steal: steal})
			if steal && inst.spec.Skew > 0 && st.Steals == 0 {
				fmt.Fprintf(os.Stderr, "steal: skewed instance completed zero steals (reqs=%d aborts=%d)\n",
					st.StealReqs, st.StealAborts)
				os.Exit(1)
			}
			name := fmt.Sprintf("TTG dist %s steal-off", inst.label)
			if steal {
				name = fmt.Sprintf("TTG dist %s steal-on", inst.label)
			}
			rec := bench.NewRecord("ttg-bench", name, wpr, int64(res.Tasks), res.Elapsed)
			rec.Ranks = ranks
			rec.Config = map[string]any{
				"pattern":  inst.spec.Pattern.String(),
				"width":    inst.spec.Width,
				"steps":    inst.spec.Steps,
				"flops":    inst.spec.Flops,
				"sleep_ns": inst.spec.SleepNs,
				"skew":     inst.spec.Skew,
				"steal":    steal,
			}
			rec.Metrics = map[string]float64{
				"comm.msgs.sent":    float64(st.Messages),
				"comm.acts_per_msg": st.ActsPerMsg(),
				"comm.steal_reqs":   float64(st.StealReqs),
				"comm.steals":       float64(st.Steals),
				"comm.steal_tasks":  float64(st.StealTasks),
				"comm.steal_aborts": float64(st.StealAborts),
			}
			idx := 0
			if steal {
				idx = 1
			}
			perSec[idx] = rec.TasksPerSec
			if *flagJSON {
				if err := bench.WriteRecord(os.Stdout, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				fmt.Printf("%-28s %2d ranks x%d  %8d tasks  %12.0f tasks/s  steals=%d (%d tasks, %d reqs, %d aborts)\n",
					name, ranks, wpr, rec.Tasks, rec.TasksPerSec, st.Steals, st.StealTasks, st.StealReqs, st.StealAborts)
			}
		}
		if !*flagJSON {
			fmt.Printf("%-28s steal-on/steal-off throughput ratio %.2fx\n", inst.label, perSec[1]/perSec[0])
		}
	}
}
