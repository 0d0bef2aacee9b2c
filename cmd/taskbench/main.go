// Command taskbench runs the parameterized Task-Bench benchmark (paper
// §V-D) on a selectable runtime, mirroring the upstream task-bench CLI.
//
// Example:
//
//	taskbench -pattern stencil_1d -width 4 -steps 1000 -flops 10000 -runtime ttg -threads 4
//	taskbench -list
//	taskbench -runtime all -verify
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"gottg/internal/bench"
	"gottg/internal/metrics"
	"gottg/internal/obs/critpath"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

var (
	flagPattern = flag.String("pattern", "stencil_1d", "dependency pattern: trivial|no_comm|stencil_1d|fft|random_nearest")
	flagWidth   = flag.Int("width", 4, "points per timestep")
	flagSteps   = flag.Int("steps", 1000, "timesteps")
	flagFlops   = flag.Int("flops", 10000, "flops per task")
	flagRuntime = flag.String("runtime", "ttg", "runtime to use (substring of a runner name, or 'all')")
	flagThreads = flag.Int("threads", 1, "worker threads")
	flagVerify  = flag.Bool("verify", false, "check checksums against the sequential reference")
	flagList    = flag.Bool("list", false, "list available runners and exit")
	flagRanks   = flag.Int("ranks", 0, "run the TTG implementation across N simulated ranks instead")
	flagJSON    = flag.Bool("json", false, "emit BENCH records as JSON lines instead of text (TTG runners include a metric snapshot)")

	flagCritpath = flag.Bool("critpath", false, "with -ranks: run with causal tracing and print/embed a critical-path report")
	flagTrace    = flag.String("trace", "", "with -critpath: write the merged Chrome trace (with flow events) to this file")

	flagKillRank  = flag.Int("kill-rank", -1, "fail-stop this rank mid-run (requires -ranks; enables fault tolerance)")
	flagKillAfter = flag.Int64("kill-after", 8, "kill the victim after it has executed this many tasks")
	flagPrune     = flag.Bool("prune", true, "prune replay logs as downstream ranks quiesce (with -kill-rank)")

	flagSteal   = flag.Bool("steal", false, "enable inter-rank work stealing (requires -ranks; two-phase with -kill-rank/-net FT)")
	flagSkew    = flag.Float64("skew", 0, "tilt kernel cost linearly across points: point p costs (1 + skew*p/(width-1)) x flops")
	flagSleepNs = flag.Int64("sleep-ns", 0, "add a skew-scaled blocking sleep of this many ns to each task (task-bench sleep kernel)")

	flagPriority = flag.Bool("priority", false, "enable online bottom-level task priorities (TTG runners)")
)

// tuned applies -priority to the shared-memory TTG runners (the other
// contenders have no equivalent policy to toggle).
func tuned(runners []taskbench.Runner) []taskbench.Runner {
	for i, r := range runners {
		if tr, ok := r.(taskbench.TTGRunner); ok {
			base := tr.Cfg
			tr.Cfg = func(threads int) rt.Config {
				c := base(threads)
				c.AutoPriority = *flagPriority
				return c
			}
			runners[i] = tr
		}
	}
	return runners
}

// netMode reports whether this process is the launcher (-net) or a rank
// (-rank-id) of a multi-process run.
func netMode() bool { return *flagNet || *flagRankID >= 0 }

// distOptions assembles the options of a -ranks run — or, in child mode, of
// this process's rank — from the flags.
func distOptions() taskbench.DistOptions {
	o := taskbench.DistOptions{
		Ranks:    *flagRanks,
		Workers:  *flagThreads,
		Priority: *flagPriority,
		Trace:    *flagCritpath && !netMode(), // spans do not cross the process pipe
		Steal:    *flagSteal,
		FT:       netMode() || *flagKillRank >= 0,
	}
	if netMode() { // the flags that say "with -net"
		o.SuspectAfter = time.Duration(*flagSuspectMS) * time.Millisecond
		o.Telemetry = *flagTelemetry
		o.TelemetryInterval = *flagTelemetryInt
		o.ObsAddr = *flagObs // only rank 0 binds it
		o.FlightDir = *flagFlightDir
	}
	if *flagKillRank >= 0 {
		// One rank fail-stopped mid-run: the survivors re-home its keys and
		// re-execute its tasks, so the checksum must still match the reference.
		o.KillRank = *flagKillRank
		o.KillAfterTasks = max(*flagKillAfter, 1) // 0 would mean "no kill"
		o.Pruning = *flagPrune
	}
	if *flagRankID >= 0 && *flagRankID == *flagNetKillRank {
		o.KillAfterTasks = *flagNetKillAfter
		o.KillFunc = func() {
			// A real fail-stop: SIGKILL, no deferred cleanup, no flushes.
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
		}
	}
	return o
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, args...)
	os.Exit(1)
}

// emitRecord prints one BENCH JSON record for a finished run.
func emitRecord(name string, workers, ranks int, res taskbench.Result, spec taskbench.Spec, mx map[string]float64, cp *bench.CritPath) {
	rec := bench.NewRecord("taskbench", name, workers, int64(res.Tasks), res.Elapsed)
	rec.Ranks = ranks
	rec.Config = map[string]any{
		"pattern": spec.Pattern.String(),
		"width":   spec.Width,
		"steps":   spec.Steps,
		"flops":   spec.Flops,
	}
	if spec.Skew > 0 {
		rec.Config["skew"] = spec.Skew
	}
	if spec.SleepNs > 0 {
		rec.Config["sleep_ns"] = spec.SleepNs
	}
	if *flagSteal {
		rec.Config["steal"] = true
	}
	if *flagPriority {
		rec.Config["priority"] = true
	}
	rec.Metrics = mx
	rec.Critpath = cp
	if err := bench.WriteRecord(os.Stdout, rec); err != nil {
		fatal(err)
	}
}

// reportDist prints a -ranks run: a BENCH record with -json, otherwise the
// result line followed by one line per feature that was on.
func reportDist(spec taskbench.Spec, o taskbench.DistOptions, res taskbench.Result, rep taskbench.DistReport, status string) {
	ranks := min(o.Ranks, spec.Width)
	name, label := "TTG distributed", fmt.Sprintf("TTG distributed (%d ranks)", ranks)
	switch {
	case *flagNet:
		name, label = "TTG dist tcp multiproc", fmt.Sprintf("TTG dist tcp (%d procs)", ranks)
	case o.KillAfterTasks > 0:
		name, label = "TTG distributed FT", fmt.Sprintf("TTG distributed FT (%d ranks, killed %d)", ranks, o.KillRank)
	case o.Trace:
		name, label = "TTG distributed critpath", fmt.Sprintf("TTG distributed critpath (%d ranks)", ranks)
	}
	var cp *critpath.Report
	if o.Trace {
		var err error
		if cp, err = critpath.Analyze(rep.Spans); err != nil {
			fatal("critpath:", err)
		}
	}
	if *flagJSON {
		// Each mode keeps the metric keys its record has always carried (CI
		// validates them), hence the -net distinctions.
		mx := map[string]float64{}
		if o.FT {
			mx["comm.rank_deaths"] = float64(rep.Deaths)
			mx["termdet.wave_restarts"] = float64(rep.WaveRestarts)
			mx["core.tasks_reexecuted"] = float64(rep.Reexecuted)
			if *flagNet {
				mx["comm.reconnects"] = float64(rep.Reconnects)
			} else {
				mx["core.keys_remapped"] = float64(rep.Remapped)
				mx["core.replays_pruned"] = float64(rep.Pruned)
			}
		}
		if o.Steal {
			mx["comm.steal_reqs"] = float64(rep.StealReqs)
			mx["comm.steals"] = float64(rep.Steals)
			mx["comm.steal_tasks"] = float64(rep.StealTasks)
			mx["comm.steal_aborts"] = float64(rep.StealAborts)
			if o.FT && !*flagNet {
				mx["core.tasks_rehomed"] = float64(rep.Rehomed)
			}
		}
		if o.Telemetry {
			mx["telemetry.samples"] = float64(rep.Samples)
			mx["telemetry.frames"] = float64(rep.Frames)
			mx["telemetry.coverage"] = float64(rep.Coverage)
			mx["telemetry.events"] = float64(rep.Events)
		}
		if len(mx) == 0 {
			mx = nil
		}
		emitRecord(name, o.Workers, ranks, res, spec, mx, critpathRecord(cp))
	} else {
		fmt.Printf("%-44s %10d tasks  %12v total  %10v/task%s\n", label, res.Tasks, res.Elapsed, res.PerTask(), status)
		if o.FT {
			fmt.Printf("  reconnects=%d deaths=%d wave_restarts=%d reexecuted=%d remapped=%d pruned=%d keymap=%v\n",
				rep.Reconnects, rep.Deaths, rep.WaveRestarts, rep.Reexecuted, rep.Remapped, rep.Pruned, rep.Keymap)
		}
		if o.Steal {
			fmt.Printf("  steals=%d steal_tasks=%d steal_reqs=%d steal_aborts=%d rehomed=%d\n",
				rep.Steals, rep.StealTasks, rep.StealReqs, rep.StealAborts, rep.Rehomed)
		}
		if o.Telemetry {
			fmt.Printf("  telemetry: coverage=%d/%d samples=%d frames=%d events=%d\n",
				rep.Coverage, ranks, rep.Samples, rep.Frames, rep.Events)
		}
		if cp != nil {
			printCritpath(cp)
		}
	}
	if *flagTrace != "" && o.Trace {
		writeTrace(*flagTrace, rep.ChromeEvents)
	}
}

func main() {
	flag.Parse()
	runners := tuned(taskbench.StandardRunners())
	if *flagList {
		for _, r := range runners {
			fmt.Println(r.Name())
		}
		return
	}
	pat, err := taskbench.ParsePattern(*flagPattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec := taskbench.Spec{Pattern: pat, Width: *flagWidth, Steps: *flagSteps, Flops: *flagFlops, Skew: *flagSkew, SleepNs: *flagSleepNs}
	if *flagRankID >= 0 {
		// Child mode: run one rank of a -net world and report on stdout.
		runNetChild(spec, distOptions())
		return
	}
	var want float64
	status := ""
	if *flagVerify {
		want = spec.Reference()
		status = "  checksum OK"
	}
	verify := func(name string, res taskbench.Result) {
		if *flagVerify && math.Float64bits(res.Checksum) != math.Float64bits(want) {
			fatal(fmt.Sprintf("%sCHECKSUM MISMATCH (got %v want %v)", name, res.Checksum, want))
		}
	}
	if *flagRanks > 0 {
		o := distOptions()
		run := taskbench.RunDist
		if *flagNet {
			run = launchNet
		}
		res, rep, err := run(spec, o)
		if err != nil {
			fatal(err)
		}
		verify("", res)
		reportDist(spec, o, res, rep, status)
		return
	}
	matched := 0
	for _, r := range runners {
		if *flagRuntime != "all" && !strings.Contains(strings.ToLower(r.Name()), strings.ToLower(*flagRuntime)) {
			continue
		}
		if !r.Supports(pat) {
			fmt.Printf("%-44s pattern %s unsupported, skipped\n", r.Name(), pat)
			continue
		}
		matched++
		var res taskbench.Result
		var mx map[string]float64
		if tr, ok := r.(taskbench.TTGRunner); ok && *flagJSON {
			// The TTG runner exposes the unified metrics layer; its BENCH
			// records carry the full post-run snapshot.
			var snap metrics.Snapshot
			res, snap = tr.RunInstrumented(spec, *flagThreads)
			mx = snap.Flatten()
		} else {
			res = r.Run(spec, *flagThreads)
		}
		verify(r.Name()+": ", res)
		if *flagJSON {
			emitRecord(r.Name(), *flagThreads, 0, res, spec, mx, nil)
			continue
		}
		fmt.Printf("%-44s %10d tasks  %12v total  %10v/task%s\n",
			r.Name(), res.Tasks, res.Elapsed, res.PerTask(), status)
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "no runner matches %q; use -list\n", *flagRuntime)
		os.Exit(2)
	}
}
