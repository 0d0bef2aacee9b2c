package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"gottg/internal/bench"
	"gottg/internal/metrics"
	"gottg/internal/obs/critpath"
	"gottg/internal/taskbench"
)

// cmdCritpath runs the causal-tracing profile: a distributed Task-Bench
// stencil with causal tracing on, critical-path analysis of the recorded
// span DAG, and the overhead attribution cross-checked against the
// calibrated contention model (Eq. 1) and the atomic-operation audit.
// With -json it emits a BENCH record carrying the `critpath` field; with
// -trace FILE it writes the merged Chrome trace (task slices + comm events
// + producer→consumer flow arrows) and verifies the emitted JSON.
func cmdCritpath(c *ctx) {
	spec := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: 200, Flops: 50000}
	ranks, wpr := 4, 2
	if !*flagJSON {
		fmt.Printf("# critpath: %s width=%d steps=%d flops=%d, %d ranks x %d workers (causal tracing on)\n",
			spec.Pattern.String(), spec.Width, spec.Steps, spec.Flops, ranks, wpr)
	}
	res, td := mustRunDist("critpath", spec, spec.Reference(), taskbench.DistOptions{Ranks: ranks, Workers: wpr, Trace: true})
	rep, err := critpath.Analyze(td.Spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critpath: %v\n", err)
		os.Exit(1)
	}

	elapsed := res.Elapsed
	coverage := float64(rep.LenNs) / float64(elapsed.Nanoseconds()) * 100
	cycles := rep.PerTaskOverheadNs * c.ghz

	// Cross-checks: the calibrated single-worker scheduling overhead (what
	// Eq. 1 predicts the runtime costs per task without queueing) and the
	// measured atomic-RMW count per task priced at the architecture's
	// uncontended cost.
	cal := c.calibration()
	tasks := res.Tasks
	atomicsPerTask := float64(td.Atomics) / float64(tasks)
	atomicsNs := atomicsPerTask * cal.Arch.UncontendedNs

	if *flagJSON {
		rec := bench.NewRecord("ttg-bench", "TTG critpath", wpr, int64(tasks), elapsed)
		rec.Ranks = ranks
		rec.Config = map[string]any{
			"pattern": spec.Pattern.String(),
			"width":   spec.Width,
			"steps":   spec.Steps,
			"flops":   spec.Flops,
		}
		rec.Metrics = map[string]float64{
			"critpath.coverage_pct":     coverage,
			"perfmodel.llp_overhead_ns": cal.LLPOverheadNs,
			"atomics.per_task":          atomicsPerTask,
			"atomics.uncontended_ns":    atomicsNs,
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
		if err := bench.WriteRecord(os.Stdout, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		pct := func(ns int64) float64 { return float64(ns) / float64(rep.LenNs) * 100 }
		fmt.Printf("# spans %d, critical path %d tasks, %d remote hops\n",
			rep.Spans, rep.Tasks, rep.RemoteHops)
		fmt.Printf("# len %.3fms = body %.3fms (%.1f%%) + queue-wait %.3fms (%.1f%%) + comm %.3fms (%.1f%%)\n",
			float64(rep.LenNs)/1e6,
			float64(rep.BodyNs)/1e6, pct(rep.BodyNs),
			float64(rep.QueueNs)/1e6, pct(rep.QueueNs),
			float64(rep.CommNs)/1e6, pct(rep.CommNs))
		fmt.Printf("# coverage: path len is %.1f%% of measured elapsed %.3fms\n",
			coverage, float64(elapsed.Nanoseconds())/1e6)
		fmt.Printf("# per-task overhead along path: %.0f ns (%.0f cycles @%.1fGHz)\n",
			rep.PerTaskOverheadNs, cycles, c.ghz)
		fmt.Printf("# cross-check per task: perfmodel LLP scheduling overhead %.0f ns (%.0f cycles); audit %.1f atomic RMWs ~= %.0f ns uncontended\n",
			cal.LLPOverheadNs, cal.LLPOverheadNs*c.ghz, atomicsPerTask, atomicsNs)
	}

	if *flagTrace != "" {
		if err := writeVerifiedTrace(*flagTrace, td.ChromeEvents); err != nil {
			fmt.Fprintf(os.Stderr, "critpath: %v\n", err)
			os.Exit(1)
		}
		if !*flagJSON {
			fmt.Printf("# merged Chrome trace written to %s\n", *flagTrace)
		}
	}
}

// writeVerifiedTrace dumps the merged Chrome trace and then re-reads it,
// checking the CI contract: the file is well-formed JSON and the flow events
// ("s"/"f" pairs) span at least two workers and two ranks.
func writeVerifiedTrace(path string, events []metrics.ChromeEvent) error {
	var buf bytes.Buffer
	if err := metrics.WriteChromeTrace(&buf, events); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	var parsed struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		return fmt.Errorf("emitted trace is not valid JSON: %v", err)
	}
	var starts, finishes int
	ranks := map[int]bool{}
	workers := map[int]bool{}
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "s":
			starts++
			ranks[e.Pid] = true
			workers[e.Tid] = true
		case "f":
			finishes++
			ranks[e.Pid] = true
			workers[e.Tid] = true
		}
	}
	if starts == 0 || starts != finishes {
		return fmt.Errorf("trace has %d flow starts / %d finishes, want matched non-zero pairs", starts, finishes)
	}
	if len(ranks) < 2 || len(workers) < 2 {
		return fmt.Errorf("flow events span %d ranks / %d workers, want >= 2 of each", len(ranks), len(workers))
	}
	return nil
}
