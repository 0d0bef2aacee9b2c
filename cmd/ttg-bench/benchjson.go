package main

import (
	"fmt"
	"os"

	"gottg/internal/bench"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

// benchWorkerCounts picks the worker counts for the `bench` subcommand: at
// least two (the smoke contract is "LLP vs LFQ on >= 2 worker counts"),
// capped by -threads when given.
func benchWorkerCounts(c *ctx) []int {
	hi := c.maxT
	if hi <= 0 {
		hi = c.hostCPUs
	}
	if hi < 2 {
		hi = 2
	}
	if hi > 4 {
		hi = 4
	}
	return []int{1, hi}
}

// figBench runs the standard smoke matrix — the LLP and LFQ schedulers on
// two worker counts over a small Task-Bench stencil — with the metrics layer
// on, and emits one BENCH record per cell (JSON lines with -json, aligned
// text otherwise).
func figBench(c *ctx) {
	spec := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: 200, Flops: 1000}
	if c.full {
		spec = taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 64, Steps: 1000, Flops: 1000}
	}
	variants := []struct {
		name string
		cfg  func(threads int) rt.Config
	}{
		{"TTG LLP", func(t int) rt.Config {
			cfg := rt.OptimizedConfig(t)
			cfg.PinWorkers = false
			return cfg
		}},
		{"TTG LFQ", func(t int) rt.Config {
			cfg := rt.OriginalConfig(t)
			cfg.PinWorkers = false
			return cfg
		}},
	}
	want := spec.Reference()
	for _, v := range variants {
		for _, workers := range benchWorkerCounts(c) {
			runner := taskbench.TTGRunner{Label: v.name, Cfg: v.cfg}
			res, snap := runner.RunInstrumented(spec, workers)
			if res.Checksum != want {
				fmt.Fprintf(os.Stderr, "bench: %s @%d workers: checksum %v, want %v\n",
					v.name, workers, res.Checksum, want)
				os.Exit(1)
			}
			rec := bench.NewRecord("ttg-bench", v.name, workers, int64(res.Tasks), res.Elapsed)
			rec.Config = map[string]any{
				"pattern": spec.Pattern.String(),
				"width":   spec.Width,
				"steps":   spec.Steps,
				"flops":   spec.Flops,
			}
			rec.Metrics = snap.Flatten()
			if *flagJSON {
				if err := bench.WriteRecord(os.Stdout, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				fmt.Printf("%-12s %2d workers  %8d tasks  %12.0f tasks/s  %9.0f ns/task  (%d metrics)\n",
					v.name, workers, rec.Tasks, rec.TasksPerSec, rec.PerTaskNs, len(rec.Metrics))
			}
		}
	}

	// Distributed wire-path row: the same stencil over simulated ranks,
	// reporting the coalescing factor (activations per wire message) and the
	// message rate the batch layer sustains.
	ranks, wpr := 4, 2
	if ranks > spec.Width {
		ranks = spec.Width
	}
	res, st := mustRunDist(fmt.Sprintf("bench: TTG dist @%d ranks", ranks), spec, want,
		taskbench.DistOptions{Ranks: ranks, Workers: wpr, Metrics: true})
	rec := bench.NewRecord("ttg-bench", "TTG dist", wpr, int64(res.Tasks), res.Elapsed)
	rec.Ranks = ranks
	rec.Config = map[string]any{
		"pattern": spec.Pattern.String(),
		"width":   spec.Width,
		"steps":   spec.Steps,
		"flops":   spec.Flops,
	}
	msgsPerSec := float64(st.Messages) / res.Elapsed.Seconds()
	rec.Metrics = map[string]float64{
		"comm.msgs.sent":    float64(st.Messages),
		"comm.activations":  float64(st.Activations),
		"comm.bytes.sent":   float64(st.BytesSent),
		"comm.acts_per_msg": st.ActsPerMsg(),
		"comm.msgs_per_sec": msgsPerSec,
		"comm.acts_per_sec": float64(st.Activations) / res.Elapsed.Seconds(),
	}
	if *flagJSON {
		if err := bench.WriteRecord(os.Stdout, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("%-12s %2d ranks x%d  %8d tasks  %12.0f msgs/s  %9.2f acts/msg  (%d msgs, %d activations)\n",
			"TTG dist", ranks, wpr, rec.Tasks, msgsPerSec, st.ActsPerMsg(), st.Messages, st.Activations)
	}

	// Loopback-TCP wire-path row: the same stencil over real sockets, one
	// World per rank inside this process, so the in-process and TCP rows are
	// directly comparable (the delta is serialization + kernel round trips).
	tcpRes, tcpRep := mustRunDist(fmt.Sprintf("bench: TTG dist tcp @%d ranks", ranks), spec, want,
		taskbench.DistOptions{Ranks: ranks, Workers: wpr, TCP: true})
	tcpRec := bench.NewRecord("ttg-bench", "TTG dist tcp", wpr, int64(tcpRes.Tasks), tcpRes.Elapsed)
	tcpRec.Ranks = ranks
	tcpRec.Config = map[string]any{
		"pattern":   spec.Pattern.String(),
		"width":     spec.Width,
		"steps":     spec.Steps,
		"flops":     spec.Flops,
		"transport": "tcp-loopback",
	}
	tcpRec.Metrics = map[string]float64{
		"comm.reconnects":  float64(tcpRep.Reconnects),
		"comm.rank_deaths": 0,
	}
	if *flagJSON {
		if err := bench.WriteRecord(os.Stdout, tcpRec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("%-12s %2d ranks x%d  %8d tasks  %12.0f tasks/s  %9.0f ns/task  (loopback TCP)\n",
			"TTG dist tcp", ranks, wpr, tcpRec.Tasks, tcpRec.TasksPerSec, tcpRec.PerTaskNs)
	}
}

// mustRunDist runs s distributed and exits unless it finished with the
// reference checksum.
func mustRunDist(what string, s taskbench.Spec, want float64, o taskbench.DistOptions) (taskbench.Result, taskbench.DistReport) {
	res, rep, err := taskbench.RunDist(s, o)
	if err == nil && res.Checksum != want {
		err = fmt.Errorf("checksum %v, want %v", res.Checksum, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		os.Exit(1)
	}
	return res, rep
}

// cmdValidate reads BENCH record streams from the given files ("-" or no
// args = stdin) and fails loudly on the first structural problem — the CI
// smoke gate for the JSON contract.
func cmdValidate(files []string) {
	if len(files) == 0 {
		files = []string{"-"}
	}
	total := 0
	for _, f := range files {
		var (
			recs []bench.Record
			err  error
		)
		if f == "-" {
			recs, err = bench.ReadRecords(os.Stdin)
		} else {
			var fh *os.File
			fh, err = os.Open(f)
			if err == nil {
				recs, err = bench.ReadRecords(fh)
				fh.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate: %s: %v\n", f, err)
			os.Exit(1)
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "validate: %s: no BENCH records\n", f)
			os.Exit(1)
		}
		total += len(recs)
	}
	fmt.Printf("validate: %d record(s) OK\n", total)
}
