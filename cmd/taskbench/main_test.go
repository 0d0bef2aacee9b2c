package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

// setFlags resets every taskbench flag to its default and parses args.
func setFlags(t *testing.T, args ...string) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			f.Value.Set(f.DefValue)
		}
	})
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

// TestDistOptionsFromFlags pins the one flags → DistOptions → rt.Config path:
// every knob must arrive on its own, without another flag to carry it
// (-lockfree-ht alone used to be dropped while the BENCH record claimed it).
func TestDistOptionsFromFlags(t *testing.T) {
	type out struct {
		o   taskbench.DistOptions
		cfg rt.Config // what a rank's runtime is configured with
	}
	rows := []struct {
		args  string
		check func(out) bool
	}{
		{"-ranks 4 -threads 3", func(x out) bool {
			return x.o.Ranks == 4 && x.o.Workers == 3 && !x.o.FT && !x.o.Steal && !x.o.Trace && !x.o.Telemetry &&
				x.o.KillAfterTasks == 0 && x.o.KillFunc == nil && x.o.Tune == (taskbench.Tuning{})
		}},
		{"-ranks 4 -lockfree-ht", func(x out) bool {
			return x.cfg.LockFreeHit && !x.cfg.AutoPriority && !x.cfg.InlineAuto
		}},
		{"-ranks 4 -priority", func(x out) bool { return x.cfg.AutoPriority && !x.cfg.LockFreeHit }},
		{"-ranks 4 -inline-auto", func(x out) bool { return x.cfg.InlineAuto && !x.cfg.LockFreeHit }},
		{"-ranks 4 -steal", func(x out) bool { return x.o.Steal && !x.o.FT && !x.o.Metrics }},
		{"-ranks 4 -critpath", func(x out) bool { return x.o.Trace && !x.o.FT }},
		{"-ranks 4 -telemetry -obs 127.0.0.1:0", func(x out) bool { return !x.o.Telemetry && x.o.ObsAddr == "" }}, // -net only
		{"-ranks 4 -kill-rank 2", func(x out) bool {
			return x.o.FT && x.o.KillRank == 2 && x.o.KillAfterTasks == 8 && x.o.Pruning && x.o.KillFunc == nil && x.o.SuspectAfter == 0
		}},
		{"-ranks 4 -kill-rank 0 -kill-after 0 -prune=false -steal", func(x out) bool {
			return x.o.FT && x.o.KillRank == 0 && x.o.KillAfterTasks == 1 && !x.o.Pruning && x.o.Steal
		}},
		{"-ranks 4 -net -net-kill-rank 2", func(x out) bool { // the launcher itself kills nobody
			return x.o.FT && x.o.SuspectAfter == 2*time.Second && !x.o.Pruning && x.o.KillAfterTasks == 0
		}},
		{"-rank-id 2 -net-kill-rank 2 -net-suspect-ms 500 -lockfree-ht", func(x out) bool {
			return x.o.FT && x.o.SuspectAfter == 500*time.Millisecond && x.o.KillAfterTasks == 50 && x.o.KillFunc != nil && x.cfg.LockFreeHit
		}},
		{"-rank-id 1 -net-kill-rank 2", func(x out) bool { return x.o.FT && x.o.KillAfterTasks == 0 && x.o.KillFunc == nil }},
		{"-rank-id 0 -telemetry -telemetry-interval 20ms -obs 127.0.0.1:0 -flight-dir d", func(x out) bool {
			return x.o.Telemetry && x.o.TelemetryInterval == 20*time.Millisecond && x.o.ObsAddr == "127.0.0.1:0" && x.o.FlightDir == "d"
		}},
	}
	for _, row := range rows {
		setFlags(t, strings.Fields(row.args)...)
		x := out{o: distOptions()}
		x.cfg = rt.OptimizedConfig(x.o.Workers)
		x.o.Tune.Apply(&x.cfg)
		if !row.check(x) {
			t.Errorf("%s: got %+v (config %+v)", row.args, x.o, x.cfg)
		}
	}

	// The shared-memory TTG runners take the same knobs the same way.
	setFlags(t, "-lockfree-ht")
	for _, r := range tuned(taskbench.StandardRunners()) {
		if tr, ok := r.(taskbench.TTGRunner); ok && !tr.Cfg(2).LockFreeHit {
			t.Errorf("%s: -lockfree-ht alone did not reach its runtime config", tr.Name())
		}
	}
	setFlags(t)
}
