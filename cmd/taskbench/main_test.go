package main

import (
	"flag"
	"strings"
	"testing"
	"time"

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

// TestDistOptionsFromFlags pins the one flags → DistOptions path: every knob
// must arrive on its own, without another flag to carry it (a knob flag
// alone used to be dropped while the BENCH record claimed it).
func TestDistOptionsFromFlags(t *testing.T) {
	rows := []struct {
		args  string
		check func(taskbench.DistOptions) bool
	}{
		{"-ranks 4 -threads 3", func(o taskbench.DistOptions) bool {
			return o.Ranks == 4 && o.Workers == 3 && !o.FT && !o.Steal && !o.Trace && !o.Telemetry &&
				o.KillAfterTasks == 0 && o.KillFunc == nil && !o.Priority
		}},
		{"-ranks 4 -priority", func(o taskbench.DistOptions) bool { return o.Priority && !o.Steal }},
		{"-ranks 4 -steal", func(o taskbench.DistOptions) bool { return o.Steal && !o.FT && !o.Metrics }},
		{"-ranks 4 -critpath", func(o taskbench.DistOptions) bool { return o.Trace && !o.FT }},
		{"-ranks 4 -telemetry -obs 127.0.0.1:0", func(o taskbench.DistOptions) bool { return !o.Telemetry && o.ObsAddr == "" }}, // -net only
		{"-ranks 4 -kill-rank 2", func(o taskbench.DistOptions) bool {
			return o.FT && o.KillRank == 2 && o.KillAfterTasks == 8 && o.Pruning && o.KillFunc == nil && o.SuspectAfter == 0
		}},
		{"-ranks 4 -kill-rank 0 -kill-after 0 -prune=false -steal", func(o taskbench.DistOptions) bool {
			return o.FT && o.KillRank == 0 && o.KillAfterTasks == 1 && !o.Pruning && o.Steal
		}},
		{"-ranks 4 -net -net-kill-rank 2", func(o taskbench.DistOptions) bool { // the launcher itself kills nobody
			return o.FT && o.SuspectAfter == 2*time.Second && !o.Pruning && o.KillAfterTasks == 0
		}},
		{"-rank-id 2 -net-kill-rank 2 -net-suspect-ms 500 -priority", func(o taskbench.DistOptions) bool {
			return o.FT && o.SuspectAfter == 500*time.Millisecond && o.KillAfterTasks == 50 && o.KillFunc != nil && o.Priority
		}},
		{"-rank-id 1 -net-kill-rank 2", func(o taskbench.DistOptions) bool { return o.FT && o.KillAfterTasks == 0 && o.KillFunc == nil }},
		{"-rank-id 0 -telemetry -telemetry-interval 20ms -obs 127.0.0.1:0 -flight-dir d", func(o taskbench.DistOptions) bool {
			return o.Telemetry && o.TelemetryInterval == 20*time.Millisecond && o.ObsAddr == "127.0.0.1:0" && o.FlightDir == "d"
		}},
	}
	for _, row := range rows {
		setFlags(t, strings.Fields(row.args)...)
		if o := distOptions(); !row.check(o) {
			t.Errorf("%s: got %+v", row.args, o)
		}
	}

	// The shared-memory TTG runners take the same knob.
	setFlags(t, "-priority")
	for _, r := range tuned(taskbench.StandardRunners()) {
		if tr, ok := r.(taskbench.TTGRunner); ok && !tr.Cfg(2).AutoPriority {
			t.Errorf("%s: -priority alone did not reach its runtime config", tr.Name())
		}
	}
	setFlags(t)
}
