package taskbench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gottg/internal/comm/tcptransport"
	"gottg/internal/core"
)

// TestRunDistUnion drives RunDist through the option combinations the eleven
// former entry points expressed (plus a rank-0 victim under telemetry, which
// they could name but never killed), on two patterns: every one must
// merge to the bit-identical checksum and fill the report fields its old
// report struct carried.
func TestRunDistUnion(t *testing.T) {
	const ranks = 4
	// The kill rows sleep in every task so the run outlasts the kill poll
	// (and, with telemetry, the victim's first streamed interval).
	kill := func(o DistOptions, victim int) DistOptions {
		o.FT, o.KillRank, o.KillAfterTasks = true, victim, 8
		return o
	}
	clean := func(t *testing.T, rep DistReport) {
		t.Helper()
		for r, err := range rep.Errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		if rep.Deaths != 0 || rep.Reexecuted != 0 {
			t.Fatalf("fault-free run reports deaths=%d reexec=%d", rep.Deaths, rep.Reexecuted)
		}
	}
	killed := func(t *testing.T, rep DistReport, victim int) {
		t.Helper()
		if !errors.Is(rep.Errs[victim], core.ErrRankKilled) {
			t.Fatalf("victim Wait() = %v, want ErrRankKilled", rep.Errs[victim])
		}
		if rep.Deaths != 1 || rep.Reexecuted == 0 || rep.WaveRestarts == 0 {
			t.Fatalf("deaths=%d reexecuted=%d wave_restarts=%d after a kill", rep.Deaths, rep.Reexecuted, rep.WaveRestarts)
		}
		if len(rep.Keymap) != ranks || rep.Keymap[victim] == victim {
			t.Fatalf("keymap %v does not re-home rank %d", rep.Keymap, victim)
		}
	}
	wire := func(t *testing.T, rep DistReport) {
		t.Helper()
		if rep.Messages == 0 || rep.Activations == 0 || rep.BytesSent == 0 || rep.ActsPerMsg() <= 0 {
			t.Fatalf("no wire counters: msgs=%d acts=%d bytes=%d", rep.Messages, rep.Activations, rep.BytesSent)
		}
	}
	stealOff := func(t *testing.T, rep DistReport) {
		t.Helper()
		if rep.StealReqs != 0 || rep.Steals != 0 || rep.StealTasks != 0 {
			t.Fatalf("steal traffic with stealing off: reqs=%d steals=%d", rep.StealReqs, rep.Steals)
		}
	}
	stealOn := func(t *testing.T, rep DistReport) {
		t.Helper()
		if rep.StealReqs == 0 {
			t.Fatal("stealing on but no rank ever asked for work")
		}
	}
	traced := func(t *testing.T, rep DistReport, s Spec) {
		t.Helper()
		if len(rep.Spans) != s.TotalTasks() || len(rep.ChromeEvents) == 0 || rep.Atomics == 0 {
			t.Fatalf("%d spans (want %d), %d chrome events, %d atomics",
				len(rep.Spans), s.TotalTasks(), len(rep.ChromeEvents), rep.Atomics)
		}
	}
	covered := func(t *testing.T, rep DistReport, atLeast int) {
		t.Helper()
		if rep.Coverage < atLeast || rep.Samples == 0 || rep.Frames == 0 || len(rep.Cluster.PerRank) != ranks {
			t.Fatalf("coverage %d (want >= %d), samples=%d frames=%d, %d ranks in the cluster view",
				rep.Coverage, atLeast, rep.Samples, rep.Frames, len(rep.Cluster.PerRank))
		}
	}
	fault := &tcptransport.FaultConfig{Seed: 20260928, ConnKillProb: 0.01, TornWriteProb: 0.005}
	telemetry := DistOptions{Telemetry: true, TelemetryInterval: 2 * time.Millisecond}
	// The telemetry plane carries each rank's core.priority_updates to rank 0.
	prioritized := telemetry
	prioritized.Metrics, prioritized.Priority = true, true

	rows := []struct {
		name  string // the old entry point(s) this row stands for
		o     DistOptions
		sleep bool
		check func(t *testing.T, rep DistReport, s Spec)
	}{
		{"plain", DistOptions{}, false, func(t *testing.T, rep DistReport, _ Spec) { clean(t, rep) }},
		{"Stats=Steal(off)", DistOptions{Metrics: true}, false,
			func(t *testing.T, rep DistReport, _ Spec) { wire(t, rep); stealOff(t, rep) }},
		{"Steal(on)", DistOptions{Metrics: true, Steal: true}, true,
			func(t *testing.T, rep DistReport, _ Spec) { wire(t, rep); stealOn(t, rep) }},
		{"Priority", prioritized, false, func(t *testing.T, rep DistReport, _ Spec) {
			wire(t, rep)
			covered(t, rep, ranks)
			for _, rv := range rep.Cluster.PerRank {
				if rv.Totals["core.priority_updates"] == 0 {
					t.Fatalf("rank %d: the priority estimator never refined an estimate", rv.Rank)
				}
			}
		}},
		{"Traced", DistOptions{Trace: true}, false,
			func(t *testing.T, rep DistReport, s Spec) { traced(t, rep, s); stealOff(t, rep) }},
		{"TracedSteal", DistOptions{Trace: true, Steal: true}, true,
			func(t *testing.T, rep DistReport, s Spec) { traced(t, rep, s); stealOn(t, rep) }},
		{"FT", DistOptions{FT: true, Pruning: true}, false, func(t *testing.T, rep DistReport, _ Spec) {
			clean(t, rep)
			for r, m := range rep.Keymap {
				if m != r {
					t.Fatalf("fault-free keymap %v is not the identity", rep.Keymap)
				}
			}
		}},
		{"FT+kill", kill(DistOptions{}, 1), true, func(t *testing.T, rep DistReport, _ Spec) { killed(t, rep, 1) }},
		{"FT+steal+kill", kill(DistOptions{Steal: true}, 1), true,
			func(t *testing.T, rep DistReport, _ Spec) { killed(t, rep, 1); stealOn(t, rep) }},
		{"Telemetry(off)", DistOptions{RuntimeMetrics: true}, false,
			func(t *testing.T, rep DistReport, _ Spec) { clean(t, rep); wire(t, rep) }},
		{"Telemetry(on)", telemetry, false,
			func(t *testing.T, rep DistReport, _ Spec) { clean(t, rep); covered(t, rep, ranks) }},
		{"Telemetry+kill", kill(telemetry, 1), true,
			func(t *testing.T, rep DistReport, _ Spec) { killed(t, rep, 1); covered(t, rep, ranks-1) }},
		// Rank 0 streams to nobody, so the trigger must not wait for a frame.
		{"Telemetry+kill(rank 0)", kill(telemetry, 0), true,
			func(t *testing.T, rep DistReport, _ Spec) { killed(t, rep, 0) }},
		{"TCP", DistOptions{TCP: true}, false, func(t *testing.T, rep DistReport, _ Spec) {
			clean(t, rep)
			for _, r := range rep.Ranks {
				if !r.Drained || r.Reconnects != 0 {
					t.Fatalf("rank %d: drained=%v reconnects=%d on a fault-free wire", r.Rank, r.Drained, r.Reconnects)
				}
			}
		}},
		{"TCP+faults", DistOptions{TCP: true, Fault: fault, FT: true, SuspectAfter: 2 * time.Second}, false,
			func(t *testing.T, rep DistReport, _ Spec) { clean(t, rep) }},
		{"TCP+steal", DistOptions{TCP: true, Steal: true}, true,
			func(t *testing.T, rep DistReport, _ Spec) { clean(t, rep); stealOn(t, rep) }},
	}
	for _, pat := range []Pattern{Stencil1D, Random} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%v/%s", pat, row.name), func(t *testing.T) {
				s := Spec{Pattern: pat, Width: 16, Steps: 30, Flops: 2000}
				if row.sleep {
					s.Skew, s.SleepNs = 2, 100_000
				}
				o := row.o
				o.Ranks, o.Workers, o.FlightDir = ranks, 2, t.TempDir()
				res, rep, err := RunDist(s, o)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, s, res)
				if len(rep.Ranks) != ranks || len(rep.Errs) != ranks {
					t.Fatalf("%d rank reports, %d errs, want %d of each", len(rep.Ranks), len(rep.Errs), ranks)
				}
				row.check(t, rep, s)
			})
		}
	}
}

// TestKilledRankDuplicatesAreMerged: a rank killed after it reported some of
// its points has those points re-executed by the survivors, so two ranks
// report them. The in-process launcher now merges the per-rank reports
// instead of letting the last writer win in a shared array: identical
// duplicates pass, and a re-executed point that differs by one ulp fails the
// run.
func TestKilledRankDuplicatesAreMerged(t *testing.T) {
	// Independent chains, each on its own sleeping worker, cost rising with p:
	// rank 0 (points 0-3) has executed 4*Steps-3 tasks only once at least one
	// of its chains has reported, while its slowest still has ~15 ms to go and
	// rank 3 several times that — the kill lands between the two.
	const ranks = 4
	s := Spec{Pattern: NoComm, Width: 16, Steps: 12, Flops: 100, Skew: 8, SleepNs: 2_000_000}
	o := DistOptions{Ranks: ranks, Workers: 4, FT: true, KillRank: 0, KillAfterTasks: int64(4*s.Steps - 3)}
	owner := func(p int) int { return p * ranks / s.Width }

	var mu sync.Mutex
	reporters := map[int]int{}
	res, rep, err := runDist(s, o, func(rank int, rec recordFunc) recordFunc {
		return func(p int, v float64) {
			mu.Lock()
			reporters[p]++
			mu.Unlock()
			rec(p, v)
		}
	})
	if err != nil {
		t.Fatalf("identical duplicates must merge: %v", err)
	}
	requireBitIdentical(t, s, res)
	dups := 0
	for _, n := range reporters {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 || rep.Reexecuted == 0 {
		t.Fatalf("no point was reported twice (reexecuted=%d); the kill missed its window", rep.Reexecuted)
	}

	_, _, err = runDist(s, o, func(rank int, rec recordFunc) recordFunc {
		return func(p int, v float64) {
			if rank != owner(p) { // a re-executed point, off by one ulp
				v = math.Nextafter(v, math.Inf(1))
			}
			rec(p, v)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "reported twice with different values") {
		t.Fatalf("differing re-executed point not caught by the merge: err = %v", err)
	}
}
