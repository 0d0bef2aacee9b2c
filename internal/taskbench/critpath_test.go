package taskbench

import (
	"math"
	"testing"

	"gottg/internal/core"
	"gottg/internal/obs/critpath"
)

// TestTracedDistributedStencilAttribution is the end-to-end check behind the
// `ttg-bench critpath` acceptance: on a distributed stencil the critical
// path's body + queue-wait + comm attribution must telescope exactly and
// cover the measured wall clock to within 5% (the remainder is graph
// start-up before the first seeded task and the termination wave after the
// last one), and the merged trace must carry flow events spanning at least
// two workers and two ranks.
func TestTracedDistributedStencilAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank traced run")
	}
	spec := Spec{Pattern: Stencil1D, Width: 16, Steps: 200, Flops: 20000}
	res, td, err := RunDist(spec, DistOptions{Ranks: 4, Workers: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.Reference(); res.Checksum != want {
		t.Fatalf("checksum %v, want %v", res.Checksum, want)
	}
	if got, want := len(td.Spans), spec.TotalTasks(); got != want {
		t.Fatalf("%d causal spans, want %d", got, want)
	}
	rep, err := critpath.Analyze(td.Spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BodyNs+rep.QueueNs+rep.CommNs != rep.LenNs {
		t.Fatalf("attribution %d+%d+%d != len %d", rep.BodyNs, rep.QueueNs, rep.CommNs, rep.LenNs)
	}
	elapsed := res.Elapsed.Nanoseconds()
	if rep.LenNs > elapsed {
		t.Fatalf("path len %dns exceeds elapsed %dns", rep.LenNs, elapsed)
	}
	if cov := float64(rep.LenNs) / float64(elapsed); cov < 0.95 {
		t.Fatalf("critical path covers %.1f%% of elapsed, want >= 95%%", cov*100)
	}
	if rep.RemoteHops == 0 {
		t.Fatal("no remote hops on a 4-rank stencil critical path")
	}
	if rep.CommNs == 0 {
		t.Fatal("no comm latency attributed across remote hops")
	}

	// Flow events must link spans across both workers and ranks.
	ranks := map[int]bool{}
	workers := map[int]bool{}
	var flows int
	for _, e := range td.ChromeEvents {
		if e.Phase == "s" || e.Phase == "f" {
			flows++
			ranks[e.Pid] = true
			workers[e.Tid] = true
		}
	}
	if flows == 0 {
		t.Fatal("merged trace has no flow events")
	}
	if len(ranks) < 2 || len(workers) < 2 {
		t.Fatalf("flow events span %d ranks / %d workers, want >= 2 of each", len(ranks), len(workers))
	}
}

// TestTracedStealSpanAttribution is the regression test for span attribution
// under work stealing: a stolen task's span must be recorded on the rank
// that EXECUTED it (not its keymap owner), exactly once, with a cross-rank
// cause pointing back at the victim — so critical-path analysis and the
// Chrome flow arrows keep telling the truth when tasks migrate. Guards
// against the natural bug of reusing the victim-side span (which would
// attribute the body time to an idle rank and draw the flow arrow from the
// wrong process lane).
func TestTracedStealSpanAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank traced run")
	}
	const ranks = 4
	spec := skewedSpec()
	res, td, err := RunDist(spec, DistOptions{Ranks: ranks, Workers: 2, Trace: true, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := td
	if want := spec.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v, want %v", res.Checksum, want)
	}
	if stats.Steals == 0 || stats.StealTasks == 0 {
		t.Skipf("no steals this run (reqs=%d) — nothing to attribute", stats.StealReqs)
	}
	// Every task instance executes exactly once, stolen or not: spans are
	// keyed by the task key, and a duplicate would mean a task ran on both
	// the victim and the thief.
	mapper := func(key uint64) int {
		_, p := core.Unpack2(key)
		return int(p) * ranks / spec.Width
	}
	byKey := map[uint64]int{}
	stolenSpans := 0
	crossCauses := 0
	for _, sp := range td.Spans {
		byKey[sp.Key]++
		if sp.Rank == mapper(sp.Key) {
			continue
		}
		// Executed away from its static owner: must be a stolen task, its
		// span on the executing (thief) rank. The injection records the
		// donating rank's origin span as a cross-rank cause — the donor is
		// the static owner for a single steal, an intermediate thief when a
		// task is re-stolen along a chain.
		stolenSpans++
		for _, c := range sp.Causes {
			if c.Rank != sp.Rank && c.SpanID != 0 {
				crossCauses++
				break
			}
		}
	}
	if got, want := len(td.Spans), spec.TotalTasks(); got != want {
		t.Fatalf("%d causal spans, want %d", got, want)
	}
	for key, n := range byKey {
		if n != 1 {
			t.Fatalf("task key %d recorded %d spans, want exactly 1 (double execution?)", key, n)
		}
	}
	// StealTasks counts injections, so steal chains (and a task re-stolen
	// back to its home rank) make it an upper bound on off-home spans.
	if int64(stolenSpans) > stats.StealTasks {
		t.Fatalf("%d spans executed off their home rank, more than the %d stolen tasks", stolenSpans, stats.StealTasks)
	}
	if stolenSpans == 0 {
		t.Skipf("all %d stolen tasks ended back on their home ranks — nothing to attribute", stats.StealTasks)
	}
	if crossCauses != stolenSpans {
		t.Fatalf("%d of %d stolen spans carry a cross-rank cause back to the donor", crossCauses, stolenSpans)
	}
	// The span DAG must still support critical-path analysis with exact
	// attribution telescoping.
	rep, err := critpath.Analyze(td.Spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BodyNs+rep.QueueNs+rep.CommNs != rep.LenNs {
		t.Fatalf("attribution %d+%d+%d != len %d", rep.BodyNs, rep.QueueNs, rep.CommNs, rep.LenNs)
	}
	t.Logf("steals=%d stolen spans=%d (all with victim causes), path len %v",
		stats.Steals, stolenSpans, rep.LenNs)
}
