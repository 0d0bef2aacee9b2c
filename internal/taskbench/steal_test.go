package taskbench

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gottg/internal/core"
)

// skewedSpec is the deliberately imbalanced instance the steal tests share:
// the block map puts the most expensive points (Skew tilts cost toward high
// p) on the highest rank, so without stealing the low ranks idle while the
// high ranks grind.
func skewedSpec() Spec {
	return Spec{Pattern: Stencil1D, Width: 64, Steps: 20, Flops: 60000, Skew: 8}
}

// TestSkewPreservesChecksum: the skewed kernel must stay deterministic and
// shared between Value and Reference — same spec, same checksum, any runner.
func TestSkewPreservesChecksum(t *testing.T) {
	s := skewedSpec()
	want := s.Reference()
	res, _, err := RunDist(s, DistOptions{Ranks: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("skewed shared-memory checksum %v != reference %v", res.Checksum, want)
	}
}

// TestStealSkewedOnePhase runs the skewed instance over the in-process world
// without failure detection (one-phase protocol) and requires bit-identical
// results plus actual steal traffic.
func TestStealSkewedOnePhase(t *testing.T) {
	s := skewedSpec()
	want := s.Reference()
	res, stats, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, Metrics: true, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("steal checksum %v != reference %v", res.Checksum, want)
	}
	if stats.Steals == 0 {
		t.Fatalf("no steals on a skewed instance (reqs=%d aborts=%d)", stats.StealReqs, stats.StealAborts)
	}
	if stats.StealTasks == 0 {
		t.Fatalf("steals completed but no tasks transferred")
	}
	t.Logf("steals=%d tasks=%d reqs=%d aborts=%d", stats.Steals, stats.StealTasks, stats.StealReqs, stats.StealAborts)
}

// TestStealOffSkewed is the control: stealing disabled on the same path must
// stay bit-identical and report zero steal traffic.
func TestStealOffSkewed(t *testing.T) {
	s := skewedSpec()
	want := s.Reference()
	res, stats, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v != reference %v", res.Checksum, want)
	}
	if stats.StealReqs != 0 || stats.Steals != 0 {
		t.Fatalf("steal traffic with stealing off: reqs=%d steals=%d", stats.StealReqs, stats.Steals)
	}
}

// TestStealFTTwoPhaseClean: fault tolerance on (two-phase commit), nobody
// dies. Steals must still happen and the checksum must match exactly.
func TestStealFTTwoPhaseClean(t *testing.T) {
	s := skewedSpec()
	want := s.Reference()
	res, rep, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, FT: true, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range rep.Errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v != reference %v", res.Checksum, want)
	}
	if rep.Steals == 0 {
		t.Fatalf("no steals (reqs=%d aborts=%d)", rep.StealReqs, rep.StealAborts)
	}
	t.Logf("steals=%d tasks=%d aborts=%d rehomed=%d", rep.Steals, rep.StealTasks, rep.StealAborts, rep.Rehomed)
}

// runStealKill drives the steal+kill chaos path: skewed instance, stealing
// on, one rank fail-stopped mid-run. The checksum must stay bit-identical
// with re-execution observed and the victim reporting ErrRankKilled.
func runStealKill(t *testing.T, kill int, after int64) DistReport {
	t.Helper()
	s := skewedSpec()
	want := s.Reference()
	res, rep, err := RunDist(s, DistOptions{
		Ranks: 4, Workers: 2, FT: true, Steal: true,
		KillRank: kill, KillAfterTasks: after,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range rep.Errs {
		if r == kill {
			if !errors.Is(err, core.ErrRankKilled) {
				t.Fatalf("killed rank %d reported %v, want ErrRankKilled", r, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("survivor rank %d: %v", r, err)
		}
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v != reference %v (diff %g)", res.Checksum, want, res.Checksum-want)
	}
	if rep.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", rep.Deaths)
	}
	if rep.Reexecuted == 0 {
		t.Fatalf("no re-executed tasks after killing rank %d", kill)
	}
	t.Logf("kill=%d steals=%d tasks=%d aborts=%d rehomed=%d reexec=%d",
		kill, rep.Steals, rep.StealTasks, rep.StealAborts, rep.Rehomed, rep.Reexecuted)
	return rep
}

// TestStealKillVictim kills the overloaded rank (the likely steal victim)
// mid-run: in-flight donations from it are dropped at thieves and its work is
// re-homed; exactly-once must hold bit-identically.
func TestStealKillVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	runStealKill(t, 3, 40)
}

// TestStealKillThief kills the underloaded rank (the likely thief): the
// victims' donation sweeps re-inject anything it stole, committed or not.
func TestStealKillThief(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	runStealKill(t, 0, 40)
}

// TestStealKillSoak is the seeded repetition: several kill points on both
// sides of the protocol, every run bit-identical. The kill trigger (task
// count) makes each iteration deterministic in intent while scheduling noise
// varies the actual protocol interleaving.
func TestStealKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	for _, kill := range []int{3, 0, 2} {
		for _, after := range []int64{10, 80, 200} {
			kill, after := kill, after
			t.Run(fmt.Sprintf("kill%d_after%d", kill, after), func(t *testing.T) {
				runStealKill(t, kill, after)
			})
		}
	}
}
