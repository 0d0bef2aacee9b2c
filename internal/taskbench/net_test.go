package taskbench

import (
	"math"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
)

// requireBitIdentical fails unless the merged checksum matches the
// sequential oracle bit for bit.
func requireBitIdentical(t *testing.T, s Spec, res Result) {
	t.Helper()
	if want := s.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v (bits %x) != reference %v (bits %x)",
			res.Checksum, math.Float64bits(res.Checksum), want, math.Float64bits(want))
	}
}

func TestTCPLoopbackStencil(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 16, Steps: 40, Flops: 500}
	res, rep, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, TCP: true})
	if err != nil {
		t.Fatalf("RunDist: %v", err)
	}
	requireBitIdentical(t, s, res)
	for _, r := range rep.Ranks {
		if !r.Drained {
			t.Fatalf("rank %d did not drain its links before shutdown", r.Rank)
		}
		if r.Reconnects != 0 {
			t.Fatalf("rank %d reported %d reconnects on a fault-free wire", r.Rank, r.Reconnects)
		}
	}
}

func TestTCPLoopbackRandom(t *testing.T) {
	s := Spec{Pattern: Random, Width: 12, Steps: 30, Flops: 500}
	res, _, err := RunDist(s, DistOptions{Ranks: 3, Workers: 2, TCP: true})
	if err != nil {
		t.Fatalf("RunDist: %v", err)
	}
	requireBitIdentical(t, s, res)
}

func TestTCPLoopbackSingleRank(t *testing.T) {
	// Degenerate world: everything is a self-send; the transport idles.
	s := Spec{Pattern: Stencil1D, Width: 8, Steps: 10, Flops: 100}
	res, _, err := RunDist(s, DistOptions{Ranks: 1, Workers: 2, TCP: true})
	if err != nil {
		t.Fatalf("RunDist: %v", err)
	}
	requireBitIdentical(t, s, res)
}

// TestTCPChaosSoak is the seeded socket-fault soak: connection kills, torn
// writes, short partitions, and slow reads rain on the wire while two
// patterns run over loopback TCP. The run must finish with a bit-identical
// checksum, at least one reconnect observed (the faults actually bit), and
// zero rank deaths (partitions stay far below the suspicion budget — the
// transport layer absorbs everything). The random pattern coalesces into few
// frames, so it runs long enough that zero reconnects is implausible: at 40
// steps a loaded host saw at most one in about one run in ten, at 200 steps
// each of 400 runs beside three busy-loop CPU hogs on a 2-vCPU host saw at
// least 16.
func TestTCPChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	fault := &tcptransport.FaultConfig{
		Seed:          20260807,
		ConnKillProb:  0.01,
		TornWriteProb: 0.005,
		PartitionProb: 0.002,
		PartitionFor:  5 * time.Millisecond,
		SlowReadProb:  0.01,
		SlowReadMax:   300 * time.Microsecond,
	}
	for _, tc := range []struct {
		name string
		s    Spec
	}{
		{"stencil_1d", Spec{Pattern: Stencil1D, Width: 16, Steps: 60, Flops: 500}},
		{"random", Spec{Pattern: Random, Width: 12, Steps: 200, Flops: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, rep, err := RunDist(tc.s, DistOptions{
				Ranks: 4, Workers: 2, TCP: true, Fault: fault,
				// FT on: the failure detector must coexist with socket chaos
				// without false-positive deaths.
				FT:           true,
				SuspectAfter: 2 * time.Second,
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireBitIdentical(t, tc.s, res)
			var reconnects, deaths int64
			for _, r := range rep.Ranks {
				reconnects += r.Reconnects
				deaths += r.Deaths
			}
			if reconnects == 0 {
				t.Fatalf("chaos soak saw zero reconnects; the fault injector never bit")
			}
			if deaths != 0 {
				t.Fatalf("chaos soak produced %d false-positive rank deaths", deaths)
			}
			t.Logf("%s: %d reconnects absorbed, checksum bit-identical", tc.name, reconnects)
		})
	}
}

// TestTCPStealSkewed runs the skewed instance over real loopback TCP with
// work stealing on (one-phase: no failure detection, nobody can die): load
// hints must propagate over the wire via batch frames, donations must cross
// the transport intact, and the checksum must stay bit-identical.
func TestTCPStealSkewed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP run")
	}
	s := skewedSpec()
	res, rep, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, TCP: true, Steal: true})
	if err != nil {
		t.Fatalf("RunDist: %v", err)
	}
	requireBitIdentical(t, s, res)
	var steals, stolen int64
	for _, r := range rep.Ranks {
		steals += r.Steals
		stolen += r.StealTasks
		if !r.Drained {
			t.Fatalf("rank %d did not drain its links before shutdown", r.Rank)
		}
	}
	if steals == 0 {
		t.Skip("no steals completed this run — checksum verified, nothing stolen to check")
	}
	t.Logf("TCP skewed run: %d steals moved %d tasks, checksum bit-identical", steals, stolen)
}

// TestTCPStealChaosSoak combines work stealing with the seeded socket-fault
// injector over loopback TCP: two-phase donations (FT on) must survive
// connection kills, torn writes, and short partitions — retransmitted,
// deduplicated, never double-injected — with a bit-identical checksum and
// zero false-positive deaths. The SIGKILL-mid-steal variant needs real
// process boundaries and lives in netproc_test.go.
func TestTCPStealChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	s := skewedSpec()
	fault := &tcptransport.FaultConfig{
		Seed:          20260808,
		ConnKillProb:  0.01,
		TornWriteProb: 0.005,
		SlowReadProb:  0.01,
		SlowReadMax:   300 * time.Microsecond,
	}
	res, rep, err := RunDist(s, DistOptions{
		Ranks: 4, Workers: 2, TCP: true, Fault: fault,
		FT:           true,
		Steal:        true,
		SuspectAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("steal chaos run: %v", err)
	}
	requireBitIdentical(t, s, res)
	var steals, aborts, deaths, reconnects int64
	for _, r := range rep.Ranks {
		steals += r.Steals
		aborts += r.StealAborts
		deaths += r.Deaths
		reconnects += r.Reconnects
	}
	if deaths != 0 {
		t.Fatalf("steal chaos soak produced %d false-positive rank deaths", deaths)
	}
	t.Logf("steal chaos soak: %d steals, %d aborts, %d reconnects, checksum bit-identical",
		steals, aborts, reconnects)
}

func TestMergeNetResults(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 4, Steps: 2, Flops: 10}
	ok := []RankReport{
		{Rank: 0, Points: map[int]float64{0: 1, 1: 2}},
		{Rank: 1, Points: map[int]float64{2: 3, 3: 4, 1: 2}}, // duplicate, same bits
	}
	res, err := MergeNetResults(s, ok)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if res.Checksum != 10 {
		t.Fatalf("checksum %v, want 10", res.Checksum)
	}

	if _, err := MergeNetResults(s, []RankReport{
		{Rank: 0, Points: map[int]float64{0: 1, 1: 2}},
		{Rank: 1, Points: map[int]float64{2: 3}}, // point 3 missing
	}); err == nil {
		t.Fatalf("missing point not detected")
	}

	if _, err := MergeNetResults(s, []RankReport{
		{Rank: 0, Points: map[int]float64{0: 1, 1: 2}},
		{Rank: 1, Points: map[int]float64{1: 2.5, 2: 3, 3: 4}}, // conflicting duplicate
	}); err == nil {
		t.Fatalf("conflicting duplicate not detected")
	}

	if _, err := MergeNetResults(s, []RankReport{
		{Rank: 0, Points: map[int]float64{0: 1, 1: 2, 2: 3, 3: 4, 9: 0}},
	}); err == nil {
		t.Fatalf("out-of-range point not detected")
	}
}

func TestNetRankRejectsTooManyRanks(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 2, Steps: 2, Flops: 10}
	if _, _, err := RunDist(s, DistOptions{Ranks: 8, Workers: 1, TCP: true}); err != nil {
		// ranks clamp to width, so this must actually succeed.
		t.Fatalf("rank clamp failed: %v", err)
	}
}

// TestTCPFaultPlan: the FaultPlan decorator runs over loopback TCP as it does
// over memory — seeded drops, duplicates, reorders and delays of every
// rank's frames — and the link layer still carries both patterns to a
// bit-identical checksum.
func TestTCPFaultPlan(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 26, Drop: 0.05, Dup: 0.05, Reorder: 0.1, Delay: 0.05}
	for _, s := range []Spec{
		{Pattern: Stencil1D, Width: 16, Steps: 40, Flops: 500},
		{Pattern: Random, Width: 12, Steps: 30, Flops: 500},
	} {
		t.Run(s.Pattern.String(), func(t *testing.T) {
			res, rep, err := RunDist(s, DistOptions{Ranks: 4, Workers: 2, TCP: true, Plan: plan, Metrics: true})
			if err != nil {
				t.Fatalf("RunDist: %v", err)
			}
			requireBitIdentical(t, s, res)
			if rep.Faults == 0 {
				t.Fatalf("no comm.fault.* counted: the plan never bit over TCP")
			}
			t.Logf("%d frames faulted over TCP, checksum bit-identical", rep.Faults)
		})
	}
}
