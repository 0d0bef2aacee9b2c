package taskbench

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDepsRDepsInverse(t *testing.T) {
	// Property: q ∈ Deps(t,p)  ⇔  p ∈ RDeps(t-1,q), for every pattern.
	for _, pat := range []Pattern{Trivial, NoComm, Stencil1D, FFT, Random} {
		s := Spec{Pattern: pat, Width: 16, Steps: 12}
		for ts := 1; ts < s.Steps; ts++ {
			fwd := map[[2]int]bool{}
			for p := 0; p < s.Width; p++ {
				for _, q := range s.Deps(ts, p) {
					fwd[[2]int{q, p}] = true
				}
			}
			rev := map[[2]int]bool{}
			for q := 0; q < s.Width; q++ {
				for _, p := range s.RDeps(ts-1, q) {
					rev[[2]int{q, p}] = true
				}
			}
			if len(fwd) != len(rev) {
				t.Fatalf("%v t=%d: %d forward edges vs %d reverse", pat, ts, len(fwd), len(rev))
			}
			for e := range fwd {
				if !rev[e] {
					t.Fatalf("%v t=%d: edge %v missing from RDeps", pat, ts, e)
				}
			}
		}
	}
}

func TestDepsSortedAndInRange(t *testing.T) {
	f := func(pat uint8, ts uint8, p uint8) bool {
		s := Spec{Pattern: Pattern(pat % 5), Width: 32, Steps: 40}
		tt := int(ts)%(s.Steps-1) + 1
		pp := int(p) % s.Width
		deps := s.Deps(tt, pp)
		for i, q := range deps {
			if q < 0 || q >= s.Width {
				return false
			}
			if i > 0 && deps[i-1] >= q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStencilShape(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 8, Steps: 4}
	if got := s.Deps(1, 0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("left edge deps: %v", got)
	}
	if got := s.Deps(1, 4); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("interior deps: %v", got)
	}
	if got := s.Deps(0, 4); got != nil {
		t.Fatalf("t=0 deps: %v", got)
	}
	if got := s.RDeps(s.Steps-1, 0); got != nil {
		t.Fatalf("last step rdeps: %v", got)
	}
}

// TestDepsDoNotAllocate pins the dependence queries to the stack: a
// task-body or count(key) caller that only takes len or ranges over the
// result pays no heap allocation, for every pattern.
func TestDepsDoNotAllocate(t *testing.T) {
	for _, pat := range []Pattern{Trivial, NoComm, Stencil1D, FFT, Random} {
		s := Spec{Pattern: pat, Width: 16, Steps: 12}
		sum := 0
		allocs := testing.AllocsPerRun(20, func() {
			for ts := 0; ts < s.Steps; ts++ {
				for p := 0; p < s.Width; p++ {
					sum += len(s.Deps(ts, p))
					for _, q := range s.RDeps(ts, p) {
						sum += q
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.0f allocs per sweep of Deps and RDeps, want 0", pat, allocs)
		}
	}
}

func TestKernelDeterministicAndSized(t *testing.T) {
	s := Spec{Flops: 1000}
	if s.Kernel(1.5) != s.Kernel(1.5) {
		t.Fatal("kernel nondeterministic")
	}
	long := Spec{Flops: 2_000_000}
	t0 := time.Now()
	long.Kernel(1)
	d1 := time.Since(t0)
	t0 = time.Now()
	s.Kernel(1)
	d2 := time.Since(t0)
	if d1 < d2 {
		t.Fatal("2M-flop kernel not slower than 1k-flop kernel")
	}
}

func TestPatternParseRoundtrip(t *testing.T) {
	for _, p := range []Pattern{Trivial, NoComm, Stencil1D, FFT, Random} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("roundtrip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestAllRunnersMatchReferenceStencil(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 8, Steps: 40, Flops: 64}
	if err := CheckAll(s, 4); err != nil {
		t.Fatal(err)
	}
}

func TestAllRunnersMatchReferenceFFT(t *testing.T) {
	s := Spec{Pattern: FFT, Width: 8, Steps: 24, Flops: 32}
	if err := CheckAll(s, 2); err != nil {
		t.Fatal(err)
	}
}

func TestAllRunnersMatchReferenceRandom(t *testing.T) {
	s := Spec{Pattern: Random, Width: 8, Steps: 24, Flops: 32}
	if err := CheckAll(s, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAllRunnersMatchReferenceNoCommAndTrivial(t *testing.T) {
	for _, pat := range []Pattern{NoComm, Trivial} {
		s := Spec{Pattern: pat, Width: 6, Steps: 20, Flops: 16}
		if err := CheckAll(s, 2); err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
	}
}

func TestSweepAndMETG(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 4, Steps: 50}
	pts := Sweep(WorkshareRunner{}, s, 1, []int{100000, 10000, 1000}, 0)
	if len(pts) != 3 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	// Efficiency must peak at 1 somewhere and not exceed 1.
	sawPeak := false
	for _, p := range pts {
		if p.Efficiency > 1.0001 {
			t.Fatalf("efficiency %v > 1", p.Efficiency)
		}
		if p.Efficiency > 0.999 {
			sawPeak = true
		}
	}
	if !sawPeak {
		t.Fatal("no point at peak efficiency")
	}
	// Large tasks amortize overhead: the largest flops must qualify at 50%.
	m := METG(pts, 0.5)
	if m < 0 {
		t.Fatal("METG(50%) not found even at the largest task size")
	}
	if PeakRate(pts) <= 0 {
		t.Fatal("peak rate not positive")
	}
}

func TestMETGEdgeCases(t *testing.T) {
	pts := []CurvePoint{
		{Flops: 100, Efficiency: 0.2},
		{Flops: 1000, Efficiency: 0.6},
		{Flops: 10000, Efficiency: 0.9},
	}
	if got := METG(pts, 0.5); got != 1000 {
		t.Fatalf("METG = %d, want 1000", got)
	}
	if got := METG(pts, 0.95); got != -1 {
		t.Fatalf("unreachable METG = %d, want -1", got)
	}
}

func TestResultPerTask(t *testing.T) {
	r := Result{Elapsed: time.Second, Tasks: 1000}
	if r.PerTask() != time.Millisecond {
		t.Fatalf("PerTask = %v", r.PerTask())
	}
	if (Result{}).PerTask() != 0 {
		t.Fatal("zero-task PerTask should be 0")
	}
}

func TestMPIRunnerMultiRankBlocks(t *testing.T) {
	// Width not divisible by ranks: block ownership and halo exchange must
	// still produce the reference checksum.
	s := Spec{Pattern: Stencil1D, Width: 11, Steps: 30, Flops: 16}
	want := s.Reference()
	got := MPIRunner{}.Run(s, 3)
	if got.Checksum != want {
		t.Fatalf("MPI checksum %v, want %v", got.Checksum, want)
	}
	got = MPIRunner{}.Run(s, 16) // more ranks than points: clipped to Width
	if got.Checksum != want {
		t.Fatalf("MPI (clipped ranks) checksum %v, want %v", got.Checksum, want)
	}
}

func TestMPIRunnerRandomPattern(t *testing.T) {
	s := Spec{Pattern: Random, Width: 13, Steps: 25, Flops: 16}
	want := s.Reference()
	got := MPIRunner{}.Run(s, 4)
	if got.Checksum != want {
		t.Fatalf("MPI random-pattern checksum %v, want %v", got.Checksum, want)
	}
}

func TestDistributedTTGMatchesReference(t *testing.T) {
	for _, pat := range []Pattern{Stencil1D, FFT, Random, NoComm} {
		s := Spec{Pattern: pat, Width: 8, Steps: 25, Flops: 32}
		want := s.Reference()
		got, _, err := RunDist(s, DistOptions{Ranks: 4, Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if got.Checksum != want {
			t.Fatalf("%v: distributed checksum %v, want %v", pat, got.Checksum, want)
		}
	}
}

func TestDistributedTTGMoreRanksThanPoints(t *testing.T) {
	s := Spec{Pattern: Stencil1D, Width: 3, Steps: 10, Flops: 16}
	got, _, err := RunDist(s, DistOptions{Ranks: 8, Workers: 1}) // clipped to width
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != s.Reference() {
		t.Fatalf("checksum %v, want %v", got.Checksum, s.Reference())
	}
}
