// Package taskbench implements the parameterized Task-Bench benchmark of
// Slaughter et al. (SC'20) as used in paper §V-D: an iteration space of
// `Width` points by `Steps` timesteps, a dependency pattern connecting
// consecutive timesteps, and a compute-bound kernel of configurable
// flops-per-task. Every contender runtime (TTG, PTG, OpenMP-style
// worksharing and tasks, TaskFlow, MPI, Legion) implements the same
// contract and must produce bit-identical checksums.
package taskbench

import (
	"fmt"
	"time"
)

// Pattern selects the dependency structure between consecutive timesteps.
type Pattern int

const (
	// Trivial has no data dependencies; tasks are triggered point-wise
	// (control only).
	Trivial Pattern = iota
	// NoComm passes each point's value straight down (1 dependency).
	NoComm
	// Stencil1D depends on {p-1, p, p+1} — the paper's pattern (Fig. 2b).
	Stencil1D
	// FFT depends on {p, p XOR 2^(t mod log2 W)} (butterfly).
	FFT
	// Random depends on a deterministic pseudo-random subset of
	// {p-2..p+2}, always including p.
	Random
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Trivial:
		return "trivial"
	case NoComm:
		return "no_comm"
	case Stencil1D:
		return "stencil_1d"
	case FFT:
		return "fft"
	case Random:
		return "random_nearest"
	}
	return "?"
}

// ParsePattern converts a name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range []Pattern{Trivial, NoComm, Stencil1D, FFT, Random} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("taskbench: unknown pattern %q", s)
}

// Spec is one benchmark instance.
type Spec struct {
	Pattern Pattern
	Width   int // points per timestep (paper: one per core)
	Steps   int // timesteps (paper: 1000)
	Flops   int // kernel flops per task

	// Skew tilts the kernel cost linearly across the iteration space: point
	// p costs (1 + Skew·p/(Width-1)) times the base flops, so with Skew=3
	// the highest point is 4x the lowest. Under the block key map this
	// deliberately overloads the high ranks — the imbalanced instance the
	// work-stealing benchmarks use. 0 means uniform cost. Every contender
	// computes through Value, so checksums stay bit-identical at any skew.
	Skew float64

	// SleepNs models upstream Task-Bench's "sleep" kernel type: each task
	// body blocks for this many nanoseconds (scaled by the same skew factor
	// as the flops) on top of the compute chain. A sleeping task occupies a
	// worker without occupying a core, so load imbalance shows up in
	// wall-clock time even when all ranks timeshare a few CPUs — the
	// latency-bound instance the work-stealing benchmarks use. Sleeping
	// never changes computed values, so checksums are unaffected. 0 disables.
	SleepNs int64
}

// log2floor returns floor(log2(w)), at least 1.
func log2floor(w int) int {
	l := 0
	for v := w; v > 1; v >>= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// maxDeps bounds the producers and the consumers of any point in every
// pattern: Random links at most {p-2..p+2}.
const maxDeps = 5

// Deps returns the producer points at timestep t-1 for point p at timestep
// t, in ascending order. For t == 0 it returns nil (tasks are seeded).
//
// Deps and RDeps inline, so where the result does not escape — len(s.Deps(..)),
// range s.RDeps(..) — its constant-capacity backing array lives on the
// caller's stack and the call allocates nothing.
func (s Spec) Deps(t, p int) []int {
	if t == 0 {
		return nil
	}
	return s.appendDeps(make([]int, 0, maxDeps), t, p)
}

// appendDeps appends Deps(t, p) (t >= 1) to dst.
func (s Spec) appendDeps(dst []int, t, p int) []int {
	switch s.Pattern {
	case Trivial, NoComm:
		return append(dst, p)
	case Stencil1D:
		for q := p - 1; q <= p+1; q++ {
			if q >= 0 && q < s.Width {
				dst = append(dst, q)
			}
		}
	case FFT:
		other := p ^ (1 << uint((t-1)%log2floor(s.Width)))
		switch {
		case other >= s.Width:
			return append(dst, p)
		case other < p:
			return append(dst, other, p)
		default:
			return append(dst, p, other)
		}
	case Random:
		for d := -2; d <= 2; d++ {
			if q := p + d; q >= 0 && q < s.Width && (d == 0 || randBit(t, p, d)) {
				dst = append(dst, q)
			}
		}
	}
	return dst
}

// randBit is a deterministic hash deciding whether the Random pattern links
// (t-1,p+d) -> (t,p).
func randBit(t, p, d int) bool {
	x := uint64(t)*0x9e3779b97f4a7c15 ^ uint64(p)*0xbf58476d1ce4e5b9 ^ uint64(d+7)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x&7 < 3
}

// RDeps returns the consumer points at timestep t+1 of point p at timestep
// t, in ascending order — the exact inverse of Deps.
func (s Spec) RDeps(t, p int) []int {
	if t+1 >= s.Steps {
		return nil
	}
	return s.appendRDeps(make([]int, 0, maxDeps), t, p)
}

// appendRDeps appends RDeps(t, p) (t+1 < Steps) to dst.
func (s Spec) appendRDeps(dst []int, t, p int) []int {
	if s.Pattern != Random {
		// The other patterns are symmetric between producers and consumers.
		return s.appendDeps(dst, t+1, p)
	}
	for d := -2; d <= 2; d++ {
		// Candidate consumer (t+1, q) depends on (t, q + d') with
		// d' = p - q = -d; q rises with d, so the result is ascending.
		if q := p + d; q >= 0 && q < s.Width && (d == 0 || randBit(t+1, q, -d)) {
			dst = append(dst, q)
		}
	}
	return dst
}

// kernelIters converts flops to loop iterations (2 flops per FMA step).
func (s Spec) kernelIters() int {
	it := s.Flops / 2
	if it < 1 {
		it = 1
	}
	return it
}

// kernelItersAt scales the iteration count for point p by the skew factor.
func (s Spec) kernelItersAt(p int) int {
	it := s.kernelIters()
	if s.Skew <= 0 || s.Width <= 1 {
		return it
	}
	return int(float64(it) * (1 + s.Skew*float64(p)/float64(s.Width-1)))
}

// Kernel is the compute-bound task body: a dependent multiply-add chain of
// s.Flops floating-point operations seeded with x.
func (s Spec) Kernel(x float64) float64 {
	return kernelChain(x, s.kernelIters())
}

// KernelAt is Kernel with the skew-scaled cost of point p.
func (s Spec) KernelAt(p int, x float64) float64 {
	return kernelChain(x, s.kernelItersAt(p))
}

// SleepAt blocks for point p's skew-scaled share of SleepNs (no-op at 0).
// Task bodies call it alongside the compute kernel; Reference does not,
// since sleeping never changes values.
func (s Spec) SleepAt(p int) {
	if s.SleepNs <= 0 {
		return
	}
	d := s.SleepNs
	if s.Skew > 0 && s.Width > 1 {
		d = int64(float64(d) * (1 + s.Skew*float64(p)/float64(s.Width-1)))
	}
	time.Sleep(time.Duration(d))
}

func kernelChain(x float64, n int) float64 {
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// Value computes the task value at (t, p) given the values of its
// dependencies, which the caller must supply in ascending producer order
// (the paper's sorted_insert) for bit-identical results across runtimes.
func (s Spec) Value(t, p int, depVals []float64) float64 {
	x := float64(p + 1)
	for _, v := range depVals {
		x += v
	}
	return s.KernelAt(p, x/3)
}

// Reference computes the expected checksum (sum of last-step values) with a
// simple sequential sweep — the oracle every runtime must match exactly.
func (s Spec) Reference() float64 {
	cur := make([]float64, s.Width)
	next := make([]float64, s.Width)
	for p := 0; p < s.Width; p++ {
		cur[p] = s.Value(0, p, nil)
	}
	var depVals []float64
	for t := 1; t < s.Steps; t++ {
		for p := 0; p < s.Width; p++ {
			depVals = depVals[:0]
			for _, q := range s.Deps(t, p) {
				depVals = append(depVals, cur[q])
			}
			next[p] = s.Value(t, p, depVals)
		}
		cur, next = next, cur
	}
	sum := 0.0
	for p := 0; p < s.Width; p++ {
		sum += cur[p]
	}
	return sum
}

// TotalTasks returns Width·Steps.
func (s Spec) TotalTasks() int { return s.Width * s.Steps }
