package core

import (
	"math"
	"sync/atomic"
	"testing"

	"gottg/internal/rt"
)

// inlineCfg enables task inlining on an optimized runtime. Every producer
// passes the body-time gate, so these tests exercise the occupancy, depth
// and budget gates whatever the host's speed (TestAdaptiveInlineChain runs
// the default threshold).
func inlineCfg(workers int) rt.Config {
	c := rt.OptimizedConfig(workers)
	c.PinWorkers = false
	c.InlineAuto = true
	c.InlineThresholdNs = math.MaxInt64
	return c
}

// maxInlineDepth mirrors the runtime's nesting bound (rt.maxInlineDepth).
const maxInlineDepth = 8

func TestInlineChainCorrect(t *testing.T) {
	const N = 20000
	g := New(inlineCfg(1))
	e := NewEdge("chain")
	var count atomic.Int64
	pt := g.NewTT("p", 1, 1, func(tc TaskContext) {
		count.Add(1)
		if k := tc.Key(); k < N {
			tc.SendControl(0, k+1)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	g.InvokeControl(pt, 1)
	g.Wait()
	if count.Load() != N {
		t.Fatalf("executed %d, want %d", count.Load(), N)
	}
	var inlined int64
	for _, w := range g.Runtime().Workers() {
		inlined += w.Stats.Inlined.Load()
	}
	if inlined == 0 {
		t.Fatal("no tasks were inlined despite InlineAuto")
	}
}

func TestInlineTreeCorrectMultiWorker(t *testing.T) {
	const H = 13
	g := New(inlineCfg(4))
	e := NewEdge("tree")
	var count atomic.Int64
	tt := g.NewTT("node", 1, 1, func(tc TaskContext) {
		count.Add(1)
		lvl, idx := Unpack2(tc.Key())
		if lvl < H {
			tc.SendControl(0, Pack2(lvl+1, idx*2))
			tc.SendControl(0, Pack2(lvl+1, idx*2+1))
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.InvokeControl(tt, Pack2(0, 0))
	g.Wait()
	if want := int64(1<<(H+1) - 1); count.Load() != want {
		t.Fatalf("executed %d, want %d", count.Load(), want)
	}
}

func TestInlineDepthBounded(t *testing.T) {
	// A chain on one worker records how deeply its bodies nest: the
	// scheduled frame plus at most maxInlineDepth inline frames, and a solo
	// chain reaches that bound exactly. The chain is far longer than any
	// plausible stack limit, so some tasks must have gone through the
	// scheduler (the depth bound engaged).
	const N = 200000
	g := New(inlineCfg(1))
	e := NewEdge("chain")
	var count, depth, maxDepth atomic.Int64
	pt := g.NewTT("p", 1, 1, func(tc TaskContext) {
		count.Add(1)
		if d := depth.Add(1); d > maxDepth.Load() {
			maxDepth.Store(d)
		}
		if k := tc.Key(); k < N {
			tc.SendControl(0, k+1)
		}
		depth.Add(-1)
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	g.InvokeControl(pt, 1)
	g.Wait()
	if count.Load() != N {
		t.Fatalf("executed %d, want %d", count.Load(), N)
	}
	if got := maxDepth.Load(); got != maxInlineDepth+1 {
		t.Fatalf("bodies nested %d deep, want %d (1 scheduled + %d inlined)",
			got, maxInlineDepth+1, maxInlineDepth)
	}
	var executed int64
	for _, w := range g.Runtime().Workers() {
		executed += w.Stats.Executed.Load()
	}
	if executed == 0 {
		t.Fatal("everything inlined: the depth bound did not engage")
	}
}

func TestInlineWithDataAndAggregators(t *testing.T) {
	// Inlining must preserve data-flow semantics: reducer aggregates K
	// items delivered by inlined feeders.
	const K = 32
	g := New(inlineCfg(2))
	eIn := NewEdge("in")
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		tc.Send(0, 0, int(tc.Key()))
	})
	var sum atomic.Int64
	red := g.NewTT("reduce", 1, 0, func(tc TaskContext) {
		agg := tc.Aggregate(0)
		var s int64
		for i := 0; i < agg.Len(); i++ {
			s += int64(agg.Value(i).(int))
		}
		sum.Store(s)
	}).WithAggregator(0, func(uint64) int { return K })
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	g.MakeExecutable()
	for i := uint64(0); i < K; i++ {
		g.InvokeControl(feeder, i)
	}
	g.Wait()
	if want := int64(K * (K - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}
