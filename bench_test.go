// Benchmarks regenerating one measurement per paper table/figure (run
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices called out in DESIGN.md §5. The full parameter sweeps live in
// cmd/ttg-bench.
package gottg_test

import (
	"sync/atomic"
	"testing"

	"gottg/internal/core"
	"gottg/internal/mra"
	"gottg/internal/omptask"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
	"gottg/internal/xsync"
	"gottg/ttg"
)

// ---- Fig. 1: atomic increment latency ----

func BenchmarkFig1AtomicContended(b *testing.B) {
	var v atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.Add(1)
		}
	})
}

func BenchmarkFig1AtomicThreadLocal(b *testing.B) {
	cells := make([]xsync.PaddedInt64, 256)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := &cells[int(next.Add(1))%len(cells)]
		for pb.Next() {
			c.V.Add(1)
		}
	})
}

// ---- Fig. 5: minimum task latency (single-thread chains) ----

// chainBench runs a ttg chain of b.N tasks with `flows` flows.
func chainBench(b *testing.B, flows int, copyData bool) {
	cfg := rt.OptimizedConfig(1)
	cfg.PinWorkers = false
	g := core.New(cfg)
	edges := make([]*core.Edge, flows)
	limit := uint64(b.N)
	pt := g.NewTT("point", flows, flows, func(tc core.TaskContext) {
		k := tc.Key()
		if k >= limit {
			return
		}
		for f := 0; f < flows; f++ {
			if copyData {
				tc.Send(f, k+1, tc.Value(f))
			} else {
				tc.SendInput(f, k+1, f)
			}
		}
	})
	for f := 0; f < flows; f++ {
		edges[f] = core.NewEdge("flow")
		pt.Out(f, edges[f])
		edges[f].To(pt, f)
	}
	g.MakeExecutable()
	b.ResetTimer()
	for f := 0; f < flows; f++ {
		g.InvokeInput(pt, f, 1, f)
	}
	g.Wait()
}

func BenchmarkFig5TTGMoveFlows1(b *testing.B) { chainBench(b, 1, false) }
func BenchmarkFig5TTGMoveFlows2(b *testing.B) { chainBench(b, 2, false) }
func BenchmarkFig5TTGMoveFlows4(b *testing.B) { chainBench(b, 4, false) }
func BenchmarkFig5TTGMoveFlows6(b *testing.B) { chainBench(b, 6, false) }
func BenchmarkFig5TTGCopyFlows1(b *testing.B) { chainBench(b, 1, true) }
func BenchmarkFig5TTGCopyFlows4(b *testing.B) { chainBench(b, 4, true) }

func BenchmarkFig5OpenMPTasksChain(b *testing.B) {
	r := omptask.New(1)
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit([]omptask.Dep{omptask.Out(1)}, func(int) {})
	}
	r.Wait()
}

// ---- Fig. 6: scheduler pressure (binary-tree, per-task cost) ----

func treeBench(b *testing.B, kind rt.SchedKind, workers int) {
	// Choose the height closest to b.N tasks (the chain identity keeps the
	// per-op metric meaningful).
	height := 1
	for (int64(1)<<(height+1))-1 < int64(b.N) && height < 24 {
		height++
	}
	cfg := rt.Config{Workers: workers, Sched: kind, ThreadLocalTermDet: true,
		HTBypassSingleInput: true, UsePools: true}.Normalize()
	cfg.PinWorkers = false
	g := core.New(cfg)
	e := core.NewEdge("tree")
	tt := g.NewTT("node", 1, 1, func(tc core.TaskContext) {
		lvl, idx := core.Unpack2(tc.Key())
		if int(lvl) < height {
			tc.SendControl(0, core.Pack2(lvl+1, idx*2))
			tc.SendControl(0, core.Pack2(lvl+1, idx*2+1))
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(tt, core.Pack2(0, 0))
	g.Wait()
	b.StopTimer()
	tasks := (int64(1) << (height + 1)) - 1
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
}

func BenchmarkFig6TreeLLP1(b *testing.B) { treeBench(b, rt.SchedLLP, 1) }
func BenchmarkFig6TreeLFQ1(b *testing.B) { treeBench(b, rt.SchedLFQ, 1) }
func BenchmarkFig6TreeLL1(b *testing.B)  { treeBench(b, rt.SchedLL, 1) }
func BenchmarkFig6TreeLLP4(b *testing.B) { treeBench(b, rt.SchedLLP, 4) }
func BenchmarkFig6TreeLFQ4(b *testing.B) { treeBench(b, rt.SchedLFQ, 4) }

// ---- Figs. 7/8/10/11: Task-Bench per-runner per-task cost ----

func taskBenchBench(b *testing.B, r taskbench.Runner) {
	steps := b.N/4 + 2
	s := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 4, Steps: steps, Flops: 100}
	b.ResetTimer()
	res := r.Run(s, 1)
	b.StopTimer()
	b.ReportMetric(float64(res.Elapsed.Nanoseconds())/float64(res.Tasks), "ns/task")
}

func BenchmarkFig7TTGOptimized(b *testing.B) {
	taskBenchBench(b, taskbench.TTGRunner{Label: "ttg-opt", Cfg: func(t int) rt.Config {
		c := rt.OptimizedConfig(t)
		c.PinWorkers = false
		return c
	}})
}

func BenchmarkFig7TTGOriginal(b *testing.B) {
	taskBenchBench(b, taskbench.TTGRunner{Label: "ttg-orig", Cfg: func(t int) rt.Config {
		c := rt.OriginalConfig(t)
		c.PinWorkers = false
		return c
	}})
}

func BenchmarkFig7PTGOptimized(b *testing.B) {
	taskBenchBench(b, taskbench.PTGRunner{Label: "ptg-opt", Cfg: func(t int) rt.Config {
		c := rt.OptimizedConfig(t)
		c.PinWorkers = false
		return c
	}})
}

func BenchmarkFig7DTD(b *testing.B)       { taskBenchBench(b, taskbench.DTDRunner{}) }
func BenchmarkFig7Workshare(b *testing.B) { taskBenchBench(b, taskbench.WorkshareRunner{}) }
func BenchmarkFig7OMPTasks(b *testing.B)  { taskBenchBench(b, taskbench.OMPTaskRunner{}) }
func BenchmarkFig7TaskFlow(b *testing.B)  { taskBenchBench(b, taskbench.TaskflowRunner{}) }
func BenchmarkFig7MPI(b *testing.B)       { taskBenchBench(b, taskbench.MPIRunner{}) }
func BenchmarkFig7Legion(b *testing.B)    { taskBenchBench(b, taskbench.LegionRunner{}) }

// ---- Fig. 9: optimization breakdown (TTG stencil, per-task cost) ----

func fig9Bench(b *testing.B, threadLocalTermdet, bravo bool) {
	taskBenchBench(b, taskbench.TTGRunner{Label: "fig9", Cfg: func(t int) rt.Config {
		c := rt.OptimizedConfig(t)
		c.ThreadLocalTermDet = threadLocalTermdet
		c.BiasedRWLock = bravo
		c.PinWorkers = false
		return c
	}})
}

func BenchmarkFig9FourCounterTermdet(b *testing.B)  { fig9Bench(b, false, false) }
func BenchmarkFig9ThreadLocalTermdet(b *testing.B)  { fig9Bench(b, true, false) }
func BenchmarkFig9ThreadLocalAndBRAVO(b *testing.B) { fig9Bench(b, true, true) }

// ---- Fig. 12: MRA time to solution ----

func mraBench(b *testing.B, optimized bool) {
	p := mra.DefaultProblem(2)
	p.K = 5
	p.Tol = 1e-2
	p.MaxLevel = 5
	for i := range p.Funcs {
		p.Funcs[i].Expnt = 50
	}
	var cfg rt.Config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if optimized {
			cfg = rt.OptimizedConfig(0)
		} else {
			cfg = rt.OriginalConfig(0)
		}
		cfg.PinWorkers = false
		_, res := mra.Run(p, cfg)
		if res.Tasks == 0 {
			b.Fatal("no tasks executed")
		}
	}
}

func BenchmarkFig12MRAOptimized(b *testing.B) { mraBench(b, true) }
func BenchmarkFig12MRAOriginal(b *testing.B)  { mraBench(b, false) }

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationHTBypass{On,Off}: single-input tasks with and without
// the hash-table bypass (§V-C).
func htBypassBench(b *testing.B, bypass bool) {
	cfg := rt.OptimizedConfig(1)
	cfg.HTBypassSingleInput = bypass
	cfg.PinWorkers = false
	g := core.New(cfg)
	e := core.NewEdge("chain")
	limit := uint64(b.N)
	pt := g.NewTT("p", 1, 1, func(tc core.TaskContext) {
		if k := tc.Key(); k < limit {
			tc.SendControl(0, k+1)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(pt, 1)
	g.Wait()
}

func BenchmarkAblationHTBypassOn(b *testing.B)  { htBypassBench(b, true) }
func BenchmarkAblationHTBypassOff(b *testing.B) { htBypassBench(b, false) }

// BenchmarkAblationPool{On,Off}: task recycling vs heap allocation.
func poolBench(b *testing.B, pools bool) {
	cfg := rt.OptimizedConfig(1)
	cfg.UsePools = pools
	cfg.PinWorkers = false
	g := core.New(cfg)
	e := core.NewEdge("chain")
	limit := uint64(b.N)
	pt := g.NewTT("p", 1, 1, func(tc core.TaskContext) {
		if k := tc.Key(); k < limit {
			tc.SendControl(0, k+1)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(pt, 1)
	g.Wait()
}

func BenchmarkAblationPoolOn(b *testing.B)  { poolBench(b, true) }
func BenchmarkAblationPoolOff(b *testing.B) { poolBench(b, false) }

// BenchmarkAblationMoveVsCopy: the two Fig. 5 data-flow variants head to
// head at 2 flows.
func BenchmarkAblationMove(b *testing.B) { chainBench(b, 2, false) }
func BenchmarkAblationCopy(b *testing.B) { chainBench(b, 2, true) }

// BenchmarkAblationLLPInsert: priority-ordered insertion cost. Tasks
// pushed in ascending priority order always beat the queue head and take
// the single-CAS fast path; descending order forces the detach / sorted
// insert / reattach slow path on every push (bounded here to 64-task
// bursts — the unbounded worst case is O(N) per insertion, which is
// exactly why the paper bundles sorted chains).
func llpOrderBench(b *testing.B, fastPath bool) {
	cfg := rt.OptimizedConfig(1)
	cfg.PinWorkers = false
	g := core.New(cfg)
	e := core.NewEdge("work")
	const burst = 64
	limit := uint64(b.N/burst + 1)
	var pri func(key uint64) int32
	if fastPath {
		pri = func(key uint64) int32 { return int32(key % burst) }
	} else {
		pri = func(key uint64) int32 { return -int32(key % burst) }
	}
	done := 0 // single worker: plain counter is safe
	gate := g.NewTT("gate", 1, 1, func(tc core.TaskContext) {
		base := tc.Key()
		for i := uint64(0); i < burst; i++ {
			tc.SendControl(0, base*burst+i+1)
		}
	})
	work := g.NewTT("work", 1, 1, func(tc core.TaskContext) {
		done++
		if done%burst == 0 && uint64(done/burst) < limit {
			tc.SendControl(0, uint64(done/burst)) // next burst once drained
		}
	}).WithPriority(pri)
	gateEdge := core.NewEdge("gate")
	gate.Out(0, e)
	work.Out(0, gateEdge)
	e.To(work, 0)
	gateEdge.To(gate, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(gate, 0)
	g.Wait()
}

func BenchmarkAblationLLPInsertFastPath(b *testing.B) { llpOrderBench(b, true) }
func BenchmarkAblationLLPInsertSlowPath(b *testing.B) { llpOrderBench(b, false) }

// ---- public API sanity bench: the ttg alias layer is zero-cost ----

func BenchmarkPublicAPIChain(b *testing.B) {
	g := ttg.New(func() ttg.Config {
		c := ttg.OptimizedConfig(1)
		c.PinWorkers = false
		return c
	}())
	e := ttg.NewEdge("chain")
	limit := uint64(b.N)
	pt := g.NewTT("p", 1, 1, func(tc ttg.TaskContext) {
		if k := tc.Key(); k < limit {
			tc.SendControl(0, k+1)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(pt, 1)
	g.Wait()
}

// BenchmarkAblationAggregatorVsStreaming: §V-D1's design point. Both
// terminals gather K items per task; the aggregator keeps the items as
// TTG-managed copies (shareable onward without copying), the streaming
// terminal folds them eagerly (cheaper per item, but downstream reuse of
// the originals requires re-copying).
func accumulateBench(b *testing.B, streaming bool) {
	const K = 16
	cfg := rt.OptimizedConfig(1)
	cfg.PinWorkers = false
	g := core.New(cfg)
	eIn := core.NewEdge("in")
	feeder := g.NewTT("feeder", 1, 1, func(tc core.TaskContext) {
		key, i := core.Unpack2(tc.Key())
		tc.Send(0, uint64(key), int(i))
	})
	var red *core.TT
	if streaming {
		red = g.NewTT("stream", 1, 0, func(tc core.TaskContext) {
			_ = tc.Value(0)
		}).WithStreaming(0, func(uint64) int { return K },
			func(acc, v any) any {
				if acc == nil {
					return v
				}
				return acc.(int) + v.(int)
			})
	} else {
		red = g.NewTT("agg", 1, 0, func(tc core.TaskContext) {
			agg := tc.Aggregate(0)
			s := 0
			for i := 0; i < agg.Len(); i++ {
				s += agg.Value(i).(int)
			}
			_ = s
		}).WithAggregator(0, func(uint64) int { return K })
	}
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	g.MakeExecutable()
	keys := b.N/K + 1
	b.ResetTimer()
	for k := 0; k < keys; k++ {
		for i := 0; i < K; i++ {
			g.InvokeControl(feeder, core.Pack2(uint32(k), uint32(i)))
		}
	}
	g.Wait()
}

func BenchmarkAblationAggregator(b *testing.B) { accumulateBench(b, false) }
func BenchmarkAblationStreaming(b *testing.B)  { accumulateBench(b, true) }

// BenchmarkAblationBundle{On,Off}: §IV-C's sorted-bundle insertion versus
// per-task pushes, on a fan-out-heavy tree.
func bundleBench(b *testing.B, bundle bool) {
	height := 1
	for (int64(1)<<(height+1))-1 < int64(b.N) && height < 24 {
		height++
	}
	cfg := rt.OptimizedConfig(1)
	cfg.BundleReady = bundle
	cfg.PinWorkers = false
	g := core.New(cfg)
	e := core.NewEdge("tree")
	tt := g.NewTT("node", 1, 1, func(tc core.TaskContext) {
		lvl, idx := core.Unpack2(tc.Key())
		if int(lvl) < height {
			tc.SendControl(0, core.Pack2(lvl+1, idx*2))
			tc.SendControl(0, core.Pack2(lvl+1, idx*2+1))
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	b.ResetTimer()
	g.InvokeControl(tt, core.Pack2(0, 0))
	g.Wait()
}

func BenchmarkAblationBundleOn(b *testing.B)  { bundleBench(b, true) }
func BenchmarkAblationBundleOff(b *testing.B) { bundleBench(b, false) }
