package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"gottg/internal/comm"
	"gottg/internal/rt"
)

func init() {
	RegisterPayload(int(0))
	RegisterPayload(float64(0))
}

// runSPMD constructs one graph replica per rank (SPMD), seeds and waits on
// each concurrently, shuts the world down, and returns the graphs.
func runSPMD(t *testing.T, ranks, workers int, build func(g *Graph) (seed func())) []*Graph {
	t.Helper()
	world := comm.NewWorld(ranks)
	graphs := make([]*Graph, ranks)
	seeds := make([]func(), ranks)
	for r := 0; r < ranks; r++ {
		cfg := rt.OptimizedConfig(workers)
		cfg.PinWorkers = false
		graphs[r] = NewDistributed(cfg, world.Proc(r))
		seeds[r] = build(graphs[r])
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			graphs[r].MakeExecutable()
			seeds[r]()
			waitOK(t, graphs[r])
		}(r)
	}
	wg.Wait()
	world.Shutdown()
	return graphs
}

func TestDistributedChain(t *testing.T) {
	// A chain of N tasks whose keys round-robin across 4 ranks: every hop
	// crosses a rank boundary, exercising serialization and the wave.
	const ranks = 4
	const N = 400
	var count atomic.Int64
	var lastVal atomic.Int64
	runSPMD(t, ranks, 2, func(g *Graph) func() {
		e := NewEdge("chain")
		tt := g.NewTT("hop", 1, 1, func(tc TaskContext) {
			count.Add(1)
			v := tc.Value(0).(int)
			if k := tc.Key(); k < N {
				tc.Send(0, k+1, v+1)
			} else {
				lastVal.Store(int64(v))
			}
		}).WithMapper(func(key uint64) int { return int(key % ranks) })
		tt.Out(0, e)
		e.To(tt, 0)
		return func() {
			g.Invoke(tt, 1, 100) // only the owner rank keeps the seed
		}
	})
	if count.Load() != N {
		t.Fatalf("executed %d tasks, want %d", count.Load(), N)
	}
	if lastVal.Load() != 100+N-1 {
		t.Fatalf("final value %d, want %d", lastVal.Load(), 100+N-1)
	}
}

func TestDistributedJoinAcrossRanks(t *testing.T) {
	// Two producers on different ranks feed a two-input join on a third.
	const ranks = 3
	var joined atomic.Int64
	runSPMD(t, ranks, 1, func(g *Graph) func() {
		eA, eB := NewEdge("a"), NewEdge("b")
		pa := g.NewTT("prodA", 1, 1, func(tc TaskContext) {
			tc.Send(0, tc.Key(), 11)
		}).WithMapper(func(uint64) int { return 0 })
		pb := g.NewTT("prodB", 1, 1, func(tc TaskContext) {
			tc.Send(0, tc.Key(), 31)
		}).WithMapper(func(uint64) int { return 1 })
		join := g.NewTT("join", 2, 0, func(tc TaskContext) {
			joined.Add(int64(tc.Value(0).(int) + tc.Value(1).(int)))
		}).WithMapper(func(uint64) int { return 2 })
		pa.Out(0, eA)
		pb.Out(0, eB)
		eA.To(join, 0)
		eB.To(join, 1)
		return func() {
			for k := uint64(0); k < 50; k++ {
				g.InvokeControl(pa, k)
				g.InvokeControl(pb, k)
			}
		}
	})
	if joined.Load() != 50*42 {
		t.Fatalf("joined sum %d, want %d", joined.Load(), 50*42)
	}
}

func TestDistributedSameResultAsShared(t *testing.T) {
	// The same binary-tree graph executed shared-memory and across 4 ranks
	// must execute the same number of tasks.
	run := func(dist bool) int64 {
		var count atomic.Int64
		const H = 10
		body := func(tc TaskContext) {
			count.Add(1)
			lvl, idx := Unpack2(tc.Key())
			if lvl < H {
				tc.SendControl(0, Pack2(lvl+1, idx*2))
				tc.SendControl(0, Pack2(lvl+1, idx*2+1))
			}
		}
		if !dist {
			cfg := rt.OptimizedConfig(2)
			cfg.PinWorkers = false
			g := New(cfg)
			e := NewEdge("t")
			tt := g.NewTT("node", 1, 1, body)
			tt.Out(0, e)
			e.To(tt, 0)
			g.MakeExecutable()
			g.InvokeControl(tt, 0)
			waitOK(t, g)
		} else {
			runSPMD(t, 4, 1, func(g *Graph) func() {
				e := NewEdge("t")
				tt := g.NewTT("node", 1, 1, body).
					WithMapper(func(key uint64) int { _, idx := Unpack2(key); return int(idx % 4) })
				tt.Out(0, e)
				e.To(tt, 0)
				return func() { g.InvokeControl(tt, 0) }
			})
		}
		return count.Load()
	}
	shared := run(false)
	distributed := run(true)
	if shared != distributed || shared != 1<<11-1 {
		t.Fatalf("shared=%d distributed=%d want=%d", shared, distributed, 1<<11-1)
	}
}
