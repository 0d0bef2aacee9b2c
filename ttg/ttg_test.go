package ttg_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"gottg/ttg"
)

func cfg(workers int) ttg.Config {
	c := ttg.OptimizedConfig(workers)
	c.PinWorkers = false
	return c
}

// waitOK waits for g and fails the test on the error Wait returns, such as
// a task body's panic. It may run on any goroutine.
func waitOK(t testing.TB, g *ttg.Graph) {
	t.Helper()
	if err := g.Wait(); err != nil {
		t.Errorf("Wait: %v", err)
	}
}

// TestQuickstartShape mirrors the README example end to end.
func TestQuickstartShape(t *testing.T) {
	g := ttg.New(cfg(2))
	e := ttg.NewEdge("data")
	var got atomic.Value
	hello := g.NewTT("hello", 1, 1, func(tc ttg.TaskContext) {
		tc.Send(0, tc.Key(), tc.Value(0).(string)+" world")
	})
	print := g.NewTT("print", 1, 0, func(tc ttg.TaskContext) {
		got.Store(tc.Value(0).(string))
	})
	hello.Out(0, e)
	e.To(print, 0)
	g.MakeExecutable()
	g.Invoke(hello, 0, "hello")
	waitOK(t, g)
	if got.Load() != "hello world" {
		t.Fatalf("got %v", got.Load())
	}
}

// TestSumOfSquares is the quickstart example as a test (fan-out, transform,
// aggregate).
func TestSumOfSquares(t *testing.T) {
	const n = 64
	g := ttg.New(cfg(4))
	values := ttg.NewEdge("values")
	squares := ttg.NewEdge("squares")
	gen := g.NewTT("generate", 1, 1, func(tc ttg.TaskContext) {
		for i := uint64(0); i < n; i++ {
			tc.Send(0, i, int(i))
		}
	})
	sq := g.NewTT("square", 1, 1, func(tc ttg.TaskContext) {
		v := tc.Value(0).(int)
		tc.Send(0, 0, v*v)
	})
	total := 0
	sum := g.NewTT("sum", 1, 0, func(tc ttg.TaskContext) {
		agg := tc.Aggregate(0)
		for i := 0; i < agg.Len(); i++ {
			total += agg.Value(i).(int)
		}
	}).WithAggregator(0, func(uint64) int { return n })
	gen.Out(0, values)
	sq.Out(0, squares)
	values.To(sq, 0)
	squares.To(sum, 0)
	g.MakeExecutable()
	g.InvokeControl(gen, 0)
	waitOK(t, g)
	if want := (n - 1) * n * (2*n - 1) / 6; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

// TestWavefrontMini is a small blocked 2D wavefront through the public API
// (the examples/wavefront pattern), checked against a sequential sweep.
func TestWavefrontMini(t *testing.T) {
	const nb = 6
	type msg struct {
		dir int
		v   int64
	}
	grid := make([][]int64, nb)
	for i := range grid {
		grid[i] = make([]int64, nb)
	}
	needs := func(key uint64) int {
		i, j := ttg.Unpack2(key)
		n := 0
		if i > 0 {
			n++
		}
		if j > 0 {
			n++
		}
		if n == 0 {
			n = 1
		}
		return n
	}
	g := ttg.New(cfg(4))
	e := ttg.NewEdge("wf")
	blk := g.NewTT("blk", 1, 1, func(tc ttg.TaskContext) {
		i32, j32 := ttg.Unpack2(tc.Key())
		i, j := int(i32), int(j32)
		var left, top int64
		agg := tc.Aggregate(0)
		for k := 0; k < agg.Len(); k++ {
			if m, ok := agg.Value(k).(*msg); ok {
				if m.dir == 0 {
					left = m.v
				} else {
					top = m.v
				}
			}
		}
		v := left + top + int64(i*nb+j)
		grid[i][j] = v
		if j+1 < nb {
			tc.Send(0, ttg.Pack2(uint32(i), uint32(j+1)), &msg{dir: 0, v: v})
		}
		if i+1 < nb {
			tc.Send(0, ttg.Pack2(uint32(i+1), uint32(j)), &msg{dir: 1, v: v})
		}
	}).WithAggregator(0, needs).
		WithPriority(func(key uint64) int32 {
			i, j := ttg.Unpack2(key)
			return -int32(i + j)
		})
	blk.Out(0, e)
	e.To(blk, 0)
	g.MakeExecutable()
	g.Invoke(blk, 0, nil)
	waitOK(t, g)

	// Sequential reference.
	ref := make([][]int64, nb)
	for i := range ref {
		ref[i] = make([]int64, nb)
		for j := range ref[i] {
			var left, top int64
			if j > 0 {
				left = ref[i][j-1]
			}
			if i > 0 {
				top = ref[i-1][j]
			}
			ref[i][j] = left + top + int64(i*nb+j)
		}
	}
	for i := range ref {
		for j := range ref[i] {
			if grid[i][j] != ref[i][j] {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, grid[i][j], ref[i][j])
			}
		}
	}
}

// TestDistributedPublicAPI runs a cross-rank chain through the alias layer.
func TestDistributedPublicAPI(t *testing.T) {
	ttg.RegisterPayload(int(0))
	const ranks = 3
	const N = 60
	world := ttg.NewWorld(ranks)
	var count atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := ttg.NewDistributed(cfg(1), world.Proc(r))
			e := ttg.NewEdge("chain")
			tt := g.NewTT("hop", 1, 1, func(tc ttg.TaskContext) {
				count.Add(1)
				if k := tc.Key(); k < N {
					tc.Send(0, k+1, tc.Value(0).(int)+1)
				}
			}).WithMapper(func(key uint64) int { return int(key % ranks) })
			tt.Out(0, e)
			e.To(tt, 0)
			g.MakeExecutable()
			g.Invoke(tt, 1, 0)
			waitOK(t, g)
		}(r)
	}
	wg.Wait()
	world.Shutdown()
	if count.Load() != N {
		t.Fatalf("executed %d, want %d", count.Load(), N)
	}
}

// TestConfigPresets checks the exported preset constructors and scheduler
// constants survive the alias layer.
func TestConfigPresets(t *testing.T) {
	o := ttg.OriginalConfig(2)
	if o.Sched != ttg.SchedLFQ {
		t.Fatal("OriginalConfig should select LFQ")
	}
	p := ttg.OptimizedConfig(2)
	if p.Sched != ttg.SchedLLP || !p.ThreadLocalTermDet || !p.BiasedRWLock {
		t.Fatal("OptimizedConfig wrong")
	}
	if ttg.SchedLL.String() != "LL" {
		t.Fatal("SchedKind alias broken")
	}
}

// TestKeyHelpers exercises the re-exported packers.
func TestKeyHelpers(t *testing.T) {
	if a, b := ttg.Unpack2(ttg.Pack2(1, 2)); a != 1 || b != 2 {
		t.Fatal("Pack2 alias broken")
	}
	if a, b, c := ttg.Unpack3(ttg.Pack3(1, 2, 3)); a != 1 || b != 2 || c != 3 {
		t.Fatal("Pack3 alias broken")
	}
	f, n, x, y, z := ttg.Unpack4D(ttg.Pack4D(1, 2, 3, 4, 5))
	if f != 1 || n != 2 || x != 3 || y != 4 || z != 5 {
		t.Fatal("Pack4D alias broken")
	}
}
