package core

import (
	"sync/atomic"
	"testing"

	"gottg/internal/rt"
)

func testCfg(workers int) rt.Config {
	c := rt.OptimizedConfig(workers)
	c.PinWorkers = false // plays nicer with the race detector on small hosts
	return c
}

// waitOK waits for g and fails the test on the error Wait returns, such as
// a task body's panic. It may run on any goroutine.
func waitOK(t testing.TB, g *Graph) {
	t.Helper()
	if err := g.Wait(); err != nil {
		t.Errorf("Wait: %v", err)
	}
}

func TestChainPipeline(t *testing.T) {
	// A -> B -> C pipeline moving an accumulating integer.
	g := New(testCfg(2))
	eAB := NewEdge("ab")
	eBC := NewEdge("bc")
	var final atomic.Int64
	a := g.NewTT("A", 1, 1, func(tc TaskContext) {
		v := tc.Value(0).(int)
		tc.Send(0, tc.Key(), v+1)
	})
	b := g.NewTT("B", 1, 1, func(tc TaskContext) {
		v := tc.Value(0).(int)
		tc.Send(0, tc.Key(), v*10)
	})
	c := g.NewTT("C", 1, 0, func(tc TaskContext) {
		final.Add(int64(tc.Value(0).(int)))
	})
	a.Out(0, eAB)
	b.Out(0, eBC)
	eAB.To(b, 0)
	eBC.To(c, 0)
	g.MakeExecutable()
	g.Invoke(a, 7, 4)
	waitOK(t, g)
	if got := final.Load(); got != 50 {
		t.Fatalf("final = %d, want 50 ((4+1)*10)", got)
	}
}

func TestChainOfNTasksMove(t *testing.T) {
	// Self-edge chain: task k sends (move) to task k+1 until N.
	const N = 10000
	g := New(testCfg(1))
	e := NewEdge("loop")
	var count atomic.Int64
	pt := g.NewTT("point", 1, 1, func(tc TaskContext) {
		count.Add(1)
		if k := tc.Key(); k < N {
			tc.SendInput(0, k+1, 0)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	g.Invoke(pt, 1, 42)
	waitOK(t, g)
	if count.Load() != N {
		t.Fatalf("executed %d, want %d", count.Load(), N)
	}
}

func TestMultiFlowChain(t *testing.T) {
	// N independent flows between consecutive tasks (the Fig. 5 shape):
	// forces the hash-table path for flows >= 2.
	for _, flows := range []int{1, 2, 3, 6} {
		for _, bypass := range []bool{true, false} {
			cfg := testCfg(1)
			cfg.HTBypassSingleInput = bypass
			g := New(cfg)
			edges := make([]*Edge, flows)
			var count atomic.Int64
			const N = 2000
			pt := g.NewTT("point", flows, flows, func(tc TaskContext) {
				count.Add(1)
				for f := 0; f < flows; f++ {
					if tc.Value(f).(int) != f {
						t.Errorf("flow %d carried %v", f, tc.Value(f))
						return
					}
				}
				if k := tc.Key(); k < N {
					for f := 0; f < flows; f++ {
						tc.SendInput(f, k+1, f)
					}
				}
			})
			for f := 0; f < flows; f++ {
				edges[f] = NewEdge("flow")
				pt.Out(f, edges[f])
				edges[f].To(pt, f)
			}
			g.MakeExecutable()
			for f := 0; f < flows; f++ {
				g.InvokeInput(pt, f, 1, f)
			}
			waitOK(t, g)
			if count.Load() != N {
				t.Fatalf("flows=%d bypass=%v: executed %d, want %d", flows, bypass, count.Load(), N)
			}
		}
	}
}

func TestBinaryTreeControlFlow(t *testing.T) {
	// The §V-C pressure benchmark shape: pure control flow, single input,
	// each non-leaf discovers two successors. Key packs (level, index).
	const H = 14
	for _, sched := range []rt.SchedKind{rt.SchedLLP, rt.SchedLFQ, rt.SchedLL} {
		cfg := testCfg(4)
		cfg.Sched = sched
		g := New(cfg)
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
		waitOK(t, g)
		want := int64(1<<(H+1) - 1)
		if count.Load() != want {
			t.Fatalf("%v: executed %d, want %d", sched, count.Load(), want)
		}
	}
}

func TestDiamondJoin(t *testing.T) {
	// A fans out to B and C; D joins both inputs. Exercises two-input
	// discovery through the hash table from concurrent producers.
	g := New(testCfg(4))
	eAB, eAC := NewEdge("ab"), NewEdge("ac")
	eBD, eCD := NewEdge("bd"), NewEdge("cd")
	var got atomic.Int64
	const N = 500
	a := g.NewTT("A", 1, 2, func(tc TaskContext) {
		v := tc.Value(0).(int)
		tc.Send(0, tc.Key(), v+1)
		tc.Send(1, tc.Key(), v+2)
	})
	bf := func(tc TaskContext) {
		tc.SendInput(0, tc.Key(), 0)
	}
	b := g.NewTT("B", 1, 1, bf)
	c := g.NewTT("C", 1, 1, bf)
	d := g.NewTT("D", 2, 0, func(tc TaskContext) {
		sum := tc.Value(0).(int) + tc.Value(1).(int)
		got.Add(int64(sum))
	})
	a.Out(0, eAB).Out(1, eAC)
	eAB.To(b, 0)
	eAC.To(c, 0)
	b.Out(0, eBD)
	c.Out(0, eCD)
	eBD.To(d, 0)
	eCD.To(d, 1)
	g.MakeExecutable()
	var want int64
	for k := uint64(0); k < N; k++ {
		g.Invoke(a, k, int(k))
		want += int64(2*k + 3)
	}
	waitOK(t, g)
	if got.Load() != want {
		t.Fatalf("sum = %d, want %d", got.Load(), want)
	}
	if d.TasksCreated() != N {
		t.Fatalf("D created %d tasks, want %d", d.TasksCreated(), N)
	}
}

func TestEdgeFanout(t *testing.T) {
	// One edge feeding two different TTs: both must receive the datum, and
	// the copy must be shared (same underlying value), not duplicated.
	g := New(testCfg(2))
	e := NewEdge("fan")
	var x, y atomic.Int64
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		tc.SendInput(0, tc.Key(), 0)
	})
	t1 := g.NewTT("t1", 1, 0, func(tc TaskContext) { x.Add(int64(tc.Value(0).(int))) })
	t2 := g.NewTT("t2", 1, 0, func(tc TaskContext) { y.Add(int64(tc.Value(0).(int))) })
	src.Out(0, e)
	e.To(t1, 0).To(t2, 0)
	g.MakeExecutable()
	g.Invoke(src, 1, 21)
	waitOK(t, g)
	if x.Load() != 21 || y.Load() != 21 {
		t.Fatalf("fanout: got (%d,%d), want (21,21)", x.Load(), y.Load())
	}
}

func TestAggregatorTerminal(t *testing.T) {
	// A reducer that aggregates K items per key, from concurrent senders.
	const K = 16
	const keys = 64
	g := New(testCfg(4))
	eIn := NewEdge("in")
	eAgg := NewEdge("agg")
	var sums [keys]int64
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		key, i := Unpack2(tc.Key())
		tc.Send(0, uint64(key), int(i))
	})
	red := g.NewTT("reduce", 1, 0, func(tc TaskContext) {
		agg := tc.Aggregate(0)
		if agg.Len() != K {
			t.Errorf("key %d: aggregated %d items, want %d", tc.Key(), agg.Len(), K)
			return
		}
		var s int64
		for i := 0; i < agg.Len(); i++ {
			s += int64(agg.Value(i).(int))
		}
		atomic.StoreInt64(&sums[tc.Key()], s)
	}).WithAggregator(0, func(key uint64) int { return K })
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	_ = eAgg
	g.MakeExecutable()
	for k := 0; k < keys; k++ {
		for i := 0; i < K; i++ {
			g.InvokeControl(feeder, Pack2(uint32(k), uint32(i)))
		}
	}
	waitOK(t, g)
	want := int64(K * (K - 1) / 2)
	for k := 0; k < keys; k++ {
		if sums[k] != want {
			t.Fatalf("key %d: sum %d, want %d", k, sums[k], want)
		}
	}
}

func TestPrioritiesSteerOrder(t *testing.T) {
	// Single worker: among simultaneously eligible tasks, the LLP scheduler
	// must run higher-priority tasks first.
	cfg := testCfg(1)
	g := New(cfg)
	e := NewEdge("e")
	var order []uint64
	gate := g.NewTT("gate", 1, 1, func(tc TaskContext) {
		// Release 8 tasks at once; they queue while this body runs.
		for k := uint64(1); k <= 8; k++ {
			tc.SendControl(0, k)
		}
	})
	work := g.NewTT("work", 1, 0, func(tc TaskContext) {
		order = append(order, tc.Key())
	}).WithPriority(func(key uint64) int32 { return int32(key) })
	gate.Out(0, e)
	e.To(work, 0)
	g.MakeExecutable()
	g.InvokeControl(gate, 0)
	waitOK(t, g)
	if len(order) != 8 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] > order[i-1] {
			t.Fatalf("priority order violated: %v", order)
		}
	}
}

func TestMoveVsCopyRefcounts(t *testing.T) {
	// Move semantics must forward the same copy; copy semantics must create
	// a fresh one.
	g := New(testCfg(1))
	eMv, eCp := NewEdge("mv"), NewEdge("cp")
	var moved, copied *rt.Copy
	var orig *rt.Copy
	src := g.NewTT("src", 1, 2, func(tc TaskContext) {
		orig = tc.InputCopy(0)
		tc.SendInput(0, 1, 0) // move
		tc.Send(1, 1, tc.Value(0))
	})
	dm := g.NewTT("dm", 1, 0, func(tc TaskContext) { moved = tc.InputCopy(0) })
	dc := g.NewTT("dc", 1, 0, func(tc TaskContext) { copied = tc.InputCopy(0) })
	src.Out(0, eMv).Out(1, eCp)
	eMv.To(dm, 0)
	eCp.To(dc, 0)
	g.MakeExecutable()
	g.Invoke(src, 0, 5)
	waitOK(t, g)
	if moved != orig {
		t.Fatal("move created a new copy")
	}
	if copied == orig {
		t.Fatal("copy forwarded the original")
	}
}

func TestGraphLifecyclePanics(t *testing.T) {
	g := New(testCfg(1))
	tt := g.NewTT("x", 1, 1, func(TaskContext) {})
	e := NewEdge("e")
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewTT after freeze", func() { g.NewTT("y", 1, 0, func(TaskContext) {}) })
	mustPanic("Out after freeze", func() { tt.Out(0, e) })
	mustPanic("To after freeze", func() { e.To(tt, 0) })
	g.InvokeControl(tt, 1<<40) // key > chain end; runs one task (sends nothing? it sends nothing)
	waitOK(t, g)
	mustPanic("Invoke after Wait", func() { g.InvokeControl(tt, 2) })
	mustPanic("double Wait", func() { g.Wait() })
}

func TestKeyPacking(t *testing.T) {
	a, b := Unpack2(Pack2(0xdeadbeef, 0xcafebabe))
	if a != 0xdeadbeef || b != 0xcafebabe {
		t.Fatal("Pack2 roundtrip failed")
	}
	x, y, z := Unpack3(Pack3(0x1234, 0xabcdef, 0xfedcba))
	if x != 0x1234 || y != 0xabcdef || z != 0xfedcba {
		t.Fatal("Pack3 roundtrip failed")
	}
	f, n, i, j, k := Unpack4D(Pack4D(200, 19, 0x1aaaa, 0x0bbbb, 0x1cccc))
	if f != 200 || n != 19 || i != 0x1aaaa || j != 0x0bbbb || k != 0x1cccc {
		t.Fatalf("Pack4D roundtrip failed: %d %d %x %x %x", f, n, i, j, k)
	}
}

func TestOriginalConfigRuns(t *testing.T) {
	// The "original TTG" preset (LFQ + process counters + plain RW lock)
	// must produce identical results.
	cfg := rt.OriginalConfig(4)
	cfg.PinWorkers = false
	g := New(cfg)
	e := NewEdge("t")
	var count atomic.Int64
	tt := g.NewTT("node", 1, 1, func(tc TaskContext) {
		count.Add(1)
		lvl, idx := Unpack2(tc.Key())
		if lvl < 10 {
			tc.SendControl(0, Pack2(lvl+1, idx*2))
			tc.SendControl(0, Pack2(lvl+1, idx*2+1))
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.InvokeControl(tt, 0)
	waitOK(t, g)
	if count.Load() != 1<<11-1 {
		t.Fatalf("executed %d", count.Load())
	}
}
