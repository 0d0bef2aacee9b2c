package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/rt"
)

// buildTreeWithJoins wires the fault-tolerance stress topology: a binary
// tree of "node" tasks (heap-numbered keys 1..n) where every node also feeds
// a two-input "join" — slot 0 from node(k) itself, slot 1 from its parent.
// A clean run executes exactly 2n tasks; when a node panics, the joins of
// its subtree are left tabled with one input each, exercising the abort
// sweeper. All sends carry data so copy accounting is meaningful.
func buildTreeWithJoins(g *Graph, n uint64, shouldPanic func(key uint64) bool,
	nodes, joins *atomic.Int64) (node, join *TT) {
	eNode := NewEdge("children")
	eJ0 := NewEdge("self")
	eJ1 := NewEdge("parent")
	node = g.NewTT("node", 1, 3, func(tc TaskContext) {
		k := tc.Key()
		if shouldPanic(k) {
			panic(fmt.Sprintf("node %d failed", k))
		}
		nodes.Add(1)
		v := tc.Value(0).(int)
		tc.Send(1, k, v) // join(k) slot 0
		for _, c := range []uint64{2 * k, 2*k + 1} {
			if c <= n {
				tc.Send(0, c, v+1) // child node
				tc.Send(2, c, v)   // join(child) slot 1
			}
		}
	})
	join = g.NewTT("join", 2, 0, func(tc TaskContext) {
		joins.Add(1)
		_ = tc.Value(0).(int) + tc.Value(1).(int)
	})
	node.Out(0, eNode)
	node.Out(1, eJ0)
	node.Out(2, eJ1)
	eNode.To(node, 0)
	eJ0.To(join, 0)
	eJ1.To(join, 1)
	return node, join
}

func checkBalances(t *testing.T, g *Graph) {
	t.Helper()
	if got, put := g.Runtime().TaskBalance(); got != put {
		t.Errorf("task leak: got %d, put %d", got, put)
	}
	if got, put := g.Runtime().CopyBalance(); got != put {
		t.Errorf("copy leak: got %d, put %d", got, put)
	}
}

func TestOnePanicInTenThousandTaskGraph(t *testing.T) {
	// The acceptance scenario: a 10k-task graph (5000 nodes + 5000 joins)
	// where exactly one task body panics. Wait must return a TaskError
	// naming the TT and key, the workers must join, and task/copy accounting
	// must balance — nothing leaked by the drain or the sweeper.
	const n = 5000
	const badKey = 2500
	var nodes, joins atomic.Int64
	g := New(testCfg(4))
	node, join := buildTreeWithJoins(g, n, func(k uint64) bool { return k == badKey },
		&nodes, &joins)
	g.MakeExecutable()
	g.Invoke(node, 1, 100)
	g.InvokeInput(join, 1, 1, 100) // the root join's parent-side input
	err := g.Wait()

	if err == nil {
		t.Fatal("Wait() == nil after a task panic")
	}
	var te *rt.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Wait() = %v (%T), want *rt.TaskError", err, err)
	}
	if te.TTName != "node" || te.Key != badKey {
		t.Fatalf("TaskError names %s(key=%#x), want node(key=%#x)", te.TTName, te.Key, badKey)
	}
	if g.Err() != err {
		t.Fatal("Err() disagrees with Wait()")
	}
	// The panicking subtree must not have completed the whole graph.
	if nodes.Load() >= n {
		t.Fatalf("all %d nodes ran despite the panic", nodes.Load())
	}
	var panics int64
	for _, w := range g.Runtime().Workers() {
		panics += w.Stats.Panics.Load()
	}
	if panics != 1 {
		t.Fatalf("recorded %d panics, want 1", panics)
	}
	checkBalances(t, g)
}

func TestSoakRandomPanicsEverySchedulerAndTermDet(t *testing.T) {
	// The soak matrix: a deterministic pseudo-random ~3% of the node tasks
	// panic mid-graph; Wait must still return (with the error) on every
	// scheduler and in both termination-detection modes, with no leaks.
	const n = 2000
	shouldPanic := func(k uint64) bool {
		x := k * 0x9e3779b97f4a7c15
		x ^= x >> 29
		return x%31 == 0
	}
	victims := 0
	for k := uint64(1); k <= n; k++ {
		if shouldPanic(k) {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("bad test predicate: no panicking keys")
	}
	for _, sched := range []rt.SchedKind{rt.SchedLLP, rt.SchedLFQ, rt.SchedLL} {
		for _, tl := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/tl=%v", sched, tl), func(t *testing.T) {
				cfg := rt.Config{Workers: 4, Sched: sched, ThreadLocalTermDet: tl,
					UsePools: true, BundleReady: true}
				var nodes, joins atomic.Int64
				g := New(cfg)
				node, join := buildTreeWithJoins(g, n, shouldPanic, &nodes, &joins)
				g.MakeExecutable()
				g.Invoke(node, 1, 0)
				g.InvokeInput(join, 1, 1, 0)
				err := g.Wait()
				var te *rt.TaskError
				if !errors.As(err, &te) {
					t.Fatalf("Wait() = %v (%T), want *rt.TaskError", err, err)
				}
				if te.TTName != "node" || !shouldPanic(te.Key) {
					t.Fatalf("TaskError blames %s(key=%d), not a scripted victim", te.TTName, te.Key)
				}
				checkBalances(t, g)
			})
		}
	}
}

func TestAbortFromTaskBody(t *testing.T) {
	// A body calling TaskContext.Abort stops the graph: later chain links
	// are discarded, Wait returns the given error.
	const n = 500
	cause := errors.New("saw a NaN, bailing")
	var ran atomic.Int64
	g := New(testCfg(2))
	e := NewEdge("chain")
	tt := g.NewTT("link", 1, 1, func(tc TaskContext) {
		ran.Add(1)
		if tc.Key() == 50 {
			tc.Abort(cause)
			if !tc.Aborting() {
				t.Error("Aborting() false inside the aborting body")
			}
			return
		}
		if tc.Key() < n {
			tc.Send(0, tc.Key()+1, tc.Value(0).(int)+1)
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.Invoke(tt, 1, 0)
	err := g.Wait()
	if !errors.Is(err, cause) {
		t.Fatalf("Wait() = %v, want %v", err, cause)
	}
	if ran.Load() > 60 {
		t.Fatalf("%d links ran after the abort at 50", ran.Load())
	}
	checkBalances(t, g)
}

func TestAbortFromOutsideTerminatesRunningGraph(t *testing.T) {
	// An unbounded self-rescheduling chain is shut down by an external
	// Abort: Wait unblocks and reports the reason.
	cause := errors.New("operator cancelled")
	g := New(testCfg(2))
	e := NewEdge("forever")
	tt := g.NewTT("spin", 1, 1, func(tc TaskContext) {
		tc.Send(0, tc.Key()+1, tc.Value(0).(int))
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.Invoke(tt, 0, 7)
	errCh := make(chan error, 1)
	go func() { errCh <- g.Wait() }()
	time.Sleep(10 * time.Millisecond)
	g.Abort(cause)
	select {
	case err := <-errCh:
		if !errors.Is(err, cause) {
			t.Fatalf("Wait() = %v, want %v", err, cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not unblock after Abort")
	}
	if !g.Aborting() {
		t.Fatal("Aborting() false after Abort")
	}
	checkBalances(t, g)
}

func TestAbortNilErrorGetsDefault(t *testing.T) {
	g := New(testCfg(1))
	e := NewEdge("x")
	tt := g.NewTT("t", 1, 1, func(tc TaskContext) {})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.Abort(nil)
	if err := g.Wait(); err == nil || err.Error() != "ttg: graph aborted" {
		t.Fatalf("Wait() = %v, want the default abort error", err)
	}
}

func TestInvokeAfterAbortIsDropped(t *testing.T) {
	// Seeds racing an abort must be dropped silently (copy released), not
	// panic the seeding loop.
	g := New(testCfg(1))
	e := NewEdge("x")
	var ran atomic.Int64
	tt := g.NewTT("t", 1, 1, func(tc TaskContext) { ran.Add(1) })
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.Abort(errors.New("stop before seeding"))
	for k := uint64(0); k < 100; k++ {
		g.Invoke(tt, k, int(k))
	}
	if err := g.Wait(); err == nil {
		t.Fatal("Wait() == nil on an aborted graph")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d bodies ran after abort", ran.Load())
	}
	checkBalances(t, g)
}

// runSPMDErr is runSPMD plus a world-configuration hook (fault plans must be
// installed before any Proc starts) and per-rank Wait error collection.
func runSPMDErr(t *testing.T, ranks, workers int, configure func(w *comm.World),
	build func(g *Graph) (seed func())) []error {
	t.Helper()
	world := comm.NewWorld(ranks)
	if configure != nil {
		configure(world)
	}
	graphs := make([]*Graph, ranks)
	seeds := make([]func(), ranks)
	for r := 0; r < ranks; r++ {
		cfg := rt.OptimizedConfig(workers)
		cfg.PinWorkers = false
		graphs[r] = NewDistributed(cfg, world.Proc(r))
		seeds[r] = build(graphs[r])
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			graphs[r].MakeExecutable()
			seeds[r]()
			errs[r] = graphs[r].Wait()
		}(r)
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		checkBalances(t, graphs[r])
	}
	world.Shutdown()
	return errs
}

func TestDistributedChainUnderFaultPlan(t *testing.T) {
	// The cross-rank chain with >=10% of frames cutting their link, and
	// delays, on every link: the link layer's resends after the cuts must
	// hide all of it — exact task count, exact final value, clean
	// termination.
	const ranks = 4
	const N = 300
	var count atomic.Int64
	var lastVal atomic.Int64
	errs := runSPMDErr(t, ranks, 2, func(w *comm.World) {
		w.SetFaultPlan(comm.FaultPlan{Seed: 99, Drop: 0.12, Delay: 0.10})
	}, func(g *Graph) func() {
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
		return func() { g.Invoke(tt, 1, 1000) }
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d Wait() = %v on a healthy graph", r, err)
		}
	}
	if count.Load() != N {
		t.Fatalf("executed %d tasks, want %d (message lost or duplicated)", count.Load(), N)
	}
	if lastVal.Load() != 1000+N-1 {
		t.Fatalf("final value %d, want %d", lastVal.Load(), 1000+N-1)
	}
}

func TestDistributedPanicAbortsAllRanks(t *testing.T) {
	// A panic on whichever rank owns key 100 must abort every rank: the
	// owner reports the TaskError, the others the broadcast abort.
	const ranks = 3
	const N = 200
	errs := runSPMDErr(t, ranks, 2, nil, func(g *Graph) func() {
		e := NewEdge("chain")
		tt := g.NewTT("hop", 1, 1, func(tc TaskContext) {
			k := tc.Key()
			if k == 100 {
				panic("rank-local failure")
			}
			if k < N {
				tc.Send(0, k+1, tc.Value(0).(int)+1)
			}
		}).WithMapper(func(key uint64) int { return int(key % ranks) })
		tt.Out(0, e)
		e.To(tt, 0)
		return func() { g.Invoke(tt, 1, 0) }
	})
	owner := 100 % ranks
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d Wait() = nil; the abort did not propagate", r)
		}
		if r == owner {
			var te *rt.TaskError
			if !errors.As(err, &te) || te.Key != 100 {
				t.Fatalf("owner rank %d Wait() = %v, want a TaskError for key 100", r, err)
			}
		}
	}
}

func TestDistributedPanicUnderFaultPlan(t *testing.T) {
	// Worst of both: a task panic while the wire keeps cutting links —
	// including under the abort broadcast and the termination wave. Every
	// rank must still unblock with an error.
	const ranks = 3
	const N = 150
	errs := runSPMDErr(t, ranks, 2, func(w *comm.World) {
		w.SetFaultPlan(comm.FaultPlan{Seed: 7, Drop: 0.10, Delay: 0.20})
	}, func(g *Graph) func() {
		e := NewEdge("chain")
		tt := g.NewTT("hop", 1, 1, func(tc TaskContext) {
			k := tc.Key()
			if k == 60 {
				panic("mid-flight failure")
			}
			if k < N {
				tc.Send(0, k+1, tc.Value(0).(int)+1)
			}
		}).WithMapper(func(key uint64) int { return int(key % ranks) })
		tt.Out(0, e)
		e.To(tt, 0)
		return func() { g.Invoke(tt, 1, 0) }
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d Wait() = nil; abort lost on the faulty wire", r)
		}
	}
}

func TestWaitForConcurrentCallers(t *testing.T) {
	// Regression for the seed-guard bug: concurrent and repeated WaitFor
	// callers must release the seed guard exactly once; the graph still
	// terminates and later callers see completion, not a hang.
	g := New(testCfg(2))
	e := NewEdge("chain")
	tt := g.NewTT("link", 1, 1, func(tc TaskContext) {
		if k := tc.Key(); k < 200 {
			tc.SendControl(0, k+1)
		}
	})
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.InvokeControl(tt, 1)
	var wg sync.WaitGroup
	results := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix of instant timeouts (forcing the timer path) and generous
			// deadlines (the completion path).
			d := time.Nanosecond
			if i%2 == 0 {
				d = 10 * time.Second
			}
			results[i] = g.WaitFor(d)
		}(i)
	}
	wg.Wait()
	for i, err := range results {
		if i%2 == 0 && err != nil {
			t.Fatalf("caller %d: WaitFor(long) = %v on a clean graph", i, err)
		}
	}
	// After termination, further WaitFor calls return immediately and clean.
	if err := g.WaitFor(time.Nanosecond); err != nil {
		t.Fatalf("post-termination WaitFor = %v", err)
	}
	checkBalances(t, g)
}
