package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/rt"
)

// buildDiamondChain wires the ordering-test DAG on g:
//
//	A ──> B ──> C ──> D      (a depth-3 chain)
//	└───> E                  (a depth-1 leaf)
//
// and returns the slices the bodies append (name, priority) pairs to.
func buildDiamondChain(g *Graph) (order *[]string, prios *map[string]int32) {
	var mu sync.Mutex
	o := []string{}
	p := map[string]int32{}
	note := func(tc TaskContext, name string) {
		mu.Lock()
		o = append(o, name)
		p[name] = tc.Priority()
		mu.Unlock()
	}
	eAB, eAE := NewEdge("ab"), NewEdge("ae")
	eBC, eCD := NewEdge("bc"), NewEdge("cd")
	a := g.NewTT("A", 1, 2, func(tc TaskContext) {
		note(tc, "A")
		tc.SendControl(0, tc.Key())
		tc.SendControl(1, tc.Key())
	})
	b := g.NewTT("B", 1, 1, func(tc TaskContext) {
		note(tc, "B")
		tc.SendControl(0, tc.Key())
	})
	c := g.NewTT("C", 1, 1, func(tc TaskContext) {
		note(tc, "C")
		tc.SendControl(0, tc.Key())
	})
	d := g.NewTT("D", 1, 0, func(tc TaskContext) { note(tc, "D") })
	e := g.NewTT("E", 1, 0, func(tc TaskContext) { note(tc, "E") })
	a.Out(0, eAB)
	a.Out(1, eAE)
	b.Out(0, eBC)
	c.Out(0, eCD)
	eAB.To(b, 0)
	eAE.To(e, 0)
	eBC.To(c, 0)
	eCD.To(d, 0)
	return &o, &p
}

// TestBottomLevelPriorityOrdering checks the online estimator end to end on
// one worker: the static template seed must rank the deep chain above the
// shallow leaf, and both priority-aware schedulers must execute in that
// order. With no observations (5 tasks < the 1-in-32 sample period) the
// priorities are exactly the static bottom-levels in units of defaultBodyNs.
func TestBottomLevelPriorityOrdering(t *testing.T) {
	for _, sched := range []rt.SchedKind{rt.SchedLLP, rt.SchedLFQ} {
		cfg := testCfg(1)
		cfg.Sched = sched
		cfg.AutoPriority = true
		g := New(cfg)
		order, prios := buildDiamondChain(g)
		g.MakeExecutable()
		g.InvokeControl(g.tts[0], 1)
		waitOK(t, g)

		if len(*order) != 5 {
			t.Fatalf("%v: executed %v, want 5 tasks", sched, *order)
		}
		pos := map[string]int{}
		for i, n := range *order {
			pos[n] = i
		}
		// B (bottom-level 3·defaultBodyNs) and C (2·defaultBodyNs) outrank
		// the leaf E (1·defaultBodyNs), so the single worker must run the
		// chain's head before the leaf. D ties E; their order is free.
		if pos["B"] > pos["E"] || pos["C"] > pos["E"] {
			t.Fatalf("%v: order %v, want B and C before E", sched, *order)
		}
		want := map[string]int32{"A": 4000, "B": 3000, "C": 2000, "D": 1000, "E": 1000}
		for n, w := range want {
			if got := (*prios)[n]; got != w {
				t.Fatalf("%v: priority[%s] = %d, want %d (static bottom-level)", sched, n, got, w)
			}
		}
	}
}

// TestPrioritySurvivesWire warms the sender-side estimator with slow bodies
// until a sampled observation raises the template task's bottom-level well
// above the static seed, then sends one activation to a rank that has never
// executed that TT. The received task must carry the sender's refined
// urgency (the activation-wire priority field + the receive-side hint), not
// the receiver's cold static estimate.
func TestPrioritySurvivesWire(t *testing.T) {
	const warm = 40          // executions on rank 0 (> the 32-tick sample period)
	const remoteKey = 100000 // mapped to rank 1
	const ranks = 2
	var got atomic.Int32
	world := comm.NewWorld(ranks)
	graphs := make([]*Graph, ranks)
	seeds := make([]func(), ranks)
	build := func(g *Graph) func() {
		e := NewEdge("chain")
		tt := g.NewTT("R", 1, 1, func(tc TaskContext) {
			k := tc.Key()
			if k >= remoteKey {
				got.Store(tc.Priority())
				return
			}
			t0 := time.Now()
			for time.Since(t0) < 30*time.Microsecond {
			}
			if k < warm {
				tc.SendControl(0, k+1)
			} else {
				tc.SendControl(0, remoteKey)
			}
		}).WithMapper(func(key uint64) int {
			if key >= remoteKey {
				return 1
			}
			return 0
		})
		tt.Out(0, e)
		e.To(tt, 0)
		return func() {
			g.InvokeControl(tt, 1) // only rank 0 keeps the seed
		}
	}
	for r := 0; r < ranks; r++ {
		cfg := testCfg(1)
		cfg.AutoPriority = true
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
	// R is a self-loop, so its bottom-level is just its body EWMA: 1000ns
	// static, ~4600ns after one 30µs sample. The receiver never ran R before
	// this task, so any value above the static seed proves the wire carried
	// the sender's estimate.
	if p := got.Load(); p <= 1500 {
		t.Fatalf("received task priority = %d, want > 1500 (sender's refined bottom-level)", p)
	}
}

// TestStolenRecordRoundTripPriority drives one task through the work-stealing
// donation codec and checks the priority field survives: encode writes it at
// the fixed header offset, inject rebuilds the task with it and the task
// executes locally.
func TestStolenRecordRoundTripPriority(t *testing.T) {
	g := New(testCfg(1))
	var gotPrio atomic.Int32
	var gotKey atomic.Uint64
	tt := g.NewTT("R", 1, 0, func(tc TaskContext) {
		gotPrio.Store(tc.Priority())
		gotKey.Store(tc.Key())
	})
	g.MakeExecutable()
	sw := g.Runtime().ServiceWorker(0)

	src := tt.newTask(sw, 7)
	src.Priority = 1234
	rec, err := g.encodeStolenTask(src)
	if err != nil {
		t.Fatal(err)
	}
	if p := int32(binary.LittleEndian.Uint32(rec[20:])); p != 1234 {
		t.Fatalf("encoded priority = %d, want 1234", p)
	}
	g.injectStolenTask(sw, 0, rec)
	waitOK(t, g)
	if gotKey.Load() != 7 || gotPrio.Load() != 1234 {
		t.Fatalf("injected task ran with key=%d prio=%d, want key=7 prio=1234",
			gotKey.Load(), gotPrio.Load())
	}
}
