package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/rt"
)

// buildStencil wires a 1-D stencil of width w and steps s: task (step, p)
// has key step*w+p and three input slots — 0 from p-1, 1 from p, 2 from
// p+1, an edge point feeding its own missing neighbour slot — so every task
// but the seeds is discovered through the hash table. body runs first in
// every task; ran counts executions. The returned seed invokes step 0.
func buildStencil(g *Graph, w, s uint64, body func(key uint64), ran *atomic.Int64) (tt *TT, seed func()) {
	eL, eC, eR := NewEdge("left"), NewEdge("centre"), NewEdge("right")
	tt = g.NewTT("stencil", 3, 3, func(tc TaskContext) {
		k := tc.Key()
		body(k)
		ran.Add(1)
		v := tc.Value(0).(int) + tc.Value(1).(int) + tc.Value(2).(int)
		step, p := k/w, k%w
		if step+1 == s {
			return
		}
		next := (step + 1) * w
		if p+1 < w {
			tc.Send(0, next+p+1, v)
		} else {
			tc.Send(2, next+p, v)
		}
		tc.Send(1, next+p, v)
		if p > 0 {
			tc.Send(2, next+p-1, v)
		} else {
			tc.Send(0, next+p, v)
		}
	})
	tt.Out(0, eL).Out(1, eC).Out(2, eR)
	eL.To(tt, 0)
	eC.To(tt, 1)
	eR.To(tt, 2)
	return tt, func() {
		for p := uint64(0); p < w; p++ {
			for slot := 0; slot < 3; slot++ {
				g.InvokeInput(tt, slot, p, 1)
			}
		}
	}
}

// checkTallies asserts what the combined lifetime tallies must show after
// Wait: both balances even and non-zero, and one task object per created
// instance.
func checkTallies(t *testing.T, g *Graph, tt *TT) {
	t.Helper()
	tg, tp := g.Runtime().TaskBalance()
	cg, cp := g.Runtime().CopyBalance()
	if tg != tp || tg == 0 {
		t.Errorf("rank %d: TaskBalance = (%d, %d), want an equal non-zero pair", g.Rank(), tg, tp)
	}
	if cg != cp || cg == 0 {
		t.Errorf("rank %d: CopyBalance = (%d, %d), want an equal non-zero pair", g.Rank(), cg, cp)
	}
	if n := tt.TasksCreated(); tg != n {
		t.Errorf("rank %d: TaskBalance got %d, want %d (TasksCreated)", g.Rank(), tg, n)
	}
}

// TestLifetimeTalliesAfterWait pins that executing workers publish their
// owner-private lifetime tallies by the time Wait returns — on a clean run,
// on an abort drain, and across ranks, where received copies are counted
// directly by service identity 1.
func TestLifetimeTalliesAfterWait(t *testing.T) {
	const w, s = 16, 24
	nop := func(uint64) {}
	newGraph := func() *Graph {
		cfg := rt.OptimizedConfig(2)
		cfg.PinWorkers = false
		return New(cfg)
	}

	t.Run("clean", func(t *testing.T) {
		g := newGraph()
		var ran atomic.Int64
		tt, seed := buildStencil(g, w, s, nop, &ran)
		g.MakeExecutable()
		seed()
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != w*s {
			t.Fatalf("ran %d tasks, want %d", ran.Load(), w*s)
		}
		checkTallies(t, g, tt)
		if got, _ := g.Runtime().TaskBalance(); got != w*s {
			t.Errorf("TaskBalance got %d, want the graph's %d tasks", got, w*s)
		}
	})

	t.Run("abort-drain", func(t *testing.T) {
		g := newGraph()
		var ran atomic.Int64
		bad := uint64(s/2*w + w/2)
		tt, seed := buildStencil(g, w, s, func(k uint64) {
			if k == bad {
				panic("intentional test panic")
			}
		}, &ran)
		g.MakeExecutable()
		seed()
		var te *rt.TaskError
		if err := g.Wait(); !errors.As(err, &te) {
			t.Fatalf("Wait = %v, want a *rt.TaskError", err)
		}
		if ran.Load() >= w*s {
			t.Fatalf("ran %d tasks, want fewer than %d after the abort", ran.Load(), w*s)
		}
		checkTallies(t, g, tt)
	})

	t.Run("two-ranks", func(t *testing.T) {
		var ran atomic.Int64
		tts := make([]*TT, 2)
		graphs := runSPMD(t, 2, 2, func(g *Graph) func() {
			tt, seed := buildStencil(g, w, s, nop, &ran)
			tt.WithMapper(func(k uint64) int { return int(k%w) * 2 / w })
			tts[g.Rank()] = tt
			return seed
		})
		if ran.Load() != w*s {
			t.Fatalf("ran %d tasks, want %d", ran.Load(), w*s)
		}
		var created int64
		for r, g := range graphs {
			checkTallies(t, g, tts[r])
			created += tts[r].TasksCreated()
			if n := g.Runtime().ServiceWorker(1).Stats.CopiesGot.Load(); n == 0 {
				t.Errorf("rank %d: service identity 1 counted no received copies", r)
			}
		}
		if created != w*s {
			t.Errorf("Σ TasksCreated = %d, want %d", created, w*s)
		}
	})
}

// TestTasksCreatedAcrossSlots pins that the per-identity created counters
// sum to every instance made: by the workers on a local run, and by the
// comm service identity when inter-rank stealing adopts a task.
func TestTasksCreatedAcrossSlots(t *testing.T) {
	t.Run("two-workers", func(t *testing.T) {
		const w, s = 16, 24
		cfg := rt.OptimizedConfig(2)
		cfg.PinWorkers = false
		g := New(cfg)
		var ran atomic.Int64
		tt, seed := buildStencil(g, w, s, func(uint64) {}, &ran)
		g.MakeExecutable()
		seed()
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := tt.TasksCreated(); n != ran.Load() || n != w*s {
			t.Fatalf("TasksCreated = %d, executed %d, want both %d", n, ran.Load(), w*s)
		}
	})

	t.Run("inter-rank-steal", func(t *testing.T) {
		// Every key lives on rank 1, whose bodies hold its only worker until
		// rank 0 has stolen something (or a deadline passes), so the seeds
		// queued behind the first body are there for the taking.
		const n = 64
		var ran atomic.Int64
		var thief atomic.Pointer[Graph]
		tts := make([]*TT, 2)
		graphs := runSPMD(t, 2, 1, func(g *Graph) func() {
			g.EnableWorkStealing()
			if g.Rank() == 0 {
				thief.Store(g)
			}
			rank := g.Rank()
			tt := g.NewTT("work", 1, 0, func(tc TaskContext) {
				ran.Add(1)
				if rank != 1 {
					return
				}
				for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
					if stolen, _, _ := thief.Load().StealStats(); stolen > 0 {
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}).WithMapper(func(uint64) int { return 1 })
			tts[g.Rank()] = tt
			return func() {
				for k := uint64(0); k < n; k++ {
					g.Invoke(tt, k, int(k))
				}
			}
		})
		stolen, _, _ := graphs[0].StealStats()
		if stolen == 0 {
			t.Fatal("rank 0 stole nothing")
		}
		if ran.Load() != n {
			t.Fatalf("executed %d instances, want %d", ran.Load(), n)
		}
		// A donated task was created at the victim, freed there, and created
		// again where it ran: each counts once per creation.
		var created, donated int64
		for r, g := range graphs {
			created += tts[r].TasksCreated()
			_, d, _ := g.StealStats()
			donated += d
		}
		if created != ran.Load()+donated {
			t.Errorf("Σ TasksCreated = %d, want %d executed + %d donated", created, ran.Load(), donated)
		}
		adopter := graphs[0].Runtime().ServiceWorker(1).HTSlot()
		if n := tts[0].created[adopter].V.Load(); n != stolen {
			t.Errorf("rank 0 service slot created %d, want the %d stolen", n, stolen)
		}
	})
}
