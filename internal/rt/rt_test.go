package rt

import (
	"sync/atomic"
	"testing"
	"time"
)

// runTasks executes n chained self-rescheduling tasks on a runtime with the
// given config and returns the runtime after completion.
func runCountdown(t *testing.T, cfg Config, n int64) *Runtime {
	t.Helper()
	r := New(cfg)
	var executed atomic.Int64
	r.BeginAction()
	r.Start(false)

	// Seed one task per worker; each execution re-discovers itself until the
	// shared budget is exhausted.
	var budget atomic.Int64
	budget.Store(n)
	exec := func(w *Worker, tk *Task) {
		executed.Add(1)
		if budget.Add(-1) > 0 {
			nt := w.NewTask()
			nt.Exec = tk.Exec
			w.Discovered()
			w.Schedule(nt)
		}
		w.Completed()
		w.FreeTask(tk)
	}
	for i := 0; i < cfg.Workers; i++ {
		tk := &Task{Exec: exec}
		r.BeginAction()
		r.Inject(tk)
	}
	r.EndAction()
	r.WaitDone()
	got := executed.Load()
	if got < n {
		t.Fatalf("executed %d tasks, want >= %d", got, n)
	}
	ex, _, _ := r.Stats()
	if ex != got {
		t.Fatalf("worker stats executed=%d, observed=%d", ex, got)
	}
	return r
}

func TestRuntimeCompletesAllConfigs(t *testing.T) {
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		for _, tl := range []bool{false, true} {
			cfg := Config{Workers: 4, Sched: sched, ThreadLocalTermDet: tl, UsePools: true}.Normalize()
			runCountdown(t, cfg, 20000)
		}
	}
}

func TestRuntimePresets(t *testing.T) {
	o := OriginalConfig(2)
	if o.Sched != SchedLFQ || o.ThreadLocalTermDet || o.BiasedRWLock {
		t.Fatalf("OriginalConfig wrong: %+v", o)
	}
	p := OptimizedConfig(2)
	if p.Sched != SchedLLP || !p.ThreadLocalTermDet || !p.BiasedRWLock {
		t.Fatalf("OptimizedConfig wrong: %+v", p)
	}
	if OptimizedConfig(0).Workers <= 0 {
		t.Fatal("Normalize did not default Workers")
	}
	if SchedLLP.String() != "LLP" || SchedLFQ.String() != "LFQ" || SchedLL.String() != "LL" {
		t.Fatal("SchedKind.String broken")
	}
}

func TestFanOutTree(t *testing.T) {
	// Binary tree of height H (the paper's §V-C pressure benchmark, small):
	// each non-leaf task discovers two successors.
	const H = 12
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		cfg := Config{Workers: 4, Sched: sched, ThreadLocalTermDet: true, UsePools: true}.Normalize()
		r := New(cfg)
		var executed atomic.Int64
		var exec ExecFn
		exec = func(w *Worker, tk *Task) {
			executed.Add(1)
			lvl := int32(tk.Priority) // abuse priority as level for the test
			if lvl < H {
				for c := 0; c < 2; c++ {
					nt := w.NewTask()
					nt.Exec = exec
					nt.Priority = lvl + 1
					w.Discovered()
					w.Schedule(nt)
				}
			}
			w.Completed()
			w.FreeTask(tk)
		}
		r.BeginAction()
		r.Start(false)
		root := &Task{Exec: exec, Priority: 0}
		r.BeginAction()
		r.Inject(root)
		r.EndAction()
		r.WaitDone()
		want := int64(1<<(H+1) - 1)
		if executed.Load() != want {
			t.Fatalf("%v: executed %d, want %d", sched, executed.Load(), want)
		}
	}
}

func TestPoolRecycling(t *testing.T) {
	cfg := Config{Workers: 1, UsePools: true}.Normalize()
	r := runCountdown(t, cfg, 10000)
	w := r.Workers()[0]
	if a := w.TaskPool.Allocs(); a > 16 {
		t.Fatalf("pool allocated %d tasks for a serial chain; recycling broken", a)
	}
}

func TestCopyLifecycle(t *testing.T) {
	cfg := Config{Workers: 1, UsePools: true}.Normalize()
	r := New(cfg)
	w := r.Workers()[0]
	c := w.NewCopy(42)
	if c.Refs() != 1 || c.Val.(int) != 42 {
		t.Fatalf("fresh copy state wrong: refs=%d val=%v", c.Refs(), c.Val)
	}
	c.Retain(w)
	if c.Refs() != 2 {
		t.Fatalf("refs=%d after retain", c.Refs())
	}
	c.Release(w)
	c.Release(w)
	if c.Val != nil {
		t.Fatal("copy payload not cleared at zero refs")
	}
	// Pool must hand the same object back.
	c2 := w.NewCopy("x")
	if c2 != c {
		t.Fatal("copy not recycled through the pool")
	}
}

func TestTaskInputSlots(t *testing.T) {
	var tk Task
	tk.SetNumInputs(MaxInlineInputs + 3)
	if tk.NumInputs() != MaxInlineInputs+3 {
		t.Fatalf("NumInputs = %d", tk.NumInputs())
	}
	cs := make([]*Copy, MaxInlineInputs+3)
	for i := range cs {
		cs[i] = &Copy{}
		tk.SetInput(i, cs[i])
	}
	for i := range cs {
		if tk.Input(i) != cs[i] {
			t.Fatalf("input %d mismatch", i)
		}
	}
	tk.reset()
	if tk.NumInputs() != 0 || tk.Input(0) != nil {
		t.Fatal("reset left inputs behind")
	}
}

func TestArmAndSatisfyDeps(t *testing.T) {
	cfg := Config{Workers: 1}.Normalize()
	r := New(cfg)
	w := r.Workers()[0]
	var tk Task
	tk.ArmDeps(3)
	if tk.SatisfyDep(w, 1) {
		t.Fatal("eligible after 1/3")
	}
	if tk.SatisfyDep(w, 1) {
		t.Fatal("eligible after 2/3")
	}
	if !tk.SatisfyDep(w, 1) {
		t.Fatal("not eligible after 3/3")
	}
	tk.ArmDeps(5)
	if !tk.SatisfyDep(w, 5) {
		t.Fatal("bulk satisfy failed")
	}
}

func TestAtomicCounting(t *testing.T) {
	cfg := Config{Workers: 1, CountAtomics: true, UsePools: true}.Normalize()
	r := runCountdown(t, cfg, 1000)
	a := r.Atomics()
	if a.Sched == 0 {
		t.Fatal("no scheduler atomics recorded with CountAtomics on")
	}
	// Process-mode termination detection must record RMWs...
	if !cfg.ThreadLocalTermDet && a.TermDet == 0 {
		t.Fatal("no termdet atomics recorded in process mode")
	}
	// ...and instrumentation off must record nothing.
	r2 := runCountdown(t, Config{Workers: 1, UsePools: true}.Normalize(), 1000)
	a2 := r2.Atomics()
	if a2.Total() != 0 {
		t.Fatal("atomics recorded with CountAtomics off")
	}
}

func TestInjectFromExternalGoroutine(t *testing.T) {
	cfg := Config{Workers: 2, ThreadLocalTermDet: true, UsePools: true}.Normalize()
	r := New(cfg)
	var executed atomic.Int64
	exec := func(w *Worker, tk *Task) {
		executed.Add(1)
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	const n = 500
	for i := 0; i < n; i++ {
		r.BeginAction()
		r.Inject(&Task{Exec: exec})
	}
	r.EndAction()
	r.WaitDone()
	if executed.Load() != n {
		t.Fatalf("executed %d, want %d", executed.Load(), n)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	r.BeginAction()
	r.Start(false)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
		r.EndAction()
		r.WaitDone()
	}()
	r.Start(false)
}

func TestWorkerParkAndWake(t *testing.T) {
	// Force parking quickly, then inject late work: the Injects must wake
	// the parked workers, and the run must terminate.
	cfg := Config{Workers: 2, Sched: SchedLLP, ThreadLocalTermDet: true,
		UsePools: true}.Normalize()
	r := New(cfg)
	var executed atomic.Int64
	exec := func(w *Worker, tk *Task) {
		executed.Add(1)
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	// Let the workers park: with no sibling running, an idle worker blocks
	// on the runtime's wake channel at once.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 32; i++ {
		r.BeginAction()
		r.Inject(&Task{Exec: exec})
	}
	r.EndAction()
	r.WaitDone()
	if executed.Load() != 32 {
		t.Fatalf("executed %d, want 32", executed.Load())
	}
}
