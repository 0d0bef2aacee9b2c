// Package ptg is a Parameterized Task Graph frontend over the gottg runtime
// — the analogue of PaRSEC PTG in the paper's Task-Bench comparison. Unlike
// TTG, the dataflow is declared algebraically: each task class knows, from
// the key alone, how many activations a task instance requires; bodies
// activate successors directly (control flow), with data passed through
// user-managed memory. The optimizations of this paper (LLP scheduler,
// thread-local termination detection, biased resize lock) apply to PTG as
// well — matching the paper's "PaRSEC PTG (optimized)" vs "(orig)" curves.
package ptg

import (
	"fmt"

	"gottg/internal/hashtable"
	"gottg/internal/rt"
)

// Body executes a task instance of a class.
type Body func(c Ctx, key uint64)

// Class is a task class: a parameterized description of a family of tasks.
type Class struct {
	g    *Graph
	id   int
	name string
	body Body

	// NumDeps returns the number of activations task `key` must receive
	// before running (must be >= 1).
	numDeps func(key uint64) int
	prioFn  func(key uint64) int32

	ht *hashtable.Table
}

// Graph is a PTG program bound to a runtime.
type Graph struct {
	cfg     rt.Config
	rtm     *rt.Runtime
	classes []*Class
	frozen  bool
	waited  bool
}

// New creates a PTG graph with its own runtime.
func New(cfg rt.Config) *Graph {
	return &Graph{cfg: cfg.Normalize(), rtm: rt.New(cfg)}
}

// Runtime exposes the underlying runtime.
func (g *Graph) Runtime() *rt.Runtime { return g.rtm }

// NewClass declares a task class. numDeps gives the activation count per
// key; pass nil for always-1 (immediately runnable on first activation).
func (g *Graph) NewClass(name string, numDeps func(key uint64) int, body Body) *Class {
	if g.frozen {
		panic("ptg: graph already executable")
	}
	c := &Class{g: g, id: len(g.classes), name: name, body: body, numDeps: numDeps}
	g.classes = append(g.classes, c)
	return c
}

// WithPriority installs a per-key priority function.
func (c *Class) WithPriority(fn func(key uint64) int32) *Class {
	c.prioFn = fn
	return c
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// MakeExecutable freezes the program and starts the workers.
func (g *Graph) MakeExecutable() {
	if g.frozen {
		panic("ptg: MakeExecutable called twice")
	}
	g.frozen = true
	for _, c := range g.classes {
		if c.numDeps != nil {
			c.ht = g.rtm.NewTable()
		}
	}
	g.rtm.BeginAction()
	g.rtm.Start(false)
}

// Ctx is the execution context passed to bodies (by value; it is two words).
type Ctx struct {
	w *rt.Worker
	g *Graph
}

// Worker returns the executing worker.
func (c Ctx) Worker() *rt.Worker { return c.w }

// Activate delivers one activation to task `key` of class cl; when the
// key's activation count is reached the task becomes eligible. Single-
// activation classes schedule directly without touching the hash table.
func (c Ctx) Activate(cl *Class, key uint64) {
	cl.activate(c.w, key)
}

func (cl *Class) activate(w *rt.Worker, key uint64) {
	if cl.numDeps == nil {
		t := cl.newTask(w, key, 1)
		w.Discovered()
		w.Schedule(t)
		return
	}
	slot := w.HTSlot()
	w.CountBucketLock()
	cl.ht.LockKey(slot, key)
	var t *rt.Task
	if e := cl.ht.NoLockFind(key); e != nil {
		t = e.Val.(*rt.Task)
	} else {
		need := cl.numDeps(key)
		if need < 1 {
			cl.ht.UnlockKey(slot, key)
			panic(fmt.Sprintf("ptg: class %s key %d needs %d activations", cl.name, key, need))
		}
		t = cl.newTask(w, key, int32(need))
		t.Entry.Val = t
		w.Discovered()
		cl.ht.NoLockInsert(slot, &t.Entry)
	}
	ready := t.SatisfyDep(w, 1)
	if ready {
		cl.ht.NoLockRemove(key)
	}
	cl.ht.UnlockKey(slot, key)
	if ready {
		w.Schedule(t)
	}
}

func (cl *Class) newTask(w *rt.Worker, key uint64, deps int32) *rt.Task {
	t := w.NewTask()
	t.TT = cl
	t.SetKey(key)
	t.Exec = ptgExecute
	if cl.prioFn != nil {
		t.Priority = cl.prioFn(key)
	}
	t.ArmDeps(deps)
	return t
}

func ptgExecute(w *rt.Worker, t *rt.Task) {
	cl := t.TT.(*Class)
	cl.body(Ctx{w: w, g: cl.g}, t.Key())
	w.Completed()
	w.FreeTask(t)
}

// Invoke seeds an activation from the main goroutine.
func (g *Graph) Invoke(cl *Class, key uint64) {
	if !g.frozen || g.waited {
		panic("ptg: Invoke outside MakeExecutable..Wait window")
	}
	cl.activate(g.rtm.ServiceWorker(0), key)
}

// Wait blocks until all tasks have executed.
func (g *Graph) Wait() {
	if g.waited {
		panic("ptg: Wait called twice")
	}
	g.waited = true
	g.rtm.EndAction()
	g.rtm.WaitDone()
}
