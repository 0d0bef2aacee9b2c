package rt

import (
	"sync/atomic"

	"gottg/internal/hashtable"
)

// MaxInlineInputs is how many input data slots a task holds without a spill
// allocation. The paper's latency study uses up to 6 flows (Fig. 5).
const MaxInlineInputs = 8

// ExecFn is a task's executable body wrapper. Frontends (TTG, PTG, raw
// benchmarks) install it; it must perform all post-execution housekeeping
// (releasing inputs, freeing the task, recording completion).
type ExecFn func(w *Worker, t *Task)

// Task is a runtime task instance. Task objects are recycled through
// per-worker pools; all fields are reset by the pool on reuse.
//
// The embedded hashtable.Entry lets a pending (not yet eligible) task sit in
// a template task's discovery hash table without a separate allocation.
type Task struct {
	next *Task // intrusive link: scheduler queues and pool free lists

	// Entry is the task's discovery-hash-table linkage; Entry's key is the
	// task key, Entry.Val points back to the Task while tabled.
	Entry hashtable.Entry

	// Exec runs the task. Set by the frontend before scheduling.
	Exec ExecFn

	// TT points at the frontend's template-task descriptor.
	TT any

	// Priority orders execution (higher runs earlier) in priority-aware
	// schedulers.
	Priority int32

	// Flags is frontend-owned per-task state (TTG uses it as a bitmask of
	// moved input slots).
	Flags uint32

	// deps counts input dependencies still unsatisfied. It becomes
	// meaningful after the frontend arms it with ArmDeps. It is a plain
	// int32 so that arming and reset are plain writes; once the task is
	// shared, it is only touched through atomic.AddInt32/LoadInt32.
	deps int32

	// nIn is the number of input slots in use.
	nIn int32

	inputs [MaxInlineInputs]*Copy
	extra  []*Copy // spill for tasks with more than MaxInlineInputs inputs

	// span is the causal trace record (nil unless EnableCausalTracing).
	span *taskSpan

	pool *Pool // owning pool, nil if heap-allocated
}

// Key returns the task's key.
func (t *Task) Key() uint64 { return t.Entry.Key() }

// SetKey sets the task's key.
func (t *Task) SetKey(k uint64) { t.Entry.SetKey(k) }

// SetNumInputs declares how many input slots the task uses.
func (t *Task) SetNumInputs(n int) {
	t.nIn = int32(n)
	if n > MaxInlineInputs && cap(t.extra) < n-MaxInlineInputs {
		t.extra = make([]*Copy, n-MaxInlineInputs)
	} else if n > MaxInlineInputs {
		t.extra = t.extra[:n-MaxInlineInputs]
	}
}

// NumInputs returns the declared input count.
func (t *Task) NumInputs() int { return int(t.nIn) }

// Input returns input slot i.
func (t *Task) Input(i int) *Copy {
	if i < MaxInlineInputs {
		return t.inputs[i]
	}
	return t.extra[i-MaxInlineInputs]
}

// SetInput stores a copy into input slot i. Synchronization is the caller's
// concern (hash-table bucket lock or single-owner access).
func (t *Task) SetInput(i int, c *Copy) {
	if i < MaxInlineInputs {
		t.inputs[i] = c
		return
	}
	t.extra[i-MaxInlineInputs] = c
}

// ArmDeps initializes the dependence counter to n. The write is plain: it
// must happen before the task is shared, and whatever shares it (the bucket
// lock around NoLockInsert, a scheduler push) publishes the value.
func (t *Task) ArmDeps(n int32) { t.deps = n }

// SatisfyDep atomically consumes n dependencies and reports whether the task
// became eligible (counter reached zero). One atomic RMW — the N_IP term of
// Eq. 1.
func (t *Task) SatisfyDep(w *Worker, n int32) bool {
	w.countAtomic(&w.Atomics.Input)
	return atomic.AddInt32(&t.deps, -n) == 0
}

// Deps returns the current dependence counter (diagnostics).
func (t *Task) Deps() int32 { return atomic.LoadInt32(&t.deps) }

// reset clears a task for reuse, keeping capacity.
func (t *Task) reset() {
	t.next = nil
	t.Entry.Reset()
	t.Exec = nil
	t.TT = nil
	t.Priority = 0
	t.Flags = 0
	t.deps = 0
	t.nIn = 0
	t.inputs = [MaxInlineInputs]*Copy{}
	t.extra = t.extra[:0]
	t.span = nil
}

// Copy is a reference-counted data copy flowing along graph edges — the
// runtime's unit of data lifetime management (§IV-E). Val usually holds a
// pointer to user data; ownership moves between tasks without copying when
// the frontend requests move semantics.
type Copy struct {
	// refs is plain so that NewCopy sets it with a plain write before the
	// copy is shared; afterwards only atomic.AddInt32/LoadInt32 touch it.
	refs int32
	next *Copy // pool free-list link

	// Val is the payload.
	Val any

	pool *copyPool
}

// Retain adds a reference (one atomic RMW; half the N_IC term of Eq. 1).
// Retaining a copy that was already released to zero is a lifetime bug —
// the copy may be back in a pool, or re-issued with another value — so it
// panics; the check reads the value the atomic returns anyway.
func (c *Copy) Retain(w *Worker) {
	w.countAtomic(&w.Atomics.CopyRef)
	if atomic.AddInt32(&c.refs, 1) == 1 {
		panic("rt: Retain of a released copy")
	}
}

// Release drops a reference; at zero the copy returns to the releasing
// worker's pool (cross-pool returns are handled by the pool itself).
// Releasing more references than were taken panics.
func (c *Copy) Release(w *Worker) {
	w.countAtomic(&w.Atomics.CopyRef)
	refs := atomic.AddInt32(&c.refs, -1)
	if refs < 0 {
		panic("rt: Release of a released copy")
	}
	if refs == 0 {
		w.tally(&w.tallies.copiesPut, &w.Stats.CopiesPut)
		c.Val = nil
		if c.pool != nil {
			c.pool.put(w, c)
		}
	}
}

// Refs returns the current reference count (diagnostics).
func (c *Copy) Refs() int32 { return atomic.LoadInt32(&c.refs) }
