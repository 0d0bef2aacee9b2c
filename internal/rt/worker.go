package rt

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// AtomicCounts tallies atomic read-modify-write operations issued on behalf
// of tasks, by category, for validating the paper's Eq. 1 model. Counters
// are per-worker plain integers (owner-only) and only maintained when
// Config.CountAtomics is set.
type AtomicCounts struct {
	Pool    uint64 // task/copy free-list CAS traffic (N_OP)
	Input   uint64 // dependence-counter decrements (N_IP)
	CopyRef uint64 // copy retain/release (N_IC)
	Bucket  uint64 // hash-table bucket locks (N_ID)
	RWLock  uint64 // hash-table reader-lock RMWs (0 under BRAVO)
	Sched   uint64 // scheduler push/pop (N_S)
	TermDet uint64 // termination-detection counter RMWs
	Alloc   uint64 // heap allocations attributed to the allocator's sync
}

// Total sums all categories.
func (a *AtomicCounts) Total() uint64 {
	return a.Pool + a.Input + a.CopyRef + a.Bucket + a.RWLock + a.Sched + a.TermDet + a.Alloc
}

// add accumulates other into a.
func (a *AtomicCounts) add(o *AtomicCounts) {
	a.Pool += o.Pool
	a.Input += o.Input
	a.CopyRef += o.CopyRef
	a.Bucket += o.Bucket
	a.RWLock += o.RWLock
	a.Sched += o.Sched
	a.TermDet += o.TermDet
	a.Alloc += o.Alloc
}

// WorkerStats are per-worker execution statistics. Fields are atomics, so
// reads are safe from any goroutine at any time, which is what lets
// Runtime.Stats and the metrics endpoint poll a live run without a data
// race. Executed, Steals, Parks, Discarded and Panics are live: the owning
// worker adds to them as it goes. The four lifetime tallies are not: an
// executing worker counts them in plain owner-private fields and publishes
// them here before it goes idle and when it exits, so they are exact only
// once the workers have joined. Service identities add to them directly.
type WorkerStats struct {
	Executed atomic.Int64 // tasks executed from the scheduler
	Steals   atomic.Int64 // successful steals
	Parks    atomic.Int64 // times the worker blocked in park

	// Object-lifetime accounting: obtained versus fully released/freed.
	// Summed across workers after a run, got must equal put or the run
	// leaked objects — the invariant the fault-tolerance paths (abort
	// drain, panic cleanup) must preserve.
	TasksGot  atomic.Int64
	TasksPut  atomic.Int64
	CopiesGot atomic.Int64
	CopiesPut atomic.Int64

	Discarded atomic.Int64 // tasks disposed of without execution (abort drain)
	Panics    atomic.Int64 // task bodies that panicked and were isolated
}

// lifeTallies are WorkerStats' four lifetime counts, buffered.
type lifeTallies struct{ tasksGot, tasksPut, copiesGot, copiesPut int64 }

// Worker is one runtime execution thread. Worker methods must only be
// called from the worker's own goroutine unless documented otherwise.
//
// Runtimes also carry service workers (negative ID): non-executing worker
// identities used by the main goroutine (graph seeding) and the
// communication receive path, so those contexts get pools, accounting,
// and a BRAVO lock slot without participating in scheduling.
type Worker struct {
	ID int
	rt *Runtime

	// detSlot is the termination-detector cell index (ExternalSlot for
	// service workers); htSlot is the BRAVO reader-slot index.
	detSlot int
	htSlot  int

	TaskPool Pool
	copies   copyPool

	Atomics AtomicCounts
	Stats   WorkerStats

	// tallies buffers an executing worker's lifetime counts until
	// flushIdle moves them into Stats. Owner-goroutine only.
	tallies lifeTallies

	rngState uint64
	count    bool       // cached Config.CountAtomics
	mx       *rtMetrics // non-nil when Runtime.EnableMetrics was called
	mxTick   uint64     // task counter driving latency sampling
	victims  []int      // scratch for steal-order scans

	// loadBuf is the worker's combining buffer for the runtime's advertised
	// ready-depth counter: deltas accumulate worker-locally and flush to the
	// shared atomic in batches (or before idling), keeping the gauge off the
	// per-task fast path.
	loadBuf int64

	// Causal-tracing state: spanSeq allocates span ids, causeCtx is the
	// ambient producer context frontends set around deliveries (see
	// SetCauseCtx). Both owner-goroutine only.
	spanSeq  uint64
	causeCtx CauseCtx

	// deferred accumulates ready tasks during one execution when
	// Config.BundleReady is set; flushed as a sorted chain at task end.
	deferred     *Task
	deferredTail *Task
	nDeferred    int

	_ [32]byte // separate workers' hot fields
}

// HTSlot returns the worker's reader-lock slot for hash-table access.
func (w *Worker) HTSlot() int { return w.htSlot }

// IsService reports whether this is a non-executing service identity.
func (w *Worker) IsService() bool { return w.ID < 0 }

// countAtomic bumps an accounting category when instrumentation is on.
func (w *Worker) countAtomic(c *uint64) {
	if w.count {
		*c++
	}
}

// CountBucketLock accounts one hash-table bucket-lock acquisition (N_ID of
// Eq. 1) plus the two reader-lock RMWs that the plain reader-writer lock
// costs when the BRAVO bias is disabled (§IV-D).
func (w *Worker) CountBucketLock() {
	if w.count {
		w.Atomics.Bucket++
		if !w.rt.cfg.BiasedRWLock {
			w.Atomics.RWLock += 2
		}
	}
}

// loadFlushDelta is the combining threshold: how much net ready-depth delta
// a worker accumulates before flushing to the shared counter.
const loadFlushDelta = 16

// loadAdd buffers a ready-depth delta (no-op when load tracking is off;
// service workers flush directly — their deltas come from the comm thread,
// which may not loop back to a flush point promptly).
func (w *Worker) loadAdd(n int64) {
	r := w.rt
	if !r.loadTrack {
		return
	}
	if w.ID < 0 {
		r.ready.Add(n)
		return
	}
	w.loadBuf += n
	if w.loadBuf >= loadFlushDelta || w.loadBuf <= -loadFlushDelta {
		w.flushLoad()
	}
}

// tally counts one object-lifetime event: in the plain owner-private cell
// on an executing worker, straight into the published atomic on a service
// identity, which has no idle or exit point to publish at.
func (w *Worker) tally(own *int64, pub *atomic.Int64) {
	if w.ID < 0 {
		pub.Add(1)
		return
	}
	*own++
}

// flushIdle publishes everything an executing worker buffers privately —
// the ready-depth delta and the lifetime tallies — before it advertises
// idleness and at exit.
func (w *Worker) flushIdle() {
	w.flushLoad()
	t := &w.tallies
	w.Stats.TasksGot.Add(t.tasksGot)
	w.Stats.TasksPut.Add(t.tasksPut)
	w.Stats.CopiesGot.Add(t.copiesGot)
	w.Stats.CopiesPut.Add(t.copiesPut)
	*t = lifeTallies{}
}

// flushLoad publishes the buffered ready-depth delta to the shared counter.
// Called on threshold, before idling, and at worker exit, so the advertised
// depth can under- or over-shoot by at most loadFlushDelta per busy worker.
func (w *Worker) flushLoad() {
	if w.loadBuf == 0 {
		return
	}
	w.rt.ready.Add(w.loadBuf)
	w.loadBuf = 0
	if m := w.mx; m != nil {
		m.loadFlush.Inc(w.htSlot)
	}
}

// victimBuf returns the worker-private scratch slice for steal scans.
func (w *Worker) victimBuf() []int {
	if w.victims == nil {
		w.victims = make([]int, 0, w.rt.cfg.Workers)
	}
	return w.victims
}

// nextVictim returns a pseudo-random starting index for steal scans.
func (w *Worker) nextVictim() uint64 {
	x := w.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rngState = x
	return x
}

// Runtime returns the owning runtime.
func (w *Worker) Runtime() *Runtime { return w.rt }

// NewTask obtains a task object (recycled when pools are enabled).
func (w *Worker) NewTask() *Task {
	w.tally(&w.tallies.tasksGot, &w.Stats.TasksGot)
	var t *Task
	if w.rt.cfg.UsePools {
		t = w.TaskPool.Get(w)
	} else {
		w.countAtomic(&w.Atomics.Alloc)
		if m := w.mx; m != nil {
			m.poolTaskMiss.Inc(w.htSlot)
		}
		t = &Task{}
	}
	if w.rt.causal {
		t.span = w.newSpan()
	}
	return t
}

// FreeTask recycles a task to its owning pool (or drops it for the GC).
func (w *Worker) FreeTask(t *Task) {
	w.tally(&w.tallies.tasksPut, &w.Stats.TasksPut)
	if t.pool != nil {
		t.pool.Put(w, t)
	}
}

// NewCopy wraps a value in a reference-counted copy with refcount 1.
func (w *Worker) NewCopy(v any) *Copy {
	var c *Copy
	w.tally(&w.tallies.copiesGot, &w.Stats.CopiesGot)
	if w.rt.cfg.UsePools {
		c = w.copies.get(w)
	} else {
		w.countAtomic(&w.Atomics.Alloc)
		if m := w.mx; m != nil {
			m.poolCopyMiss.Inc(w.htSlot)
		}
		c = &Copy{}
	}
	c.Val = v
	c.refs = 1 // plain: c is not shared until the caller hands it on
	return c
}

// Schedule makes t eligible for execution, preferring this worker's local
// queue. Service workers (which own no queue) route through the runtime's
// injection queue instead.
func (w *Worker) Schedule(t *Task) {
	if m := w.mx; m != nil {
		m.schedPush.Inc(w.htSlot)
	}
	if w.ID < 0 {
		w.rt.Inject(t)
		return
	}
	w.loadAdd(1)
	w.rt.sched.Push(w.ID, t)
	// The body that pushed t may run on for long: a sleeper must get the
	// chance to steal t now, not when this worker next looks at its queue.
	w.rt.wakeOne()
}

// ScheduleChain pushes a pre-sorted chain of n ready tasks at once.
func (w *Worker) ScheduleChain(head *Task, n int) {
	if m := w.mx; m != nil {
		m.schedPush.Add(w.htSlot, uint64(n))
	}
	if w.ID < 0 {
		for head != nil {
			next := head.next
			head.next = nil
			w.rt.Inject(head)
			head = next
		}
		return
	}
	w.loadAdd(int64(n))
	w.rt.sched.PushChain(w.ID, head, n)
	w.rt.wakeOne()
}

// Discovered/Completed forward to the termination detector with this
// worker's slot, tracking the instrumentation category.
func (w *Worker) Discovered() {
	if !w.rt.cfg.ThreadLocalTermDet || w.detSlot < 0 {
		w.countAtomic(&w.Atomics.TermDet)
	}
	w.rt.Det.Discovered(w.detSlot)
}

// Completed records a task completion for termination detection.
func (w *Worker) Completed() {
	if !w.rt.cfg.ThreadLocalTermDet || w.detSlot < 0 {
		w.countAtomic(&w.Atomics.TermDet)
	}
	w.rt.Det.Completed(w.detSlot)
}

// taskSampleMask selects which executions feed the task-latency histogram
// when metrics are on: 1 in 64, so the two clock reads that bracket a timed
// execution stay off the common path. For µs-scale tasks, timing every one
// costs ~10% throughput; sampling keeps the metrics layer under the <5%
// overhead budget while the counters remain exact. (Tracing still times
// every task — it is an explicitly paid-for debugging mode.)
const taskSampleMask = 63

// sampleTick advances the latency-sampling counter and reports whether this
// execution should be timed for the histogram.
func (w *Worker) sampleTick() bool {
	w.mxTick++
	return w.mxTick&taskSampleMask == 0
}

// run is the worker main loop.
func (w *Worker) run() {
	if w.rt.cfg.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	defer w.flushIdle()
	for {
		t := w.findTask()
		if t == nil {
			if t = w.idle(); t == nil {
				return
			}
		}
		w.execute(t)
	}
}

// spinBeforePark bounds the failed rounds a searching worker spins, beside a
// running sibling or polling the wire, before it parks.
const spinBeforePark = 2048

// idle is the starvation path (DESIGN.md §9, "Idle protocol: spin, park,
// wake"): it returns the worker's next task, or nil once termination has
// been signaled. The worker publishes its buffered deltas, runs the idle
// hook (inter-rank stealing looks for remote work there), goes idle for the
// termination detector (flushing its thread-local counters, possibly
// announcing quiescence), spins as a searching worker while a sibling runs
// or, with a poll hook, polling the wire each round (up to spinBeforePark
// rounds), and then parks until a producer wakes it.
func (w *Worker) idle() *Task {
	rt := w.rt
	if rt.done.Load() {
		return nil
	}
	// Publish buffered deltas before advertising idleness, and before the
	// hook, so the ready depth it reads counts this worker's pops.
	w.flushIdle()
	if f := rt.idleHook; f != nil {
		f()
	}
	rt.Det.EnterIdle(w.ID)
	defer rt.Det.LeaveIdle(w.ID)

	rt.idle.searching.Add(1)
	var t *Task
	poll := rt.pollHook
	for spins := 1; spins < spinBeforePark && (poll != nil || rt.siblingRunning()); spins++ {
		if rt.done.Load() {
			rt.idle.searching.Add(-1)
			return nil
		}
		if t = w.findTask(); t != nil {
			rt.idle.searching.Add(-1)
			break
		}
		if poll != nil && poll() {
			continue // look for the tasks the frames readied first
		}
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
	if t == nil {
		t = w.park()
	}
	if t != nil {
		w.wakeForSurplus()
	}
	return t
}

// park blocks the worker until a producer's wake token or SignalDone. The
// caller holds one searching unit. Announce, re-check, block: the worker
// first gives up its searching unit and counts itself parked, and only then
// looks for work one last time, so a producer that published a task either
// was seen by that last look, or reads parked != 0 with nobody searching
// and sends the token this worker is about to block on. A token hands its
// receiver the sender's searching unit, which keeps other producers from
// waking a second sleeper while this one looks; a receiver that finds
// nothing goes round again — gives the unit up, re-announces, re-checks,
// blocks — without a fresh spin.
func (w *Worker) park() *Task {
	rt := w.rt
	for {
		rt.idle.searching.Add(-1)
		rt.idle.parked.Add(1)
		if rt.done.Load() {
			rt.idle.parked.Add(-1)
			return nil
		}
		if t := w.findTask(); t != nil {
			rt.idle.parked.Add(-1)
			return t
		}
		woken := false
		select {
		case <-rt.wake:
			// A token already waits (the worker it was sent for found work
			// in its own re-check): taking it does not block, so it is not
			// counted as a park.
			woken = true
		default:
			w.Stats.Parks.Add(1)
			if m := w.mx; m != nil {
				m.schedPark.Inc(w.htSlot)
			}
			select {
			case <-rt.wake:
				woken = true
			case <-rt.doneCh:
			}
		}
		rt.idle.parked.Add(-1)
		if !woken {
			return nil
		}
		if t := w.findTask(); t != nil {
			rt.idle.searching.Add(-1)
			return t
		}
	}
}

// wakeForSurplus passes the wake on when a worker leaves the idle state with
// a task and more work stays visible behind it: producers skipped their own
// wake while this worker was searching.
func (w *Worker) wakeForSurplus() {
	rt := w.rt
	if rt.idle.parked.Load() != 0 &&
		(rt.sched.LocalNonEmpty(w.ID) || rt.inject.size.Load() != 0) {
		rt.wakeOne()
	}
}

// execute runs one task, recording a trace event when tracing is enabled
// and a latency sample when metrics are enabled and this execution is
// sampled. After an Abort, dequeued tasks are discarded instead of executed.
func (w *Worker) execute(t *Task) {
	m := w.mx
	if w.rt.aborting.Load() {
		w.Stats.Discarded.Add(1)
		if m != nil {
			m.discarded.Inc(w.htSlot)
		}
		w.rt.discard(w, t)
		return
	}
	sampled := m != nil && w.sampleTick()
	if w.rt.trace == nil && !sampled {
		w.invoke(t)
	} else {
		start := time.Now()
		tt, key, span := t.TT, t.Key(), t.span // t is recycled inside Exec; capture first
		w.invoke(t)
		dur := time.Since(start)
		if w.rt.trace != nil {
			w.recordNamed(tt, key, start, dur, span)
		}
		if sampled {
			m.taskNs.Observe(w.htSlot, uint64(dur.Nanoseconds()))
		}
	}
	if m != nil {
		m.executed.Inc(w.htSlot)
	}
	w.Stats.Executed.Add(1)
}

// invoke runs one task's Exec with panic isolation: a panicking body is
// converted into a *TaskError, the task's resources are reclaimed, its
// completion is still accounted to the termination detector (so quiescence
// stays sound), and the runtime aborts. The worker itself survives.
func (w *Worker) invoke(t *Task) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := newTaskError(t, r, debug.Stack())
		w.Stats.Panics.Add(1)
		if m := w.mx; m != nil {
			m.panics.Inc(w.htSlot)
		}
		// Ready tasks deferred (bundled) before the panic are accounted as
		// discovered; push them so the drain can settle them.
		w.FlushDeferred()
		// Exec's own housekeeping was skipped by the unwind: release the
		// task's inputs, free it, and account the completion.
		w.rt.discard(w, t)
		w.rt.Abort(err)
	}()
	t.Exec(w, t)
}

// Bundling reports whether ready-task bundling is active for this worker
// (service workers always schedule directly).
func (w *Worker) Bundling() bool {
	return w.rt.cfg.BundleReady && w.ID >= 0
}

// Defer queues a ready task for batch insertion at the end of the current
// task's execution (Config.BundleReady). The task must already be accounted
// as discovered.
func (w *Worker) Defer(t *Task) {
	t.next = nil
	if w.deferredTail == nil {
		w.deferred, w.deferredTail = t, t
	} else {
		w.deferredTail.next = t
		w.deferredTail = t
	}
	w.nDeferred++
}

// FlushDeferred inserts all deferred ready tasks as one sorted chain.
func (w *Worker) FlushDeferred() {
	if w.deferred == nil {
		return
	}
	head, n := w.deferred, w.nDeferred
	w.deferred, w.deferredTail, w.nDeferred = nil, nil, 0
	w.ScheduleChain(SortChain(head), n)
}

// findTask sources work: local queue, injected tasks, then stealing. Each
// successful dequeue decrements the advertised ready-depth counter (one
// task leaves the queued state; LLP steal adoption keeps the remainder
// queued, so only the returned task is decremented).
func (w *Worker) findTask() *Task {
	if t := w.rt.sched.Pop(w.ID); t != nil {
		if m := w.mx; m != nil {
			m.schedPop.Inc(w.htSlot)
		}
		w.loadAdd(-1)
		return t
	}
	if t := w.rt.inject.pop(); t != nil {
		if m := w.mx; m != nil {
			m.schedInject.Inc(w.htSlot)
		}
		w.loadAdd(-1)
		return t
	}
	if t := w.rt.sched.Steal(w.ID); t != nil {
		if m := w.mx; m != nil {
			m.schedSteal.Inc(w.htSlot)
		}
		w.loadAdd(-1)
		return t
	}
	return nil
}
