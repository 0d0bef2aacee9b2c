package rt

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"gottg/internal/hashtable"
	"gottg/internal/rwlock"
	"gottg/internal/termdet"
	"gottg/internal/xsync"
)

// Runtime owns the execution resources: worker threads, the scheduler, the
// termination detector, and per-worker memory pools. It corresponds to a
// PaRSEC context bound to one process.
type Runtime struct {
	cfg     Config
	workers []*Worker
	sched   scheduler
	inject  injector

	// Det is the process-local termination detector. Frontends account
	// discoveries/completions through Worker helpers or directly.
	Det *termdet.Detector

	service [3]*Worker
	trace   *tracer
	causal  bool // EnableCausalTracing: tasks carry spans
	mx      *rtMetrics

	// loadTrack gates the approximate ready-task counter that inter-rank
	// work stealing advertises as a load hint. Off by default so the extra
	// atomic per schedule/dequeue stays entirely off the single-process path.
	loadTrack bool
	ready     atomic.Int64

	// Idle-protocol state (Worker.idle / Worker.park / wakeOne). parked
	// counts workers that announced they are about to block on wake;
	// searching counts workers awake without a task (spinning, or woken and
	// taking their first look). Producers read both after every publish, and
	// a searching worker before every spin round, so the pair sits on a cache
	// line of its own that is only written when a worker changes idle state. wake carries at most one token: a token is
	// only sent by whoever moved searching from 0 to 1, and that unit is
	// only given up by the worker that received the token.
	_    xsync.Pad
	idle struct {
		parked    atomic.Int32
		searching atomic.Int32
	}
	_    xsync.Pad
	wake chan struct{}

	done    atomic.Bool
	doneCh  chan struct{}
	started atomic.Bool
	joined  atomic.Bool // workers have terminated and been joined
	wg      sync.WaitGroup

	// Fault-tolerance state. aborting flips once, on the first Abort; from
	// then on workers discard dequeued tasks instead of executing them
	// (still accounting completions so termination detection stays sound).
	// Up to maxAbortErrors concurrent abort reasons are retained and joined;
	// the overflow is counted in suppressed so multi-failure runs are not
	// silently truncated.
	// idleHook, when set, runs on a worker immediately before it enters the
	// idle state (flushing thread-local termination counters), after it
	// published its ready-depth delta, so the hook reads a current depth.
	// Distributed frontends with inter-rank stealing install their steal
	// trigger here. Install before Start.
	idleHook func()
	// pollHook, when set, fetches inbound wire frames on the calling worker
	// and reports whether it delivered any (comm.Proc.Poll). A searching
	// worker calls it once per spin round. Install before Start.
	pollHook func() bool

	aborting   atomic.Bool
	errMu      sync.Mutex
	errs       []error
	joinedErr  error // cached errors.Join of errs; invalidated on append
	suppressed atomic.Int64
	abortOnce  sync.Once
	onAbort    func(error)
	dropFn     ExecFn
}

// maxAbortErrors bounds how many distinct abort reasons are retained. A
// cascading failure can abort from thousands of tasks at once; keeping them
// all would turn Err into an unbounded allocation.
const maxAbortErrors = 16

// New builds a runtime with the given configuration (workers are not started
// yet; call Start).
func New(cfg Config) *Runtime {
	cfg = cfg.Normalize()
	r := &Runtime{
		cfg:    cfg,
		doneCh: make(chan struct{}),
		wake:   make(chan struct{}, 1),
		Det:    termdet.New(cfg.Workers, cfg.ThreadLocalTermDet),
	}
	r.workers = make([]*Worker, cfg.Workers)
	for i := range r.workers {
		w := &Worker{ID: i, detSlot: i, htSlot: i, rt: r,
			rngState: uint64(i)*0x9e3779b97f4a7c15 + 1, count: cfg.CountAtomics}
		w.TaskPool.owner = w
		w.copies.owner = w
		r.workers[i] = w
	}
	// Service identities: 0 = main goroutine, 1 = the communication receive
	// path, 2 = the abort sweeper that discards tabled tasks.
	for i := range r.service {
		w := &Worker{ID: -1 - i, detSlot: termdet.ExternalSlot, htSlot: cfg.Workers + i,
			rt: r, rngState: ^uint64(i) | 1, count: cfg.CountAtomics}
		w.TaskPool.owner = w
		w.copies.owner = w
		r.service[i] = w
	}
	r.sched = newScheduler(cfg, r.workers)
	return r
}

// ServiceWorker returns one of the runtime's non-executing worker
// identities: index 0 is reserved for the application's main goroutine
// (graph construction and seeding), index 1 for the communication receive
// path (whichever goroutine holds the rank's receive lock), index 2 for the
// abort sweeper. Each must be used by at most one goroutine at a time.
func (r *Runtime) ServiceWorker(i int) *Worker { return r.service[i] }

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Workers returns the worker set (for harness inspection; workers' hot
// fields must not be touched while running).
func (r *Runtime) Workers() []*Worker { return r.workers }

// SchedulerName reports the active scheduler implementation.
func (r *Runtime) SchedulerName() string { return r.sched.Name() }

// NewTable builds a discovery hash table with one reader slot per worker
// plus the service identities, guarded by a NewRW lock. Frontends use it for
// their pending-task tables.
func (r *Runtime) NewTable() *hashtable.Table {
	return hashtable.New(hashtable.Options{Slots: r.cfg.Workers + len(r.service), Lock: r.NewRW()})
}

// NewRW builds a reader-writer lock honoring Config.BiasedRWLock, with one
// reader slot per worker plus the service identities. With metrics enabled,
// BRAVO locks report their fast-path/slow-path RLock split into the runtime
// registry (aggregated across all locks built by this runtime).
func (r *Runtime) NewRW() rwlock.RW {
	l := rwlock.New(r.cfg.BiasedRWLock, r.cfg.Workers+len(r.service))
	if r.mx != nil {
		if b, ok := l.(*rwlock.BRAVO); ok {
			b.SetMetrics(r.mx.reg.Counter("rwlock.rlock.fast"),
				r.mx.reg.Counter("rwlock.rlock.slow"))
		}
	}
	return l
}

// Start launches the workers. In single-process mode (the default) the
// runtime completes when the termination detector announces quiescence; in
// distributed mode the caller claims the detector's quiescence callback via
// comm and must call SignalDone itself on global termination.
//
// Callers must hold a pending action (BeginAction) across Start and their
// seeding to prevent a premature quiescence announcement.
func (r *Runtime) Start(distributed bool) {
	if !r.started.CompareAndSwap(false, true) {
		panic("rt: Start called twice")
	}
	if !distributed {
		r.Det.SetOnQuiescent(func() { r.SignalDone() })
	}
	sched := r.sched.Name()
	for _, w := range r.workers {
		r.wg.Add(1)
		go func(w *Worker) {
			defer r.wg.Done()
			// Label the goroutine so CPU/goroutine profiles split by worker
			// and scheduler ("ttg-worker" selects all of them in pprof).
			pprof.Do(context.Background(),
				pprof.Labels("ttg-worker", strconv.Itoa(w.ID), "ttg-sched", sched),
				func(context.Context) { w.run() })
		}(w)
	}
}

// BeginAction registers a pending external action (e.g. "the main goroutine
// is still seeding tasks"), preventing termination.
func (r *Runtime) BeginAction() {
	r.Det.Discovered(termdet.ExternalSlot)
}

// EndAction releases a pending external action.
func (r *Runtime) EndAction() {
	r.Det.Completed(termdet.ExternalSlot)
}

// Inject submits a ready task from outside any worker (main goroutine or a
// communication handler). The discovery must already be accounted by the
// caller (Discovered/BeginAction) before Inject to keep termination sound.
func (r *Runtime) Inject(t *Task) {
	r.loadInc(1)
	r.inject.push(t)
	r.wakeOne()
}

// wakeOne releases one parked worker after the caller made work visible,
// unless none is parked or a worker is already searching (it will find the
// work, and passes the wake on if more remains: Worker.wakeForSurplus).
// The common case — nobody parked — is one load of a rarely written line.
func (r *Runtime) wakeOne() {
	if r.idle.parked.Load() == 0 {
		return
	}
	if r.idle.searching.Load() != 0 || !r.idle.searching.CompareAndSwap(0, 1) {
		return
	}
	r.wake <- struct{}{} // never blocks: see the wake field
}

// siblingRunning reports whether some worker is not idle, which is what a
// searching worker's spin waits for when it has no poll hook: a running
// sibling may push a task it can steal. With none running, the only
// producers left are goroutines (comm readers and timers, Inject callers)
// that need the P a spinner would hold, so the searcher parks at once.
func (r *Runtime) siblingRunning() bool {
	return int(r.idle.searching.Load()+r.idle.parked.Load()) < len(r.workers)
}

// Awake reports whether some worker is not parked: it is running a task or
// spinning for one, so it will poll the wire (the poll hook) or send before
// long. Safe from any goroutine.
func (r *Runtime) Awake() bool {
	return int(r.idle.parked.Load()) < len(r.workers)
}

// EnableLoadTracking turns on the approximate ready-queue depth counter.
// Must be called before Start.
func (r *Runtime) EnableLoadTracking() {
	if r.started.Load() {
		panic("rt: EnableLoadTracking must precede Start")
	}
	r.loadTrack = true
}

func (r *Runtime) loadInc(n int64) {
	if r.loadTrack {
		r.ready.Add(n)
	}
}

func (r *Runtime) loadDec() {
	if r.loadTrack {
		r.ready.Add(-1)
	}
}

// ReadyApprox returns the approximate number of ready, not-yet-started
// tasks queued on this runtime (scheduler queues plus the injector). It is
// advisory — concurrent schedule/dequeue traffic makes it momentarily
// stale — and reads 0 unless EnableLoadTracking was called.
func (r *Runtime) ReadyApprox() int64 {
	n := r.ready.Load()
	if n < 0 {
		return 0
	}
	return n
}

// StealReady extracts up to max ready, not-yet-started tasks for donation
// to another rank: it drains the scheduler queues and the injector, keeps
// the higher-priority half local (re-injected), and returns the
// lowest-priority min(max, total/2) tasks. The returned tasks are
// exclusively owned by the caller; their discovery accounting is NOT
// touched (the caller must account each donated task's disposal). w is the
// calling service-worker identity. Safe concurrently with running workers.
func (r *Runtime) StealReady(w *Worker, max int) []*Task {
	chain, n := r.sched.DrainReady(w)
	// Fold the injector in: remotely delivered activations queued there are
	// just as ready (and as stealable) as scheduler-queued tasks.
	var injected []*Task
	for {
		t := r.inject.pop()
		if t == nil {
			break
		}
		injected = append(injected, t)
	}
	total := n + len(injected)
	r.loadInc(int64(-total))
	if total == 0 {
		return nil
	}
	take := total / 2
	if take > max {
		take = max
	}
	// Flatten, scheduler chain (descending priority) first, injector FIFO
	// after: the donation comes from the back, so victims part with their
	// lowest-priority ready work — the steal-half discipline.
	all := make([]*Task, 0, total)
	for t := chain; t != nil; {
		next := t.next
		t.next = nil
		all = append(all, t)
		t = next
	}
	all = append(all, injected...)
	keep := all[:total-take]
	donate := all[total-take:]
	for _, t := range keep {
		r.Inject(t)
	}
	return donate
}

// SignalDone marks global termination and releases WaitDone.
func (r *Runtime) SignalDone() {
	if r.done.CompareAndSwap(false, true) {
		close(r.doneCh)
	}
}

// Done exposes the termination signal (e.g. for selects).
func (r *Runtime) Done() <-chan struct{} { return r.doneCh }

// WaitDone blocks until termination is signaled, then joins all workers.
func (r *Runtime) WaitDone() {
	<-r.doneCh
	r.wg.Wait()
	r.joined.Store(true)
}

// Joined reports whether all workers have terminated and been joined —
// the point after which owner-private state (trace logs, CountAtomics
// categories) may be read safely.
func (r *Runtime) Joined() bool { return r.joined.Load() }

// Stats aggregates per-worker statistics. Executed, Steals and Parks are
// live atomics, so this is safe to call at any time — mid-run it returns a
// live (per-field consistent) view; after WaitDone the final totals.
func (r *Runtime) Stats() (exec, steals, parks int64) {
	for _, w := range r.workers {
		exec += w.Stats.Executed.Load()
		steals += w.Stats.Steals.Load()
		parks += w.Stats.Parks.Load()
	}
	return
}

// SetIdleHook installs a routine run by each worker just before it goes
// idle, ahead of the termination-counter flush. Must be installed before
// Start; the hook must be safe for concurrent callers (every worker runs
// it).
func (r *Runtime) SetIdleHook(f func()) { r.idleHook = f }

// SetPollHook installs the routine a searching worker calls on each spin
// round to fetch inbound frames itself; it reports whether it delivered any.
// A worker with a poll hook spins up to its bound even with no sibling
// running, since it is then the one that reads the wire. Must be installed
// before Start; the hook must never park and must be safe for concurrent
// callers.
func (r *Runtime) SetPollHook(f func() bool) { r.pollHook = f }

// SetDropFn installs the frontend's task-discard routine, used to dispose
// of tasks without running their bodies (abort drain, panic cleanup). The
// routine must release the task's input copies and free the task, but must
// NOT account a completion — the runtime does that itself, exactly once per
// discarded task. Install before Start; without one, the runtime releases
// the inputs of unmoved slots (per the Flags bitmask convention) directly.
func (r *Runtime) SetDropFn(fn ExecFn) { r.dropFn = fn }

// SetOnAbort installs a hook invoked exactly once, on the first Abort, with
// the recorded error. Frontends use it to propagate the abort (sweep tabled
// tasks, notify remote ranks). Install before Start.
func (r *Runtime) SetOnAbort(f func(error)) { r.onAbort = f }

// Abort records err and switches the runtime into drain mode: workers stop
// executing task bodies and instead discard everything they dequeue, still
// accounting each completion so the termination detector reaches quiescence
// and WaitDone returns. All reasons recorded before the cap are aggregated
// by Err (errors.Join); later ones only bump the suppressed counter. Safe
// from any goroutine, idempotent.
func (r *Runtime) Abort(err error) {
	if err != nil {
		r.errMu.Lock()
		if len(r.errs) < maxAbortErrors {
			r.errs = append(r.errs, err)
			r.joinedErr = nil
		} else {
			r.suppressed.Add(1)
		}
		r.errMu.Unlock()
	}
	r.aborting.Store(true)
	r.abortOnce.Do(func() {
		if r.onAbort != nil {
			r.onAbort(r.Err())
		}
	})
}

// Aborting reports whether the runtime is draining after an Abort.
func (r *Runtime) Aborting() bool { return r.aborting.Load() }

// Err returns the abort reason: nil on a clean run, the recorded error
// itself when there was exactly one (callers may compare with == or
// errors.Is interchangeably), or the errors.Join of every retained reason
// when several failures raced.
func (r *Runtime) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	switch len(r.errs) {
	case 0:
		return nil
	case 1:
		return r.errs[0]
	}
	if r.joinedErr == nil {
		r.joinedErr = errors.Join(r.errs...)
	}
	return r.joinedErr
}

// SuppressedErrors reports how many abort reasons were dropped after the
// retention cap (the core.errors_suppressed metric).
func (r *Runtime) SuppressedErrors() int64 { return r.suppressed.Load() }

// Terminated reports whether global termination has been signaled. Recovery
// layers use it to drop late replayed deliveries into a finished graph.
func (r *Runtime) Terminated() bool { return r.done.Load() }

// discard disposes of one task without running its body and accounts its
// completion. Cleanup is best-effort (a panic inside the drop routine is
// swallowed rather than taking down the worker); the completion accounting
// is unconditional so quiescence stays sound.
func (r *Runtime) discard(w *Worker, t *Task) {
	func() {
		defer func() { _ = recover() }()
		if r.dropFn != nil {
			r.dropFn(w, t)
			return
		}
		for i := 0; i < t.NumInputs(); i++ {
			if c := t.Input(i); c != nil && t.Flags&(1<<uint(i)) == 0 {
				c.Release(w)
			}
		}
		w.FreeTask(t)
	}()
	w.Completed()
}

// CopyBalance reports data copies obtained (pool or heap) versus fully
// released, across workers and service identities. After WaitDone — on a
// clean run or an aborted one — the two must match; any difference is a
// leaked, still-referenced copy. Mid-run reads are race-free (atomics) but
// lag: an executing worker publishes its counts only before it goes idle
// and when it exits (WorkerStats), so the balance is exact only once
// workers have joined. Service identities count directly.
func (r *Runtime) CopyBalance() (got, put int64) {
	for _, w := range r.workers {
		got += w.Stats.CopiesGot.Load()
		put += w.Stats.CopiesPut.Load()
	}
	for _, w := range r.service {
		got += w.Stats.CopiesGot.Load()
		put += w.Stats.CopiesPut.Load()
	}
	return
}

// TaskBalance is CopyBalance for task objects (NewTask versus FreeTask),
// with the same publish-at-idle-and-exit rule: exact only after WaitDone.
func (r *Runtime) TaskBalance() (got, put int64) {
	for _, w := range r.workers {
		got += w.Stats.TasksGot.Load()
		put += w.Stats.TasksPut.Load()
	}
	for _, w := range r.service {
		got += w.Stats.TasksGot.Load()
		put += w.Stats.TasksPut.Load()
	}
	return
}

// Atomics aggregates the per-worker atomic-operation accounting. The
// categories are plain owner-written integers (the model-validation path
// avoids extra synchronization by design), so call only after WaitDone.
func (r *Runtime) Atomics() AtomicCounts {
	var a AtomicCounts
	for _, w := range r.workers {
		a.add(&w.Atomics)
	}
	for _, w := range r.service {
		a.add(&w.Atomics)
	}
	return a
}
