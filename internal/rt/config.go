// Package rt is the PaRSEC-equivalent task runtime underneath TTG: worker
// threads, task objects with per-worker memory pools, reference-counted data
// copies, pluggable schedulers (LFQ, LL, LLP), and termination detection.
//
// Besides Workers and PinWorkers, every Config field is one of the paper's
// ablations or the one scheduling extension beyond it:
//
//   - Config.Sched selects the scheduler (§III-B vs §IV-C), and
//     Config.BundleReady its bundled ready-task insertion (§IV-C),
//   - Config.ThreadLocalTermDet selects termination-detection counting
//     (§III-A vs §IV-B),
//   - Config.BiasedRWLock selects the hash-table resize lock (§III-C2 vs
//     §IV-D),
//   - Config.HTBypassSingleInput skips the discovery table for
//     single-input template tasks (§V-C),
//   - Config.UsePools recycles task and copy objects (§IV-E),
//   - Config.CountAtomics enables the per-task atomic-operation accounting
//     used to validate the paper's Eq. 1 model (§IV-E),
//   - Config.AutoPriority lets the graph layer order ready tasks by online
//     bottom-level estimates (an extension; the paper's priorities are
//     user-supplied).
//
// OriginalConfig() reproduces "original TTG/PaRSEC"; OptimizedConfig() the
// paper's optimized system.
package rt

import "runtime"

// SchedKind selects a scheduler implementation.
type SchedKind int

const (
	// SchedLLP is the paper's Local LIFO with Priorities (§IV-C): per-worker
	// lock-free LIFOs with priority-ordered insertion and work stealing.
	SchedLLP SchedKind = iota
	// SchedLFQ is PaRSEC's default local-flat-queues scheduler (§III-B):
	// per-worker bounded buffers with a globally locked overflow FIFO.
	SchedLFQ
	// SchedLL is the local-LIFO scheduler without priority support.
	SchedLL
)

// String returns the scheduler's short name as used in the paper's figures.
func (k SchedKind) String() string {
	switch k {
	case SchedLLP:
		return "LLP"
	case SchedLFQ:
		return "LFQ"
	case SchedLL:
		return "LL"
	}
	return "?"
}

// Config assembles a runtime instance. The idle protocol has no field: an
// idle worker spins only while a sibling runs, bounded by an internal
// constant, and otherwise parks until a producer wakes it.
type Config struct {
	// Workers is the number of worker threads (default: GOMAXPROCS).
	Workers int
	// Sched selects the scheduler implementation.
	Sched SchedKind
	// ThreadLocalTermDet enables the §IV-B thread-local termination
	// counters; false uses the contended process-wide atomics.
	ThreadLocalTermDet bool
	// BiasedRWLock guards hash-table resizes with the BRAVO wrapper (§IV-D)
	// instead of a plain atomic reader-writer lock.
	BiasedRWLock bool
	// HTBypassSingleInput schedules tasks of single-input template tasks
	// directly, never touching the discovery hash table (§V-C).
	HTBypassSingleInput bool
	// UsePools recycles task and copy objects through per-worker free lists
	// (§IV-E); false allocates every object from the Go heap.
	UsePools bool
	// CountAtomics records every atomic RMW the runtime issues on behalf of
	// a task, by category (slows execution; for model validation only).
	CountAtomics bool
	// PinWorkers locks each worker goroutine to an OS thread.
	PinWorkers bool
	// BundleReady batches the tasks made eligible during one task's
	// execution and inserts them into the scheduler as a single pre-sorted
	// chain at task end — the paper's §IV-C bundling, which turns the LLP
	// slow path's O(N) per-insert cost into one detach/merge/reattach pass.
	BundleReady bool
	// AutoPriority lets the graph layer write online bottom-level estimates
	// into Task.Priority at ready time, so priority-aware schedulers order
	// tasks by critical-path depth instead of discovery order.
	AutoPriority bool
}

// Normalize fills in defaults and returns the receiver for chaining.
func (c Config) Normalize() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// OriginalConfig mimics TTG over unmodified PaRSEC: LFQ scheduler,
// process-wide termination counters, plain reader-writer lock.
func OriginalConfig(workers int) Config {
	return Config{
		Workers:             workers,
		Sched:               SchedLFQ,
		ThreadLocalTermDet:  false,
		BiasedRWLock:        false,
		HTBypassSingleInput: true,
		UsePools:            true,
		PinWorkers:          true,
	}.Normalize()
}

// OptimizedConfig is the paper's optimized system: LLP scheduler,
// thread-local termination detection, BRAVO-biased resize lock.
func OptimizedConfig(workers int) Config {
	return Config{
		Workers:             workers,
		Sched:               SchedLLP,
		ThreadLocalTermDet:  true,
		BiasedRWLock:        true,
		HTBypassSingleInput: true,
		UsePools:            true,
		PinWorkers:          true,
	}.Normalize()
}
