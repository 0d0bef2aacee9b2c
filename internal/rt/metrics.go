package rt

import (
	"gottg/internal/metrics"
)

// rtMetrics bundles the runtime's sharded hot-path metrics. Workers hold a
// pointer (nil when metrics are off) and update with their htSlot as shard,
// so every update is an uncontended atomic add on a worker-owned line.
type rtMetrics struct {
	reg *metrics.Registry

	schedPush   *metrics.Counter // tasks pushed to a scheduler queue
	schedPop    *metrics.Counter // tasks obtained from the local queue
	schedInject *metrics.Counter // tasks obtained from the injection queue
	schedSteal  *metrics.Counter // tasks obtained by stealing
	schedHome   *metrics.Counter // tasks pushed to their creator's inbox
	schedPark   *metrics.Counter // park episodes (spin budget exhausted)

	poolTaskHit  *metrics.Counter // task objects served from a free list
	poolTaskMiss *metrics.Counter // task objects heap-allocated
	poolCopyHit  *metrics.Counter // copy objects served from a free list
	poolCopyMiss *metrics.Counter // copy objects heap-allocated

	executed  *metrics.Counter // tasks run from the scheduler
	discarded *metrics.Counter // tasks dropped by the abort drain
	panics    *metrics.Counter // isolated task-body panics

	loadFlush *metrics.Counter // ready-depth combining-buffer flushes

	// taskNs is the task-body latency distribution in nanoseconds. It is
	// sampled — 1 in 64 executions per worker (taskSampleMask) — so its
	// .count is the number of samples, not tasks; use rt.task.executed for
	// totals.
	taskNs *metrics.Histogram
}

func newRTMetrics(reg *metrics.Registry) *rtMetrics {
	return &rtMetrics{
		reg:          reg,
		schedPush:    reg.Counter("rt.sched.push"),
		schedPop:     reg.Counter("rt.sched.pop"),
		schedInject:  reg.Counter("rt.sched.inject"),
		schedSteal:   reg.Counter("rt.sched.steal"),
		schedHome:    reg.Counter("rt.sched.home"),
		schedPark:    reg.Counter("rt.sched.park"),
		poolTaskHit:  reg.Counter("rt.pool.task.hit"),
		poolTaskMiss: reg.Counter("rt.pool.task.miss"),
		poolCopyHit:  reg.Counter("rt.pool.copy.hit"),
		poolCopyMiss: reg.Counter("rt.pool.copy.miss"),
		executed:     reg.Counter("rt.task.executed"),
		discarded:    reg.Counter("rt.task.discarded"),
		panics:       reg.Counter("rt.task.panics"),
		loadFlush:    reg.Counter("rt.load.flushes"),
		taskNs:       reg.Histogram("rt.task.ns"),
	}
}

// EnableMetrics switches on the unified metrics layer: a registry sharded
// per worker identity, updated from the scheduler, pools, and execution hot
// paths, plus lazy gauges for the termination detector. Must be called
// before Start; returns the registry so callers (core.Graph, benches) can
// attach their own subsystem metrics to the same snapshot.
//
// Overhead per task is a handful of uncontended atomic adds (hidden behind
// one nil-check when disabled); see docs/OBSERVABILITY.md for the measured
// cost.
func (r *Runtime) EnableMetrics() *metrics.Registry {
	if r.started.Load() {
		panic("rt: EnableMetrics after Start")
	}
	if r.mx != nil {
		return r.mx.reg
	}
	reg := metrics.NewRegistry(r.cfg.Workers + len(r.service))
	r.mx = newRTMetrics(reg)
	for _, w := range r.workers {
		w.mx = r.mx
	}
	for _, w := range r.service {
		w.mx = r.mx
	}
	reg.Func("termdet.flushes", r.Det.Flushes)
	reg.Func("termdet.pending", r.Det.PendingApprox)
	reg.Func("termdet.idle", func() int64 { return int64(r.Det.IdleWorkers()) })
	reg.Gauge("rt.workers").Set(int64(r.cfg.Workers))

	// The CountAtomics categories are plain owner-written integers (the
	// model-validation path deliberately avoids extra synchronization), so
	// they join the snapshot only once the workers have terminated.
	reg.Func("rt.atomics.total", func() int64 {
		if !r.joined.Load() {
			return 0
		}
		a := r.Atomics()
		return int64(a.Total())
	})
	return reg
}

// Metrics returns the registry installed by EnableMetrics (nil when metrics
// are off).
func (r *Runtime) Metrics() *metrics.Registry {
	if r.mx == nil {
		return nil
	}
	return r.mx.reg
}

// MetricsSnapshot merges all registered metrics. Safe at any time — every
// snapshot source is atomic (sharded cells, WorkerStats, detector counters).
// Returns a zero Snapshot when metrics are off.
func (r *Runtime) MetricsSnapshot() metrics.Snapshot {
	if r.mx == nil {
		return metrics.Snapshot{}
	}
	return r.mx.reg.Snapshot()
}
