package core

import (
	"math"
	"sync/atomic"

	"gottg/internal/rt"
	"gottg/internal/xsync"
)

// This file is the feedback loop from critical-path structure back into the
// scheduler: an online bottom-level estimator (paper ROADMAP item 4; the
// exact offline computation lives in obs/critpath). Priorities must cost
// almost nothing to produce — the whole point is to cheapen the small-task
// regime — so the estimator works at template-task granularity:
//
//   - a static seed derived from the template graph (bottom-level in hops,
//     by bounded relaxation over the TT out-edges), available before the
//     first task runs;
//   - per-TT body-time EWMAs refined online from sampled executions (1 in
//     prioSampleMask+1 per worker identity, same discipline as the
//     rt.task.ns histogram), each sample also re-relaxing the sampled TT's
//     bottom-level one step against its successors.
//
// Per-key priority functions (TT.WithPriority) always win over the
// estimator: the application knows more than the template shape does.

// defaultBodyNs seeds the per-TT body-time estimate before any execution has
// been observed (1µs: the paper's small-task regime).
const defaultBodyNs = 1000

// prioSampleMask selects which executions are timed for the estimator:
// 1 in 32 per worker identity.
const prioSampleMask = 31

// prioWorkerState is the estimator's per-worker-identity cell (indexed by
// HTSlot, padded to a cache line): the sampling tick and the ambient
// priority hint parsed off the activation wire (set around the receive-side
// deliver).
type prioWorkerState struct {
	tick uint32
	hint int32
	_    [xsync.CacheLineSize - 8]byte
}

// prioState is the per-graph online bottom-level estimator.
type prioState struct {
	// succ[id] lists the distinct successor TT ids of TT id (self-loops
	// dropped: a TT that feeds itself recurses at constant bottom-level).
	succ [][]int32

	// bodyNs[id] is the EWMA of observed body nanoseconds; blNs[id] the
	// bottom-level estimate (body + max successor bottom-level). Atomics:
	// written by whichever worker samples, read on every ready-time refresh;
	// races lose an update, never corrupt.
	bodyNs []atomic.Int64
	blNs   []atomic.Int64

	ws []prioWorkerState
}

// numServiceIdentities mirrors the runtime's service-worker count (seeding
// main goroutine, comm handlers, steal service); their HTSlots follow the
// worker slots.
const numServiceIdentities = 3

func newPrioState(g *Graph) *prioState {
	n := len(g.tts)
	ps := &prioState{
		succ:   make([][]int32, n),
		bodyNs: make([]atomic.Int64, n),
		blNs:   make([]atomic.Int64, n),
		ws:     make([]prioWorkerState, g.cfg.Workers+numServiceIdentities),
	}
	for _, tt := range g.tts {
		seen := make(map[int32]bool)
		for _, e := range tt.outs {
			if e == nil {
				continue
			}
			for _, d := range e.dests {
				id := int32(d.tt.id)
				if id == int32(tt.id) || seen[id] {
					continue
				}
				seen[id] = true
				ps.succ[tt.id] = append(ps.succ[tt.id], id)
			}
		}
	}
	// Static bottom-level in hops by bounded relaxation: converges in
	// depth(DAG) rounds; template-graph cycles (other than the dropped
	// self-loops) cap at n rounds, which only flattens their relative
	// priorities — the online refinement takes over from there.
	depth := make([]int32, n)
	for round := 0; round < n; round++ {
		changed := false
		for i := 0; i < n; i++ {
			var d int32
			for _, s := range ps.succ[i] {
				if depth[s]+1 > d {
					d = depth[s] + 1
				}
			}
			if d > depth[i] {
				depth[i] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := 0; i < n; i++ {
		ps.bodyNs[i].Store(defaultBodyNs)
		ps.blNs[i].Store(int64(depth[i]+1) * defaultBodyNs)
	}
	return ps
}

// observe folds one measured body duration into TT id's estimate and
// re-relaxes its bottom-level one step against its successors' current
// bottom-levels (predecessors pick the change up when they next sample).
func (ps *prioState) observe(id int, d int64) {
	if d < 1 {
		d = 1
	}
	old := ps.bodyNs[id].Load()
	nw := old + (d-old)/8
	if nw < 64 {
		nw = 64 // floor: a 0ns body still costs a dispatch
	}
	ps.bodyNs[id].Store(nw)
	var best int64
	for _, s := range ps.succ[id] {
		if b := ps.blNs[s].Load(); b > best {
			best = b
		}
	}
	ps.blNs[id].Store(nw + best)
}

// prioFor returns TT tt's current bottom-level estimate clamped to the
// Task.Priority range.
func (ps *prioState) prioFor(tt *TT) int32 {
	bl := ps.blNs[tt.id].Load()
	if bl > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(bl)
}

// taskPrio is prioFor maxed with the worker identity's ambient wire hint, so
// remote activations keep the urgency their sender computed.
func (ps *prioState) taskPrio(tt *TT, w *rt.Worker) int32 {
	p := ps.prioFor(tt)
	if h := ps.ws[w.HTSlot()].hint; h > p {
		p = h
	}
	return p
}

// refresh raises a just-readied task's priority to the current estimate
// (never lowers: a per-key WithPriority or a wire hint set at creation
// stays authoritative). Called at dispatch, when the readier exclusively
// owns the task.
func (ps *prioState) refresh(w *rt.Worker, t *rt.Task) {
	tt := t.TT.(*TT)
	if tt.prioFn != nil {
		return
	}
	if p := ps.taskPrio(tt, w); p > t.Priority {
		t.Priority = p
	}
}

// setHint installs (and clearHint removes) the ambient received-priority
// hint for a worker identity around a receive-side deliver.
func (ps *prioState) setHint(w *rt.Worker, p int32) { ps.ws[w.HTSlot()].hint = p }
func (ps *prioState) clearHint(w *rt.Worker)        { ps.ws[w.HTSlot()].hint = 0 }
