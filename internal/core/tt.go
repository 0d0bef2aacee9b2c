package core

import (
	"fmt"
	"time"

	"gottg/internal/hashtable"
	"gottg/internal/rt"
	"gottg/internal/xsync"
)

// Body is a template task's user function. The TaskContext is passed by
// value (it is three words) to keep task dispatch allocation-free.
type Body func(tc TaskContext)

// TT is a template task: the static description from which task instances
// unfold at runtime. A TT has nIn input terminals and nOut output terminals;
// an instance for key k runs once every input terminal has received its data
// for k (one datum per plain terminal, a configured count for aggregator
// terminals).
type TT struct {
	g    *Graph
	id   int
	name string
	nIn  int
	nOut int
	body Body

	outs    []*Edge
	inBound []bool
	slots   []inputSlot
	prioFn  func(key uint64) int32
	mapFn   func(key uint64) int

	ht     *hashtable.Table
	bypass bool

	// created counts task instances per worker identity (indexed by
	// HTSlot), so the identities that discover tasks never share a line.
	created []xsync.PaddedInt64
}

// Name returns the template task's name.
func (tt *TT) Name() string { return tt.name }

// NumInputs returns the number of input terminals.
func (tt *TT) NumInputs() int { return tt.nIn }

// Out attaches output terminal `term` to edge e. Chainable.
func (tt *TT) Out(term int, e *Edge) *TT {
	tt.g.mustBeOpen()
	if term < 0 || term >= tt.nOut {
		panic(fmt.Sprintf("ttg: %s: output terminal %d out of range (nOut=%d)", tt.name, term, tt.nOut))
	}
	tt.outs[term] = e
	return tt
}

// WithPriority installs a per-key priority function (higher runs earlier
// under priority-aware schedulers). Chainable; before MakeExecutable.
func (tt *TT) WithPriority(fn func(key uint64) int32) *TT {
	tt.g.mustBeOpen()
	tt.prioFn = fn
	return tt
}

// WithMapper installs the key→rank process mapper used in distributed
// execution. Without a mapper every key is local. Chainable.
func (tt *TT) WithMapper(fn func(key uint64) int) *TT {
	tt.g.mustBeOpen()
	tt.mapFn = fn
	return tt
}

// slotKind classifies an input terminal.
type slotKind uint8

const (
	slotPlain     slotKind = iota // one datum per task
	slotAggregate                 // count(key) data items, kept as copies (§V-D1)
	slotStreaming                 // count(key) items folded eagerly by a reducer
)

// inputSlot describes one input terminal's accumulation behaviour.
type inputSlot struct {
	kind   slotKind
	count  func(key uint64) int
	reduce func(acc, v any) any
}

// need returns how many data items this slot requires for key.
func (is *inputSlot) need(key uint64) int32 {
	if is.kind == slotPlain {
		return 1
	}
	return int32(is.count(key))
}

// WithAggregator turns input terminal `slot` into an aggregator terminal
// (paper §V-D1): instead of a single datum, the task for key k waits for
// count(k) data items, which the body retrieves with TaskContext.Aggregate.
// The data items remain under TTG copy management (no deep copies).
func (tt *TT) WithAggregator(slot int, count func(key uint64) int) *TT {
	tt.g.mustBeOpen()
	if slot < 0 || slot >= tt.nIn {
		panic(fmt.Sprintf("ttg: %s: aggregator slot %d out of range", tt.name, slot))
	}
	tt.slots[slot] = inputSlot{kind: slotAggregate, count: count}
	return tt
}

// WithStreaming turns input terminal `slot` into a streaming terminal: the
// count(key) arriving items are folded eagerly into an accumulator with
// reduce(acc, v) (acc is nil for the first item) and their copies released
// immediately. This is the mechanism TTG applications used before
// aggregator terminals (paper §V-D1) — it trades copy tracking for eager
// reduction: the body sees only the final accumulator via Value(slot).
func (tt *TT) WithStreaming(slot int, count func(key uint64) int, reduce func(acc, v any) any) *TT {
	tt.g.mustBeOpen()
	if slot < 0 || slot >= tt.nIn {
		panic(fmt.Sprintf("ttg: %s: streaming slot %d out of range", tt.name, slot))
	}
	if reduce == nil {
		panic(fmt.Sprintf("ttg: %s: streaming slot %d needs a reducer", tt.name, slot))
	}
	tt.slots[slot] = inputSlot{kind: slotStreaming, count: count, reduce: reduce}
	return tt
}

// TasksCreated reports how many task instances this TT has created.
func (tt *TT) TasksCreated() int64 {
	var n int64
	for i := range tt.created {
		n += tt.created[i].V.Load()
	}
	return n
}

// newTask builds a task instance for key (pool-backed), armed with the number
// of data items it needs: each slot's need is computed once, so count(key)
// runs once per task.
func (tt *TT) newTask(w *rt.Worker, key uint64) *rt.Task {
	t := w.NewTask()
	t.TT = tt
	t.SetKey(key)
	t.SetNumInputs(tt.nIn)
	t.Exec = ttExecute
	if tt.prioFn != nil {
		t.Priority = tt.prioFn(key)
	} else if ps := tt.g.prio; ps != nil {
		t.Priority = ps.taskPrio(tt, w)
	}
	deps := int32(0)
	for i := 0; i < tt.nIn; i++ {
		need := tt.slots[i].need(key)
		deps += need
		switch tt.slots[i].kind {
		case slotAggregate:
			t.SetInput(i, w.NewCopy(tt.g.newAggregate(w, int(need))))
		case slotStreaming:
			t.SetInput(i, w.NewCopy(nil)) // the accumulator cell
		}
	}
	t.ArmDeps(deps)
	tt.created[w.HTSlot()].V.Add(1)
	if ft := tt.g.ft; ft != nil && tt.mapFn != nil && tt.mapFn(key) != tt.g.rank {
		// A task instance for a key this rank does not statically own can
		// only exist here because the owner died and its keys were re-homed.
		ft.reexec.Add(1)
	}
	return t
}

// ttExecute is the runtime execution wrapper installed on every TTG task:
// run the body, release unmoved inputs, recycle the task, and account the
// completion for termination detection.
func ttExecute(w *rt.Worker, t *rt.Task) {
	tt := t.TT.(*TT)
	if tt.g.causal {
		// Identify the executing span on this worker so deliveries performed
		// by the body are attributed to it.
		saved := w.CauseCtx()
		w.SetCauseCtx(rt.CauseCtx{SpanID: t.SpanID(), Rank: tt.g.rank})
		defer w.SetCauseCtx(saved)
	}
	if ft := tt.g.ft; ft != nil {
		// Identify the executing task on this worker identity so its sends
		// get deterministic activation ids.
		sc := &ft.srcCtx[w.HTSlot()]
		saved := *sc
		*sc = ftSendCtx{
			active:  true,
			foreign: tt.mapFn != nil && tt.mapFn(t.Key()) != tt.g.rank,
			ttID:    uint32(tt.id),
			key:     t.Key(),
		}
		defer func() { *sc = saved }()
	}
	// Priority-estimator hook: time a sampled fraction of bodies for the
	// bottom-level refinement.
	var ps *prioState
	var timed bool
	var t0 time.Time
	if ps = tt.g.prio; ps != nil {
		pst := &ps.ws[w.HTSlot()]
		pst.tick++
		if pst.tick&prioSampleMask == 0 {
			timed = true
			t0 = time.Now()
		}
	}
	tt.body(TaskContext{w: w, t: t, tt: tt})
	if timed {
		ps.observe(tt.id, time.Since(t0).Nanoseconds())
		tt.g.prioUpdates.Add(1)
	}
	tt.g.releaseInputs(w, t)
	w.FlushDeferred()
	w.Completed()
	w.FreeTask(t)
}

// deliver routes one datum (c may be nil for pure control flow) to the
// destination's input terminal for key. If owned, the caller's reference to
// c is consumed; otherwise deliver retains as needed.
//
// This is the heart of dynamic task discovery (paper §III-C): single-input
// TTs bypass the hash table entirely; otherwise the key's bucket is locked,
// the pending task found or created, the datum attached, and the dependence
// counter decremented — task becomes eligible at zero.
func (g *Graph) deliver(w *rt.Worker, d dest, key uint64, c *rt.Copy, owned bool) {
	if g.rtm.Aborting() {
		// Abort drain: in-flight sends are dropped (local and remote alike).
		// Tasks already tabled are reclaimed by the abort sweeper.
		if c != nil && owned {
			c.Release(w)
		}
		return
	}
	if g.ft != nil {
		g.deliverFT(w, d, key, c, owned)
		return
	}
	tt := d.tt
	if g.size > 1 && tt.mapFn != nil {
		if r := tt.mapFn(key); r != g.rank {
			g.remoteSend(w, tt, d.slot, key, c, owned)
			return
		}
	}
	g.deliverLocal(w, d, key, c, owned)
}

// deliverFT is deliver's fault-tolerant variant: derive the send's
// deterministic activation id from the executing source task, resolve the
// owner through the RecoveryKeymap, and — once any rank has died — dedup
// local deliveries against the journal so replayed activations regenerated by
// re-executed producers are applied at most once.
func (g *Graph) deliverFT(w *rt.Worker, d dest, key uint64, c *rt.Copy, owned bool) {
	ft := g.ft
	tt := d.tt
	if g.rtm.Terminated() {
		// Late replay into a finished graph (survivors already terminated).
		if c != nil && owned {
			c.Release(w)
		}
		return
	}
	var id uint64
	var foreignSrc bool
	if sc := &ft.srcCtx[w.HTSlot()]; sc.active {
		sc.idx++
		foreignSrc = sc.foreign
		if sc.ttID != uint32(tt.id) || sc.key != key {
			id = ftActID(sc.ttID, sc.key, sc.idx, uint32(tt.id), uint32(d.slot), key)
		}
		// else: a send to the task's own (TT, key) is a deliberate requeue —
		// a fresh instance of itself, e.g. MRA's reconstruct waiting for
		// re-homed state. It gets no activation id: every requeue hop must be
		// delivered (each new execution would regenerate the same id and be
		// deduplicated into a lost task), and the chain is strictly local
		// (same key ⇒ same owner), so skipping the journal loses nothing.
	}
	if tt.mapFn != nil {
		// A stale route read can only point at a just-dead rank; ft.send
		// re-resolves under the membership lock before transmitting.
		if dst := int(ft.route[tt.mapFn(key)].Load()); dst != g.rank {
			g.remoteSendFT(w, tt, d.slot, key, c, owned, id)
			return
		}
	}
	// Journal local deliveries once any rank has died (replayed activations
	// regenerated by re-executed producers must apply at most once) — and
	// ALWAYS when the producer executes away from its static home (a stolen
	// task): if its home rank later dies, the recovery cascade regenerates
	// exactly these sends, and only the journal entry written here lets the
	// regenerated copy be recognized as a duplicate.
	if id != 0 && (foreignSrc || ft.anyDead.Load()) && !ft.firstTime(id) {
		if c != nil && owned {
			c.Release(w)
		}
		return
	}
	g.deliverLocal(w, d, key, c, owned)
}

// deliverLocal attaches one datum to the local pending-task table (or
// bypasses it for single-input TTs); the discovery half of deliver.
func (g *Graph) deliverLocal(w *rt.Worker, d dest, key uint64, c *rt.Copy, owned bool) {
	tt := d.tt
	if c == nil && tt.slots[d.slot].kind != slotPlain {
		panic(fmt.Sprintf("ttg: %s: control-flow send into %s terminal %d",
			tt.name, map[slotKind]string{slotAggregate: "aggregator", slotStreaming: "streaming"}[tt.slots[d.slot].kind], d.slot))
	}
	if c != nil && !owned {
		c.Retain(w)
	}
	if tt.bypass {
		t := tt.newTask(w, key)
		t.SetInput(0, c)
		if g.causal {
			t.AddCause(w.CauseCtx())
			t.MarkReady()
		}
		w.Discovered()
		g.dispatch(w, t)
		return
	}
	slot := w.HTSlot()
	w.CountBucketLock()
	tt.ht.LockKey(slot, key)
	var t *rt.Task
	if e := tt.ht.NoLockFind(key); e != nil {
		t = e.Val.(*rt.Task)
		if mx := g.mx; mx != nil {
			mx.htFindHit.Inc(slot)
		}
	} else {
		t = tt.newTask(w, key)
		t.Entry.Val = t
		w.Discovered()
		tt.ht.NoLockInsert(slot, &t.Entry)
		if mx := g.mx; mx != nil {
			mx.htFindMiss.Inc(slot)
			mx.htInsert.Inc(slot)
		}
	}
	switch tt.slots[d.slot].kind {
	case slotAggregate:
		agg := t.Input(d.slot).Val.(*Aggregate)
		agg.items = append(agg.items, c)
	case slotStreaming:
		cell := t.Input(d.slot)
		cell.Val = tt.slots[d.slot].reduce(cell.Val, c.Val)
		c.Release(w) // streaming gives up copy tracking (§V-D1)
	default:
		t.SetInput(d.slot, c)
	}
	if g.causal {
		t.AddCause(w.CauseCtx())
	}
	ready := t.SatisfyDep(w, 1)
	if ready {
		if g.causal {
			t.MarkReady() // still under the bucket lock: span writes are owned
		}
		tt.ht.NoLockRemove(key)
		if mx := g.mx; mx != nil {
			mx.htRemove.Inc(slot)
		}
	}
	tt.ht.UnlockKey(slot, key)
	if ready {
		g.dispatch(w, t)
	}
}

// dispatch routes an eligible task: refresh its priority to the current
// bottom-level estimate, defer into the worker's ready bundle if bundling,
// else straight to the scheduler.
func (g *Graph) dispatch(w *rt.Worker, t *rt.Task) {
	if ps := g.prio; ps != nil {
		ps.refresh(w, t)
	}
	if w.Bundling() {
		w.Defer(t)
		return
	}
	w.Schedule(t)
}

// Pending returns how many task instances of this TT have been discovered
// but are still waiting for inputs (0 for hash-table-bypassed TTs, whose
// tasks are scheduled immediately).
func (tt *TT) Pending() int {
	if tt.ht == nil {
		return 0
	}
	return tt.ht.Len()
}

// PendingKeys returns up to limit keys of incomplete task instances — the
// first thing to look at when a graph hangs (typically an aggregator count
// that no producer satisfies).
func (tt *TT) PendingKeys(limit int) []uint64 {
	if tt.ht == nil {
		return nil
	}
	return tt.ht.Keys(limit)
}
