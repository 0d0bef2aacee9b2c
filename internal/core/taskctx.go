package core

import (
	"fmt"

	"gottg/internal/rt"
)

// TaskContext is the body's handle on the executing task instance: key,
// inputs, and the send operations that feed successor tasks. It is a small
// value type; copying it is free.
type TaskContext struct {
	w  *rt.Worker
	t  *rt.Task
	tt *TT
}

// Key returns the executing task's key.
func (tc TaskContext) Key() uint64 { return tc.t.Key() }

// TTName returns the template task's name.
func (tc TaskContext) TTName() string { return tc.tt.name }

// Priority returns the executing task's scheduling priority: the per-key
// WithPriority value when the TT has one, otherwise the online bottom-level
// estimate (Config.AutoPriority) or zero.
func (tc TaskContext) Priority() int32 { return tc.t.Priority }

// Worker exposes the executing worker (worker-local allocation, stats).
func (tc TaskContext) Worker() *rt.Worker { return tc.w }

// Value returns the payload on plain input terminal `slot` (nil for
// control-flow activations).
func (tc TaskContext) Value(slot int) any {
	c := tc.t.Input(slot)
	if c == nil {
		return nil
	}
	return c.Val
}

// InputCopy returns the raw copy on input terminal `slot` (nil for pure
// control flow). The task owns one reference; use SendInput to transfer it.
func (tc TaskContext) InputCopy(slot int) *rt.Copy {
	return tc.t.Input(slot)
}

// Aggregate returns the accumulated items of an aggregator terminal.
func (tc TaskContext) Aggregate(slot int) *Aggregate {
	if tc.tt.slots[slot].kind != slotAggregate {
		panic(fmt.Sprintf("ttg: %s: input %d is not an aggregator terminal", tc.tt.name, slot))
	}
	return tc.t.Input(slot).Val.(*Aggregate)
}

// Abort aborts the executing graph with err: no further task bodies run,
// in-flight sends are dropped, and Wait returns the first recorded error.
// The body should return promptly after calling it.
func (tc TaskContext) Abort(err error) { tc.tt.g.Abort(err) }

// Aborting reports whether the graph is aborting — long-running bodies can
// poll it to stop early instead of wasting work.
func (tc TaskContext) Aborting() bool { return tc.tt.g.rtm.Aborting() }

// edgeFor validates and resolves an output terminal.
func (tc TaskContext) edgeFor(term int) *Edge {
	e := tc.tt.outs[term]
	if e == nil {
		panic(fmt.Sprintf("ttg: %s: output terminal %d not connected", tc.tt.name, term))
	}
	return e
}

// deliverAll sends c (consuming one owned reference) to every destination of
// e for key; fan-out destinations share the copy via refcounts.
func (tc TaskContext) deliverAll(e *Edge, key uint64, c *rt.Copy) {
	n := len(e.dests)
	if n == 0 {
		if c != nil {
			c.Release(tc.w)
		}
		return
	}
	g := tc.tt.g
	for i := 0; i < n-1; i++ {
		if c != nil {
			c.Retain(tc.w)
		}
		g.deliver(tc.w, e.dests[i], key, c, true)
	}
	g.deliver(tc.w, e.dests[n-1], key, c, true)
}

// Send wraps v in a fresh data copy and sends it through output terminal
// `term` to the successor task identified by key. This is the "copy"
// data-flow variant of Fig. 5: a new copy per hop.
func (tc TaskContext) Send(term int, key uint64, v any) {
	tc.deliverAll(tc.edgeFor(term), key, tc.w.NewCopy(v))
}

// SendControl sends a pure control-flow activation (no payload) through
// output terminal `term` — the paper's task-scaling benchmark path, which
// avoids all data lifetime management.
func (tc TaskContext) SendControl(term int, key uint64) {
	tc.deliverAll(tc.edgeFor(term), key, nil)
}

// SendInput forwards the data on input terminal `slot` through output
// terminal `term` — the "move" variant of Fig. 5. The first forward of a
// slot transfers the task's own reference (zero refcount traffic for a
// single successor); further forwards of the same slot retain.
func (tc TaskContext) SendInput(term int, key uint64, slot int) {
	c := tc.t.Input(slot)
	if c == nil {
		tc.SendControl(term, key)
		return
	}
	bit := uint32(1) << uint(slot)
	if tc.t.Flags&bit == 0 {
		tc.t.Flags |= bit // our reference moves to the successor
	} else {
		c.Retain(tc.w)
	}
	tc.deliverAll(tc.edgeFor(term), key, c)
}

// SendCopy sends an existing copy (for example an aggregator item) through
// output terminal `term`, sharing it by reference.
func (tc TaskContext) SendCopy(term int, key uint64, c *rt.Copy) {
	if c != nil {
		c.Retain(tc.w)
	}
	tc.deliverAll(tc.edgeFor(term), key, c)
}

// Broadcast sends the input on `slot` to multiple successor keys through
// `term` (reference-shared). It takes every reference the keys need before
// the first delivery: a successor may run, and release its reference, as
// soon as it is delivered, and a copy released to zero must never be
// retained again.
func (tc TaskContext) Broadcast(term int, keys []uint64, slot int) {
	c := tc.t.Input(slot)
	if c == nil || len(keys) == 0 {
		for _, k := range keys {
			tc.SendControl(term, k)
		}
		return
	}
	e := tc.edgeFor(term)
	refs := len(keys)
	if bit := uint32(1) << uint(slot); tc.t.Flags&bit == 0 {
		tc.t.Flags |= bit // our reference moves to one of the keys
		refs--
	}
	for ; refs > 0; refs-- {
		c.Retain(tc.w)
	}
	for _, k := range keys {
		tc.deliverAll(e, k, c)
	}
}

// SendInputMutable forwards input `slot` through `term` to a successor that
// will MUTATE the data. This is TTG's copy-tracking rule (paper §IV-E): if
// the executing task holds the only reference, ownership simply moves
// (zero-copy); otherwise a private copy is created with clone so concurrent
// readers are never invalidated.
func (tc TaskContext) SendInputMutable(term int, key uint64, slot int, clone func(v any) any) {
	c := tc.t.Input(slot)
	if c == nil {
		tc.SendControl(term, key)
		return
	}
	bit := uint32(1) << uint(slot)
	if tc.t.Flags&bit == 0 && c.Refs() == 1 {
		// Sole owner: move, exactly like SendInput.
		tc.t.Flags |= bit
		tc.deliverAll(tc.edgeFor(term), key, c)
		return
	}
	// Shared (or already moved once): the successor needs its own copy.
	tc.deliverAll(tc.edgeFor(term), key, tc.w.NewCopy(clone(c.Val)))
}
