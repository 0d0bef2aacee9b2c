package core

import (
	"gottg/internal/rt"
	"gottg/internal/xsync"
)

// aggInline is how many items an Aggregate holds before its item list moves
// to the heap: enough for the Task-Bench stencil's three producers.
const aggInline = 4

// Aggregate is the accumulated input of an aggregator terminal (paper
// §V-D1): count(key) data items collected before the task runs. Items keep
// their TTG-managed copies (no deep copies); their arrival order is
// unspecified — bodies that care must order by information stored in the
// payloads (the paper's sorted_insert pattern).
//
// count(key) is called once per task instance. The pointer returned by
// TaskContext.Aggregate is valid only while the body runs: afterwards the
// items are released and the Aggregate is recycled for another task.
type Aggregate struct {
	items []*rt.Copy
	need  int
	buf   [aggInline]*rt.Copy // items' backing array until they outgrow it
	next  *Aggregate          // free-list link while recycled
}

// Len returns the number of accumulated items.
func (a *Aggregate) Len() int { return len(a.items) }

// Need returns the configured number of items for this task.
func (a *Aggregate) Need() int { return a.need }

// Value returns item i's payload.
func (a *Aggregate) Value(i int) any { return a.items[i].Val }

// Copy returns item i's raw copy (to forward with TaskContext.SendCopy).
func (a *Aggregate) Copy(i int) *rt.Copy { return a.items[i] }

// Values appends all payloads to dst and returns it (convenience).
func (a *Aggregate) Values(dst []any) []any {
	for _, c := range a.items {
		dst = append(dst, c.Val)
	}
	return dst
}

// aggFreeListMax caps one worker identity's free list. A graph whose tasks
// are built on one worker and retired on another drains the builder's list
// and fills the retirer's; the cap bounds what the retirer keeps.
const aggFreeListMax = 1024

// aggFreeList is one worker identity's recycled Aggregates (indexed by
// HTSlot, padded to a cache line). Only that identity's goroutine touches it.
type aggFreeList struct {
	head *Aggregate
	n    int
	_    [xsync.CacheLineSize - 16]byte
}

// newAggregate returns an empty Aggregate for need items, recycled from w's
// free list when aggregator pooling is on. Its items start in the inline
// array and grow by append, so a count — trusted or decoded — never sizes an
// allocation up front.
func (g *Graph) newAggregate(w *rt.Worker, need int) *Aggregate {
	var a *Aggregate
	if g.aggs != nil {
		fl := &g.aggs[w.HTSlot()]
		if a = fl.head; a != nil {
			fl.head, a.next = a.next, nil
			fl.n--
		}
	}
	if a == nil {
		a = &Aggregate{}
	}
	a.need = need
	a.items = a.buf[:0]
	return a
}

// freeAggregate clears a — no stale item pointer survives into the next task
// — and, when reuse is true and pooling is on, pushes it onto w's free list.
func (g *Graph) freeAggregate(w *rt.Worker, a *Aggregate, reuse bool) {
	*a = Aggregate{}
	if !reuse || g.aggs == nil {
		return
	}
	fl := &g.aggs[w.HTSlot()]
	if fl.n < aggFreeListMax {
		a.next, fl.head = fl.head, a
		fl.n++
	}
}

// releaseInputs drops the task's references to its inputs: aggregator items
// and their cell (the Aggregate goes back to the free list), streaming
// accumulators (their items were released on arrival) and plain inputs.
// Slots the body moved on to a successor are skipped. Task execution, steal
// donation and abort discard all retire inputs through here.
func (g *Graph) releaseInputs(w *rt.Worker, t *rt.Task) {
	tt := t.TT.(*TT)
	for i := 0; i < tt.nIn; i++ {
		c := t.Input(i)
		if c == nil || t.Flags&(1<<uint(i)) != 0 {
			continue
		}
		if tt.slots[i].kind == slotAggregate {
			agg := c.Val.(*Aggregate)
			for _, item := range agg.items {
				item.Release(w)
			}
			// Recycle only when this reference is the cell's last: a body
			// that forwarded the cell itself shares the Aggregate.
			g.freeAggregate(w, agg, c.Refs() == 1)
		}
		c.Release(w)
	}
}
