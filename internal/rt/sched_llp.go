package rt

import (
	"sync/atomic"

	"gottg/internal/xsync"
)

// llpQueue is one worker's Local LIFO with Priorities (paper §IV-C), plus
// the inbox through which other workers hand it the tasks it created.
//
// Invariants of the chain (head):
//   - only the owning worker pushes;
//   - the chain hanging off head is always sorted by descending Priority,
//     with newer tasks ahead of equal-priority older tasks (cache warmth);
//   - stealers and the owner remove via CAS/Swap on head only.
//
// Invariants of the inbox:
//   - any worker pushes, with one CAS (an MPSC Treiber stack on t.next);
//     only priority-0 tasks go there, so a drained inbox is a sorted chain;
//   - the owner drains it with one Swap, and only when its chain is empty:
//     the first task runs, the rest becomes the chain;
//   - a thief takes a victim's inbox with one Swap, and only when the
//     victim's chain is empty, and adopts it like a stolen chain.
//
// Every mutating operation follows the paper's detach/modify/reattach
// discipline, generalized to the whole API for memory safety under task
// recycling: the operator detaches the entire chain with one atomic Swap
// (marking the LIFO empty), mutates it privately, and — if it is the queue's
// owner — reattaches with a plain atomic Store. This is ABA-free and never
// dereferences a node it does not exclusively own: after the Swap, no other
// thread holds a path to the chain (stealers can only Swap the head, which
// is now nil), so freed-and-recycled tasks can never be touched. The inbox
// push is the one CAS loop, and it is ABA-free too: it only links its own
// task in front of whatever head it read, and nodes leave the inbox only
// by a Swap of the whole stack.
//
// Cost per owner push/pop: one atomic RMW (the Swap) plus one atomic store —
// the same order as the paper's single-CAS fast path. Head and inbox sit on
// cache lines of their own, so producers' CASes on the inbox do not evict
// the line the owner swaps on every push and pop.
type llpQueue struct {
	head  atomic.Pointer[Task]
	_     [xsync.CacheLineSize - 8]byte
	inbox atomic.Pointer[Task]
	_     [xsync.CacheLineSize - 8]byte
}

func (q *llpQueue) push(w *Worker, t *Task, prio bool) {
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	t.next = nil
	if h == nil {
		q.head.Store(t)
		return
	}
	if !prio || t.Priority >= h.Priority {
		// Fast path: new task belongs at the head (LIFO order; for equal
		// priorities newer-first keeps cache-warm data early).
		t.next = h
		q.head.Store(t)
		return
	}
	q.head.Store(insertSorted(h, t))
}

// pushChain inserts an already-sorted chain of tasks in one detach/merge.
func (q *llpQueue) pushChain(w *Worker, chain *Task, prio bool) {
	if chain == nil {
		return
	}
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	switch {
	case h == nil:
		q.head.Store(chain)
	case !prio:
		tail := chain
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = h
		q.head.Store(chain)
	default:
		q.head.Store(mergeSorted(chain, h))
	}
}

// pop takes the owner's next task: the chain's head, or, once the chain is
// empty, the inbox, whose remainder becomes the chain.
func (q *llpQueue) pop(w *Worker) *Task {
	if q.head.Load() != nil {
		h := q.head.Swap(nil)
		// The Swap is an atomic RMW whether or not it won the race with a
		// stealer — account it unconditionally or the N_OP-per-task model is
		// fed an undercount (empty-queue polls never reach the Swap and
		// correctly cost nothing).
		w.countAtomic(&w.Atomics.Sched)
		if h != nil {
			// Owner-only reattach: nothing can have been pushed meanwhile
			// (pushes are owner-only and the owner is here).
			if rest := h.next; rest != nil {
				q.head.Store(rest)
			}
			h.next = nil
			return h
		}
		// Lost to a stealer between the check and the swap.
	}
	h := q.takeInbox(w)
	if h == nil {
		return nil
	}
	// The chain is empty and stays so (only the owner pushes to it), and a
	// drained inbox is a sorted chain of priority-0 tasks.
	if rest := h.next; rest != nil {
		q.head.Store(rest)
	}
	h.next = nil
	return h
}

// pushInbox hands t to the queue's owner from any worker: one CAS.
func (q *llpQueue) pushInbox(w *Worker, t *Task) {
	for {
		h := q.inbox.Load()
		t.next = h
		w.countAtomic(&w.Atomics.Sched)
		if q.inbox.CompareAndSwap(h, t) {
			return
		}
	}
}

// takeInbox detaches the whole inbox, newest first. The owner calls it when
// its chain is empty, a thief when the victim's chain is.
func (q *llpQueue) takeInbox(w *Worker) *Task {
	if q.inbox.Load() == nil {
		return nil
	}
	h := q.inbox.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	return h
}

// stealChain detaches the victim's whole chain.
func (q *llpQueue) stealChain(w *Worker) *Task {
	if q.head.Load() == nil {
		return nil
	}
	// As in pop: the Swap RMW happened even if another thief emptied the
	// queue first, so it is accounted unconditionally.
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	return h
}

// stealAll detaches the victim's whole chain, or its inbox when the chain is
// empty. The thief keeps the first task and adopts the remainder into its
// own queue; see llp.Steal.
func (q *llpQueue) stealAll(w *Worker) *Task {
	if h := q.stealChain(w); h != nil {
		return h
	}
	return q.takeInbox(w)
}

// insertSorted inserts t into the descending-priority chain h, before older
// tasks of equal priority, and returns the new head. The chain is private to
// the caller. O(N) worst case, mitigated by pushChain bundling.
func insertSorted(h *Task, t *Task) *Task {
	if h == nil || t.Priority >= h.Priority {
		t.next = h
		return t
	}
	cur := h
	for cur.next != nil && cur.next.Priority > t.Priority {
		cur = cur.next
	}
	t.next = cur.next
	cur.next = t
	return h
}

// mergeSorted merges two descending-priority chains, preferring nodes from a
// (the newer chain) on ties.
func mergeSorted(a, b *Task) *Task {
	var head, tail *Task
	appendTask := func(t *Task) {
		if tail == nil {
			head, tail = t, t
		} else {
			tail.next = t
			tail = t
		}
	}
	for a != nil && b != nil {
		if a.Priority >= b.Priority {
			n := a.next
			appendTask(a)
			a = n
		} else {
			n := b.next
			appendTask(b)
			b = n
		}
	}
	rest := a
	if rest == nil {
		rest = b
	}
	if tail == nil {
		return rest
	}
	tail.next = rest
	return head
}

// SortChain sorts a private task chain by descending priority (stable,
// newest-first among equals) — used to pre-sort bundles before PushChain
// (the paper's §IV-C mitigation for O(N) priority insertion).
func SortChain(head *Task) *Task { return sortChain(head) }

// sortChain sorts a private chain by descending priority (stable), used to
// pre-sort bundles before PushChain. Insertion sort: bundles are small.
func sortChain(head *Task) *Task {
	var sorted *Task
	var sortedTail *Task
	for head != nil {
		n := head.next
		head.next = nil
		if sorted == nil {
			sorted, sortedTail = head, head
		} else if head.Priority <= sortedTail.Priority {
			// common case: appending in discovery order
			sortedTail.next = head
			sortedTail = head
		} else {
			sorted = insertSorted(sorted, head)
			for sortedTail.next != nil {
				sortedTail = sortedTail.next
			}
		}
		head = n
	}
	return sorted
}

// llp is the LLP (or LL, when prio is false) scheduler: one llpQueue per
// worker plus round-robin stealing.
//
// Creator affinity: a priority-0 task that a worker readies but another
// worker created (took from its task pool, on the task's first delivery) is
// pushed to its creator's inbox instead of the readying worker's chain. The
// creator wrote the task, its inputs and its aggregates last, so running it
// there saves the coherence misses of running it elsewhere. Tasks with a
// priority, tasks of a service identity and unpooled tasks take the chain.
type llp struct {
	queues []llpQueue
	prio   bool
	ws     []*Worker
}

func newLLP(workers []*Worker, prio bool) *llp {
	return &llp{queues: make([]llpQueue, len(workers)), prio: prio, ws: workers}
}

// home returns the worker whose inbox t goes to when worker wid readies it,
// or -1 for wid's own chain.
func (s *llp) home(wid int, t *Task) int {
	if t.pool == nil || t.Priority != 0 {
		return -1
	}
	h := t.pool.owner.ID
	if h < 0 || h == wid {
		return -1
	}
	return h
}

// pushHome sends t to worker h's inbox on behalf of w.
func (s *llp) pushHome(w *Worker, h int, t *Task) {
	s.queues[h].pushInbox(w, t)
	if m := w.mx; m != nil {
		m.schedHome.Inc(w.htSlot)
	}
}

// Push implements scheduler.
func (s *llp) Push(wid int, t *Task) {
	w := s.ws[wid]
	if h := s.home(wid, t); h >= 0 {
		s.pushHome(w, h, t)
		return
	}
	s.queues[wid].push(w, t, s.prio)
}

// PushChain implements scheduler; the chain must be priority-sorted. Tasks
// with another home leave it for their inboxes; the rest stays sorted.
func (s *llp) PushChain(wid int, head *Task, n int) {
	w := s.ws[wid]
	var keep *Task
	link := &keep
	for t := head; t != nil; {
		next := t.next
		if h := s.home(wid, t); h >= 0 {
			s.pushHome(w, h, t)
		} else {
			*link = t
			link = &t.next
		}
		t = next
	}
	*link = nil
	s.queues[wid].pushChain(w, keep, s.prio)
}

// Pop implements scheduler.
func (s *llp) Pop(wid int) *Task {
	return s.queues[wid].pop(s.ws[wid])
}

// Steal implements scheduler: scan other workers; on a hit, take the whole
// chain (or, when it is empty, the whole inbox), keep the head task, and
// adopt the rest locally. Adopting (rather than re-publishing to the victim)
// keeps the operation ABA-free with a single Swap; the paper steals single
// tasks, which our adoption subsumes — a starving thief by definition has an
// empty queue to put them in. Adopted tasks are never re-routed home.
func (s *llp) Steal(wid int) *Task {
	w := s.ws[wid]
	n := len(s.queues)
	for _, v := range stealOrder(w, n, w.victimBuf()) {
		if chain := s.queues[v].stealAll(w); chain != nil {
			w.Stats.Steals.Add(1)
			rest := chain.next
			chain.next = nil
			if rest != nil {
				s.queues[wid].pushChain(w, rest, s.prio)
			}
			return chain
		}
	}
	return nil
}

// DrainReady implements scheduler: detach every per-worker chain and inbox
// with the same single-Swap discipline as stealAll and merge them into one
// descending-priority chain. After each Swap the chain is exclusively owned,
// so the merge never races with workers.
func (s *llp) DrainReady(w *Worker) (*Task, int) {
	var all *Task
	for i := range s.queues {
		q := &s.queues[i]
		if chain := q.stealChain(w); chain != nil {
			all = mergeSorted(all, chain)
		}
		if inbox := q.takeInbox(w); inbox != nil {
			all = mergeSorted(all, inbox)
		}
	}
	n := 0
	for t := all; t != nil; t = t.next {
		n++
	}
	return all, n
}

// LocalNonEmpty implements scheduler: atomic loads of the worker's own
// queue head and inbox.
func (s *llp) LocalNonEmpty(wid int) bool {
	q := &s.queues[wid]
	return q.head.Load() != nil || q.inbox.Load() != nil
}

// Name implements scheduler.
func (s *llp) Name() string {
	if s.prio {
		return "LLP"
	}
	return "LL"
}
