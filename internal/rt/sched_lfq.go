package rt

import (
	"sync/atomic"

	"gottg/internal/xsync"
)

// lfqBufCap is the per-worker bounded-buffer capacity of the LFQ scheduler:
// PaRSEC's local flat queue depth. PaRSEC sizes these small (a handful of
// slots); overflow goes to the shared FIFO, which is precisely what makes
// LFQ collapse under task pressure (paper §V-C: "the vast majority of tasks
// end up in the overflow FIFO").
const lfqBufCap = 4

// lfqBuf is a worker's bounded buffer: a small max-heap of task slots
// ordered by Priority, protected by a spinlock (stealing requires
// cross-thread access, so even local operations must lock). The heap
// replaces the original full-buffer linear scans: pop is O(log cap) and
// insertion O(log cap); only the eviction path (buffer full, overflow
// decision) scans, and then only the heap's leaves. n mirrors the occupancy
// as an atomic so LocalNonEmpty (wakeForSurplus) can probe emptiness
// without touching the lock.
type lfqBuf struct {
	lock  xsync.SpinLock
	n     atomic.Int32
	slots []*Task // max-heap by Priority: slots[0] is the best
	_     [xsync.CacheLineSize - 32]byte
}

// heapPush inserts t, sifting up. Caller holds the lock and has checked
// capacity.
func (b *lfqBuf) heapPush(t *Task) {
	b.slots = append(b.slots, t)
	b.siftUp(len(b.slots) - 1)
}

func (b *lfqBuf) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.slots[p].Priority >= b.slots[i].Priority {
			break
		}
		b.slots[p], b.slots[i] = b.slots[i], b.slots[p]
		i = p
	}
}

// heapPop removes and returns the highest-priority task, or nil.
func (b *lfqBuf) heapPop() *Task {
	n := len(b.slots)
	if n == 0 {
		return nil
	}
	t := b.slots[0]
	last := b.slots[n-1]
	b.slots[n-1] = nil
	b.slots = b.slots[:n-1]
	if n > 1 {
		b.slots[0] = last
		b.siftDown(0)
	}
	return t
}

func (b *lfqBuf) siftDown(i int) {
	n := len(b.slots)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && b.slots[l].Priority > b.slots[m].Priority {
			m = l
		}
		if r < n && b.slots[r].Priority > b.slots[m].Priority {
			m = r
		}
		if m == i {
			return
		}
		b.slots[i], b.slots[m] = b.slots[m], b.slots[i]
		i = m
	}
}

// evictMin swaps t for the buffer's minimum-priority task when t beats it,
// returning the task that must overflow to the global FIFO (t itself when it
// does not qualify). The minimum of a max-heap lives among the leaves, so
// only those are scanned.
func (b *lfqBuf) evictMin(t *Task) *Task {
	n := len(b.slots)
	min := n / 2
	for i := n/2 + 1; i < n; i++ {
		if b.slots[i].Priority < b.slots[min].Priority {
			min = i
		}
	}
	if t.Priority <= b.slots[min].Priority {
		return t
	}
	out := b.slots[min]
	b.slots[min] = t
	b.siftUp(min)
	return out
}

// lfq is PaRSEC's local-flat-queues scheduler (§III-B): per-worker bounded
// buffers holding the highest-priority tasks, plus one globally locked
// overflow FIFO shared by all workers — the single point of contention the
// LLP scheduler was designed to remove.
type lfq struct {
	bufs []lfqBuf
	ws   []*Worker
	cap  int

	glock xsync.SpinLock
	ghead *Task
	gtail *Task
	gsize atomic.Int32
}

func newLFQ(workers []*Worker, bufCap int) *lfq {
	s := &lfq{bufs: make([]lfqBuf, len(workers)), ws: workers, cap: bufCap}
	for i := range s.bufs {
		s.bufs[i].slots = make([]*Task, 0, bufCap)
	}
	return s
}

// Push implements scheduler: keep the highest-priority tasks in the local
// bounded buffer; displace the lowest into the global FIFO.
func (s *lfq) Push(wid int, t *Task) {
	w := s.ws[wid]
	b := &s.bufs[wid]
	b.lock.Lock()
	w.countAtomic(&w.Atomics.Sched)
	if len(b.slots) < s.cap {
		b.heapPush(t)
		b.n.Store(int32(len(b.slots)))
		b.lock.Unlock()
		return
	}
	// Full: evict the minimum-priority task if t beats it.
	t = b.evictMin(t)
	b.lock.Unlock()
	s.pushGlobal(w, t)
}

// PushChain implements scheduler.
func (s *lfq) PushChain(wid int, head *Task, n int) {
	for head != nil {
		next := head.next
		head.next = nil
		s.Push(wid, head)
		head = next
	}
}

func (s *lfq) pushGlobal(w *Worker, t *Task) {
	s.glock.Lock()
	w.countAtomic(&w.Atomics.Sched)
	t.next = nil
	if s.gtail == nil {
		s.ghead, s.gtail = t, t
	} else {
		s.gtail.next = t
		s.gtail = t
	}
	s.gsize.Add(1)
	s.glock.Unlock()
}

func (s *lfq) popGlobal(w *Worker) *Task {
	s.glock.Lock()
	w.countAtomic(&w.Atomics.Sched)
	t := s.ghead
	if t != nil {
		s.ghead = t.next
		if s.ghead == nil {
			s.gtail = nil
		}
		t.next = nil
		s.gsize.Add(-1)
	}
	s.glock.Unlock()
	return t
}

// popBuf takes the highest-priority task from buffer b, or nil.
func (s *lfq) popBuf(w *Worker, b *lfqBuf) *Task {
	if !b.lock.TryLock() {
		return nil // busy: caller falls through to other sources
	}
	w.countAtomic(&w.Atomics.Sched)
	t := b.heapPop()
	b.n.Store(int32(len(b.slots)))
	b.lock.Unlock()
	return t
}

// Pop implements scheduler: local bounded buffer first.
func (s *lfq) Pop(wid int) *Task {
	w := s.ws[wid]
	b := &s.bufs[wid]
	b.lock.Lock()
	w.countAtomic(&w.Atomics.Sched)
	t := b.heapPop()
	b.n.Store(int32(len(b.slots)))
	b.lock.Unlock()
	if t != nil {
		return t
	}
	// Local buffer empty: fall back to the shared FIFO.
	return s.popGlobal(w)
}

// Steal implements scheduler: scan other workers' bounded buffers, then the
// global FIFO once more.
func (s *lfq) Steal(wid int) *Task {
	w := s.ws[wid]
	n := len(s.bufs)
	for _, v := range stealOrder(w, n, w.victimBuf()) {
		if t := s.popBuf(w, &s.bufs[v]); t != nil {
			w.Stats.Steals.Add(1)
			return t
		}
	}
	return s.popGlobal(w)
}

// DrainReady implements scheduler: empty every bounded buffer (blocking on
// each spinlock — unlike popBuf, a drain must not skip busy buffers) and the
// global FIFO, returning one descending-priority chain.
func (s *lfq) DrainReady(w *Worker) (*Task, int) {
	var all *Task
	n := 0
	for i := range s.bufs {
		b := &s.bufs[i]
		b.lock.Lock()
		w.countAtomic(&w.Atomics.Sched)
		for {
			t := b.heapPop()
			if t == nil {
				break
			}
			t.next = nil
			all = insertSorted(all, t)
			n++
		}
		b.n.Store(0)
		b.lock.Unlock()
	}
	for {
		t := s.popGlobal(w)
		if t == nil {
			break
		}
		all = insertSorted(all, t)
		n++
	}
	return all, n
}

// LocalNonEmpty implements scheduler: a lock-free probe of worker wid's
// visible work (its bounded buffer or the shared FIFO).
func (s *lfq) LocalNonEmpty(wid int) bool {
	return s.bufs[wid].n.Load() > 0 || s.gsize.Load() > 0
}

// Name implements scheduler.
func (s *lfq) Name() string { return "LFQ" }
