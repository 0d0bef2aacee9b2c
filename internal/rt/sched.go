package rt

import (
	"sync"
	"sync/atomic"
)

// scheduler maps eligible tasks to workers (paper §III-B). Implementations
// must support concurrent Push from any worker and Pop/Steal by the owning
// worker.
type scheduler interface {
	// Push makes t eligible, submitted by worker wid.
	Push(wid int, t *Task)
	// PushChain pushes a priority-sorted chain of n tasks (head..via next)
	// in one operation (the paper's bundled sorted-list insertion).
	PushChain(wid int, head *Task, n int)
	// Pop returns work for worker wid from its local structures, or nil.
	Pop(wid int) *Task
	// Steal finds work for starving worker wid anywhere else, or nil.
	Steal(wid int) *Task
	// DrainReady detaches every queued-but-not-started task, returning the
	// chain (linked via next, highest priority first where the scheduler
	// tracks priorities) and its length. Used by inter-rank work stealing to
	// extract a donation slice; w supplies accounting identity and may be a
	// service worker. Safe concurrently with worker Pop/Steal.
	DrainReady(w *Worker) (*Task, int)
	// LocalNonEmpty reports (lock-free, approximately) whether worker wid
	// would find work without stealing — wakeForSurplus's probe for work
	// left behind the task a waking worker took.
	LocalNonEmpty(wid int) bool
	// Name identifies the scheduler in output.
	Name() string
}

// stealOrder yields the victim scan order for worker w: every other worker
// once, rotated from a pseudo-random start so thieves spread over victims.
func stealOrder(w *Worker, n int, buf []int) []int {
	buf = buf[:0]
	start := int(w.nextVictim() % uint64(n))
	for i := 0; i < n; i++ {
		if v := (start + i) % n; v != w.ID {
			buf = append(buf, v)
		}
	}
	return buf
}

func newScheduler(cfg Config, workers []*Worker) scheduler {
	switch cfg.Sched {
	case SchedLFQ:
		return newLFQ(workers, lfqBufCap)
	case SchedLL:
		return newLLP(workers, false)
	default:
		return newLLP(workers, true)
	}
}

// injector is the MPSC side entrance for tasks activated by non-workers
// (graph seeding from the main goroutine, remote activations delivered by
// the communication thread). Workers drain it when their local queues miss.
// A mutex suffices: this path is off the task-to-task fast path by design,
// exactly like PaRSEC's handoff from the communication thread.
type injector struct {
	mu   sync.Mutex
	head *Task
	tail *Task
	size atomic.Int32
}

func (q *injector) push(t *Task) {
	q.mu.Lock()
	t.next = nil
	if q.tail == nil {
		q.head, q.tail = t, t
	} else {
		q.tail.next = t
		q.tail = t
	}
	q.mu.Unlock()
	q.size.Add(1)
}

func (q *injector) pop() *Task {
	if q.size.Load() == 0 { // cheap miss: polled frequently by idle workers
		return nil
	}
	q.mu.Lock()
	t := q.head
	if t != nil {
		q.head = t.next
		if q.head == nil {
			q.tail = nil
		}
		t.next = nil
	}
	q.mu.Unlock()
	if t != nil {
		q.size.Add(-1)
	}
	return t
}
