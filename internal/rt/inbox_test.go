package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// createdBy returns a standalone task that reads as taken from w's pool.
func createdBy(w *Worker, prio int32) *Task {
	return &Task{pool: &w.TaskPool, Priority: prio}
}

// TestCreatorAffinityRouting pins down where Push and PushChain put a task:
// a priority-0 task another worker created goes to its creator's inbox, and
// every other task to the pushing worker's chain. The owner drains its inbox
// only once its chain is empty; a thief takes a victim's inbox only when the
// victim's chain is empty; LocalNonEmpty sees the inbox.
func TestCreatorAffinityRouting(t *testing.T) {
	r := New(Config{Workers: 2, Sched: SchedLLP, UsePools: true})
	reg := r.EnableMetrics()
	s := r.sched.(*llp)
	w0, w1 := r.workers[0], r.workers[1]

	own := createdBy(w0, 0)
	prio := createdBy(w1, 3)
	unpooled := &Task{}
	service := createdBy(r.service[1], 0)
	home := createdBy(w1, 0)
	for _, tk := range []*Task{own, prio, unpooled, service, home} {
		s.Push(0, tk)
	}
	if got := s.queues[1].inbox.Load(); got != home || home.next != nil {
		t.Fatalf("worker 1's inbox holds %p, want only the task it created (%p)", got, home)
	}
	if s.queues[1].head.Load() != nil {
		t.Fatal("a routed task landed on its home's chain")
	}
	if !s.LocalNonEmpty(1) {
		t.Fatal("LocalNonEmpty misses a task in the inbox")
	}
	if n := reg.Snapshot().Counters["rt.sched.home"]; n != 1 {
		t.Fatalf("rt.sched.home = %d, want 1", n)
	}
	for i, want := range []*Task{prio, service, unpooled, own} {
		if got := s.Pop(0); got != want {
			t.Fatalf("pop %d of worker 0 returned %p, want %p", i, got, want)
		}
	}

	// A thief does not take the inbox while the victim's chain is full.
	more := createdBy(w0, 0)
	s.queues[1].push(w1, more, true)
	if got := s.Steal(0); got != more {
		t.Fatalf("steal took %p, want the victim's chain (%p)", got, more)
	}
	// With the victim's chain empty it does.
	if got := s.Steal(0); got != home {
		t.Fatalf("steal took %p, want the victim's inbox (%p)", got, home)
	}

	// PushChain splits the chain: tasks with another home leave it.
	a, b, c := createdBy(w1, 0), createdBy(w0, 0), createdBy(w1, 0)
	s.PushChain(0, chainOf(a, b, c), 3)
	if got := s.Pop(0); got != b {
		t.Fatalf("worker 0 popped %p, want the task it created (%p)", got, b)
	}
	if s.Pop(0) != nil {
		t.Fatal("worker 0 kept a task created by worker 1")
	}
	// The owner drains its inbox newest first, and only with its chain empty.
	d := createdBy(w1, 0)
	s.queues[1].push(w1, d, true)
	for i, want := range []*Task{d, c, a} {
		if got := s.Pop(1); got != want {
			t.Fatalf("pop %d of worker 1 returned %p, want %p", i, got, want)
		}
	}
	if s.Pop(1) != nil || s.LocalNonEmpty(1) {
		t.Fatal("worker 1's queue is not empty after draining")
	}
}

// holdSearcher wraps a scheduler so that a test can stop one searching
// worker inside Steal: once armed with a producer's ID, the first Steal by
// another worker while exactly one worker searches and one is parked blocks
// until release is closed. Holding it there keeps the runtime's searching
// count at 1, which is the state in which a producer skips its wake.
type holdSearcher struct {
	scheduler
	r       *Runtime
	armed   atomic.Int32 // producer's ID + 1; 0 when disarmed
	held    chan int
	release chan struct{}
}

func (h *holdSearcher) Steal(wid int) *Task {
	if a := h.armed.Load(); a != 0 && wid != int(a-1) &&
		h.r.idle.searching.Load() == 1 && h.r.idle.parked.Load() == 1 &&
		h.armed.CompareAndSwap(a, 0) {
		h.held <- wid
		<-h.release
	}
	return h.scheduler.Steal(wid)
}

// TestInboxNoLostWakeup forces the schedule in which a task routed to its
// creator's inbox can be lost. The creator (the home) is parked with its
// chain empty. A second worker is searching, so the producer's wake is
// skipped: nobody wakes the home. The producer then routes the task to the
// home's inbox. Only the searcher can run it, and only if a thief looks at
// inboxes. The producer waits in its body for the task to start, so the
// task must run on the searcher, with no wake token sent.
func TestInboxNoLostWakeup(t *testing.T) {
	for _, sched := range []SchedKind{SchedLLP, SchedLL} {
		t.Run(sched.String(), func(t *testing.T) {
			r := New(Config{Workers: 3, Sched: sched, ThreadLocalTermDet: true, UsePools: true})
			inner := r.sched.(*llp)
			hs := &holdSearcher{scheduler: inner, r: r, held: make(chan int, 1), release: make(chan struct{})}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(hs.release) }) }
			r.sched = hs
			r.BeginAction()
			r.Start(false)
			waitAllParked(t, r)

			leaf := func(w *Worker, tk *Task) {
				w.Completed()
				w.FreeTask(tk)
			}
			childOn := make(chan int, 1)
			result := make(chan string, 1)
			parent := func(w *Worker, tk *Task) {
				defer leaf(w, tk)
				hs.armed.Store(int32(w.ID) + 1)
				filler := w.NewTask()
				filler.Exec = leaf
				w.Discovered()
				w.Schedule(filler) // wakes the worker that becomes the searcher
				var searcher int
				select {
				case searcher = <-hs.held:
				case <-time.After(5 * time.Second):
					result <- "no worker was seen searching beside a parked one"
					return
				}
				home := 3 - w.ID - searcher // the third worker, parked
				child := createdBy(r.workers[home], 0)
				child.Exec = func(cw *Worker, ct *Task) {
					childOn <- cw.ID
					leaf(cw, ct)
				}
				w.Discovered()
				w.Schedule(child)
				routed := inner.queues[home].inbox.Load() == child
				tokens := len(r.wake)
				release()
				select {
				case id := <-childOn:
					switch {
					case !routed:
						result <- "the child was not routed to its creator's inbox"
					case tokens != 0:
						result <- "the producer's wake was not skipped: the schedule was not forced"
					case id != searcher:
						result <- fmt.Sprintf("the child ran on worker %d, want the searcher %d", id, searcher)
					default:
						result <- ""
					}
				case <-time.After(2 * time.Second):
					result <- "the child in the parked home's inbox did not start while its producer ran"
				}
			}
			tk := r.service[0].NewTask()
			tk.Exec = parent
			r.BeginAction()
			r.Inject(tk)
			failure := <-result
			if failure != "" {
				hs.armed.Store(0)
				release()
				r.SignalDone() // the child may be stranded: do not wait for quiescence
				r.WaitDone()
				t.Fatal(failure)
			}
			r.EndAction()
			waitDoneOrDump(t, r, 10*time.Second)
		})
	}
}

// TestInboxExactlyOnce is the inbox's exactly-once stress: three workers
// push tasks created by random workers (so about two in three go to another
// worker's inbox), singly and as chains, and pop and steal between pushes,
// while a service identity drains the whole scheduler now and then. Every
// task must be taken exactly once — by an owner's pop or inbox drain, a
// thief's chain or inbox take, or DrainReady.
func TestInboxExactlyOnce(t *testing.T) {
	const workers, perWorker = 3, 20_000
	r := New(Config{Workers: workers, Sched: SchedLLP, UsePools: true})
	s := r.sched.(*llp)
	var taken [workers * perWorker]atomic.Int32
	var dup atomic.Bool // a chain that hands a task out twice may be cyclic
	take := func(tk *Task) {
		for ; tk != nil && !dup.Load(); tk = tk.next {
			if taken[tk.Key()].Add(1) > 1 {
				dup.Store(true)
			}
		}
	}
	takeOne := func(tk *Task) {
		if tk != nil {
			if tk.next != nil {
				t.Errorf("task %d returned still linked", tk.Key())
			}
			take(tk)
		}
	}
	var pushing sync.WaitGroup
	stop := make(chan struct{})
	for wid := 0; wid < workers; wid++ {
		pushing.Add(1)
		go func(wid int) {
			defer pushing.Done()
			rng := uint64(wid)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			mk := func(i int) *Task {
				x := next()
				prio := int32(0)
				if x>>8%8 == 0 {
					prio = 1 // stays on the pushing worker's chain
				}
				tk := createdBy(r.workers[x%workers], prio)
				tk.SetKey(uint64(wid*perWorker + i))
				return tk
			}
			for i := 0; i < perWorker; {
				if x := next(); x%4 == 0 && i+3 <= perWorker {
					a, b, c := mk(i), mk(i+1), mk(i+2)
					s.PushChain(wid, sortChain(chainOf(a, b, c)), 3)
					i += 3
				} else {
					s.Push(wid, mk(i))
					i++
				}
				switch next() % 4 {
				case 0:
					takeOne(s.Pop(wid))
				case 1:
					takeOne(s.Steal(wid))
				}
			}
		}(wid)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sw := r.service[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			chain, _ := s.DrainReady(sw)
			take(chain)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	pushing.Wait()
	close(stop)
	<-drained
	for wid := 0; wid < workers && !dup.Load(); wid++ {
		for tk := s.Pop(wid); tk != nil && !dup.Load(); tk = s.Pop(wid) {
			takeOne(tk)
		}
	}
	if !dup.Load() {
		chain, _ := s.DrainReady(r.service[0])
		take(chain)
	}
	for k := range taken {
		if n := taken[k].Load(); n != 1 {
			t.Fatalf("task %d was taken %d times, want exactly once", k, n)
		}
	}
}
