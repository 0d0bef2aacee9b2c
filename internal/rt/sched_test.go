package rt

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mkTasks builds n standalone tasks with the given priorities.
func mkTasks(prios ...int32) []*Task {
	out := make([]*Task, len(prios))
	for i, p := range prios {
		out[i] = &Task{Priority: p}
		out[i].SetKey(uint64(i))
	}
	return out
}

// chainOf links tasks into an intrusive chain.
func chainOf(ts ...*Task) *Task {
	for i := 0; i < len(ts)-1; i++ {
		ts[i].next = ts[i+1]
	}
	if len(ts) > 0 {
		ts[len(ts)-1].next = nil
	}
	return ts[0]
}

// drain pops everything from a queue.
func drainQueue(q *llpQueue, w *Worker) []int32 {
	var out []int32
	for {
		t := q.pop(w)
		if t == nil {
			return out
		}
		out = append(out, t.Priority)
	}
}

func testWorker() *Worker {
	r := New(Config{Workers: 1}.Normalize())
	return r.Workers()[0]
}

func TestLLPQueuePriorityOrder(t *testing.T) {
	w := testWorker()
	var q llpQueue
	for _, p := range []int32{5, 1, 9, 3, 9, 2} {
		q.push(w, &Task{Priority: p}, true)
	}
	got := drainQueue(&q, w)
	want := []int32{9, 9, 5, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
}

func TestLLPQueueLIFOWithoutPriorities(t *testing.T) {
	w := testWorker()
	var q llpQueue
	for _, p := range []int32{1, 2, 3} {
		q.push(w, &Task{Priority: p}, false)
	}
	got := drainQueue(&q, w)
	want := []int32{3, 2, 1} // pure LIFO
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LIFO order %v, want %v", got, want)
		}
	}
}

func TestLLPEqualPriorityNewestFirst(t *testing.T) {
	w := testWorker()
	var q llpQueue
	a := &Task{Priority: 5}
	b := &Task{Priority: 5}
	q.push(w, a, true)
	q.push(w, b, true)
	if q.pop(w) != b {
		t.Fatal("newer equal-priority task must run first (cache warmth)")
	}
}

func TestLLPPushChainMerges(t *testing.T) {
	w := testWorker()
	var q llpQueue
	q.push(w, &Task{Priority: 4}, true)
	q.push(w, &Task{Priority: 8}, true)
	chain := chainOf(mkTasks(9, 6, 2)...) // sorted descending
	q.pushChain(w, chain, true)
	got := drainQueue(&q, w)
	want := []int32{9, 8, 6, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged order %v, want %v", got, want)
		}
	}
}

func TestLLPPushChainNoPrioSplices(t *testing.T) {
	w := testWorker()
	var q llpQueue
	q.push(w, &Task{Priority: 1}, false)
	chain := chainOf(mkTasks(7, 8)...)
	q.pushChain(w, chain, false)
	got := drainQueue(&q, w)
	want := []int32{7, 8, 1} // chain spliced in front, then old head
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spliced order %v, want %v", got, want)
		}
	}
	q.pushChain(w, nil, false) // no-op
	if q.pop(w) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestSortChain(t *testing.T) {
	f := func(prios []int32) bool {
		if len(prios) == 0 {
			return true
		}
		head := chainOf(mkTasks(prios...)...)
		sorted := sortChain(head)
		var got []int32
		for t := sorted; t != nil; t = t.next {
			got = append(got, t.Priority)
		}
		if len(got) != len(prios) {
			return false
		}
		want := append([]int32(nil), prios...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortedProperty(t *testing.T) {
	f := func(a, b []int32) bool {
		sort.Slice(a, func(i, j int) bool { return a[i] > a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] > b[j] })
		var ca, cb *Task
		if len(a) > 0 {
			ca = chainOf(mkTasks(a...)...)
		}
		if len(b) > 0 {
			cb = chainOf(mkTasks(b...)...)
		}
		m := mergeSorted(ca, cb)
		var got []int32
		for t := m; t != nil; t = t.next {
			got = append(got, t.Priority)
		}
		want := append(append([]int32(nil), a...), b...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSortedPositions(t *testing.T) {
	// insert into empty, head, middle, tail.
	w := testWorker()
	_ = w
	h := insertSorted(nil, &Task{Priority: 5})
	h = insertSorted(h, &Task{Priority: 9}) // head
	h = insertSorted(h, &Task{Priority: 7}) // middle
	h = insertSorted(h, &Task{Priority: 1}) // tail
	var got []int32
	for t := h; t != nil; t = t.next {
		got = append(got, t.Priority)
	}
	want := []int32{9, 7, 5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insertSorted order %v", got)
		}
	}
}

func TestLLPSchedulerStealAdoptsChain(t *testing.T) {
	r := New(Config{Workers: 2, Sched: SchedLLP}.Normalize())
	s := r.sched.(*llp)
	w0 := r.Workers()[0]
	// Victim (worker 0) holds 3 tasks; worker 1 steals: it keeps the head
	// and adopts the remainder into its own queue.
	for _, p := range []int32{3, 2, 1} {
		s.Push(0, &Task{Priority: p})
	}
	t1 := s.Steal(1)
	if t1 == nil {
		t.Fatal("steal failed")
	}
	if s.Pop(1) == nil {
		t.Fatal("adopted chain missing from thief's queue")
	}
	if got := r.Workers()[1].Stats.Steals.Load(); got != 1 {
		t.Fatalf("steal count = %d", got)
	}
	// Victim's queue is now empty; its own pop misses.
	if s.Pop(0) != nil {
		t.Fatal("victim still holds tasks after whole-chain steal")
	}
	if s.Steal(0) == nil {
		t.Fatal("victim cannot steal back remaining task")
	}
	_ = w0
	if s.Name() != "LLP" {
		t.Fatal("Name")
	}
	if newLLP(r.Workers(), false).Name() != "LL" {
		t.Fatal("LL Name")
	}
}

func TestLFQEvictionKeepsHighPriority(t *testing.T) {
	r := New(Config{Workers: 1, Sched: SchedLFQ}.Normalize())
	s := r.sched.(*lfq)
	// Fill the bounded buffer with low priorities, then push a high one:
	// the high priority must stay local; a low one goes to the global FIFO.
	for i := 0; i < lfqBufCap; i++ {
		s.Push(0, &Task{Priority: 1})
	}
	s.Push(0, &Task{Priority: 99})
	got := s.Pop(0)
	if got == nil || got.Priority != 99 {
		t.Fatalf("expected high-priority task from local buffer, got %v", got)
	}
	// Drain: lfqBufCap tasks remain (buffer + overflow FIFO).
	n := 0
	for s.Pop(0) != nil {
		n++
	}
	if n != lfqBufCap {
		t.Fatalf("drained %d tasks, want %d", n, lfqBufCap)
	}
	if s.Name() != "LFQ" {
		t.Fatal("Name")
	}
}

func TestLFQPushChain(t *testing.T) {
	r := New(Config{Workers: 1, Sched: SchedLFQ}.Normalize())
	s := r.sched.(*lfq)
	chain := chainOf(mkTasks(1, 2, 3, 4, 5, 6)...)
	s.PushChain(0, chain, 6)
	n := 0
	for s.Pop(0) != nil {
		n++
	}
	if n != 6 {
		t.Fatalf("drained %d, want 6", n)
	}
}

func TestLFQStealFromBufferAndGlobal(t *testing.T) {
	r := New(Config{Workers: 2, Sched: SchedLFQ}.Normalize())
	s := r.sched.(*lfq)
	for i := 0; i < lfqBufCap+2; i++ { // overflow 2 into the global FIFO
		s.Push(0, &Task{Priority: int32(i)})
	}
	seen := 0
	for s.Steal(1) != nil {
		seen++
	}
	if seen != lfqBufCap+2 {
		t.Fatalf("thief recovered %d tasks, want %d", seen, lfqBufCap+2)
	}
}

func TestInjectorFIFO(t *testing.T) {
	var q injector
	ts := mkTasks(0, 0, 0)
	for _, tk := range ts {
		q.push(tk)
	}
	for i := range ts {
		got := q.pop()
		if got != ts[i] {
			t.Fatalf("injector not FIFO at %d", i)
		}
	}
	if q.pop() != nil {
		t.Fatal("empty injector returned a task")
	}
}

func TestSchedulerKindsRandomWorkload(t *testing.T) {
	// Push/pop a random workload through each scheduler and verify
	// conservation (every pushed task comes back exactly once).
	for _, kind := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		r := New(Config{Workers: 3, Sched: kind}.Normalize())
		s := r.sched
		rng := rand.New(rand.NewSource(42))
		const n = 5000
		seen := map[*Task]bool{}
		pushed := 0
		popped := 0
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				tk := &Task{Priority: int32(rng.Intn(10))}
				s.Push(rng.Intn(3), tk)
				pushed++
			} else {
				wid := rng.Intn(3)
				tk := s.Pop(wid)
				if tk == nil {
					tk = s.Steal(wid)
				}
				if tk != nil {
					if seen[tk] {
						t.Fatalf("%v: task delivered twice", kind)
					}
					seen[tk] = true
					popped++
				}
			}
		}
		for wid := 0; wid < 3; wid++ {
			for {
				tk := s.Pop(wid)
				if tk == nil {
					tk = s.Steal(wid)
				}
				if tk == nil {
					break
				}
				if seen[tk] {
					t.Fatalf("%v: task delivered twice in drain", kind)
				}
				seen[tk] = true
				popped++
			}
		}
		if popped != pushed {
			t.Fatalf("%v: pushed %d, popped %d", kind, pushed, popped)
		}
	}
}

func TestRuntimeAccessors(t *testing.T) {
	r := New(Config{Workers: 2, Sched: SchedLLP, BiasedRWLock: true}.Normalize())
	if r.SchedulerName() != "LLP" {
		t.Fatal("SchedulerName")
	}
	if r.Config().Workers != 2 {
		t.Fatal("Config")
	}
	if r.NewRW() == nil {
		t.Fatal("NewRW")
	}
	sw := r.ServiceWorker(0)
	if !sw.IsService() || sw.HTSlot() != 2 {
		t.Fatalf("service worker identity wrong: ID=%d htSlot=%d", sw.ID, sw.HTSlot())
	}
	if r.Workers()[1].HTSlot() != 1 || r.Workers()[1].IsService() {
		t.Fatal("worker identity wrong")
	}
	if sw.Runtime() != r {
		t.Fatal("Runtime backlink")
	}
	select {
	case <-r.Done():
		t.Fatal("Done closed before start")
	default:
	}
}

func TestCrossWorkerPoolReturn(t *testing.T) {
	r := New(Config{Workers: 2, UsePools: true}.Normalize())
	w0, w1 := r.Workers()[0], r.Workers()[1]
	// Allocate from w0's pool, free from w1 (remote return), then w0
	// re-acquires it through the shared stack.
	t1 := w0.TaskPool.Get(w0)
	w0.FreeTask(t1) // local: private list
	t2 := w0.TaskPool.Get(w0)
	if t2 != t1 {
		t.Fatal("local free list did not recycle")
	}
	t1.pool.Put(w1, t1) // remote return
	t3 := w0.TaskPool.Get(w0)
	if t3 != t1 {
		t.Fatal("remote return not recovered via shared stack")
	}
	// Copies: same dance.
	c := w0.NewCopy(1)
	c.Release(w1) // remote release at refcount zero
	c2 := w0.NewCopy(2)
	if c2 != c {
		t.Fatal("copy remote return not recovered")
	}
}

func TestScheduleChainFromWorkerAndService(t *testing.T) {
	r := New(Config{Workers: 1, Sched: SchedLLP}.Normalize())
	w := r.Workers()[0]
	chain := chainOf(mkTasks(3, 2, 1)...)
	w.ScheduleChain(chain, 3)
	n := 0
	for r.sched.Pop(0) != nil {
		n++
	}
	if n != 3 {
		t.Fatalf("worker chain: drained %d", n)
	}
	sw := r.ServiceWorker(0)
	chain2 := chainOf(mkTasks(5, 4)...)
	sw.ScheduleChain(chain2, 2)
	n = 0
	for r.inject.pop() != nil {
		n++
	}
	if n != 2 {
		t.Fatalf("service chain: injected %d", n)
	}
}

func TestStealOrderFlat(t *testing.T) {
	r := New(Config{Workers: 5}.Normalize())
	w := r.Workers()[2]
	order := stealOrder(w, 5, nil)
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	seen := map[int]bool{}
	for _, v := range order {
		if v == 2 || seen[v] {
			t.Fatalf("bad flat order %v", order)
		}
		seen[v] = true
	}
}
