package rt

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// waitAllParked blocks until every worker of r has announced itself parked
// (with no token in flight it is then blocked, or about to block, in park).
func waitAllParked(t *testing.T, r *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for int(r.idle.parked.Load()) != len(r.workers) {
		if time.Now().After(deadline) {
			t.Fatalf("workers did not park: parked=%d searching=%d of %d",
				r.idle.parked.Load(), r.idle.searching.Load(), len(r.workers))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitDoneOrDump joins the runtime, failing with every goroutine's stack if
// that takes longer than the timeout.
func waitDoneOrDump(t *testing.T, r *Runtime, timeout time.Duration) {
	t.Helper()
	joined := make(chan struct{})
	go func() {
		r.WaitDone()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(timeout):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatalf("WaitDone did not return within %v", timeout)
	}
}

// TestParkNoLostWakeup is the lost-wakeup stress: a worker with no running
// sibling parks after a single failed look, and an external goroutine injects
// single tasks whose bodies run for a seeded 0–2 µs, each one only after
// everything injected before it has started and a seeded gap of 0–200 µs
// (three in four under 2 µs) has passed — so an Inject keeps landing inside
// a worker's announce → re-check → block sequence, and a task whose wakeup
// is lost stays queued in front of sleeping workers with nothing behind it
// to wake them by accident. Every eighth task schedules three children from
// inside its body, which exercises the worker-to-worker wake. The watchdog
// fires when no task has run for 10 s and dumps all goroutine stacks.
func TestParkNoLostWakeup(t *testing.T) {
	inject := 20_000
	if testing.Short() {
		inject = 2_000
	}
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/%dw", sched, workers), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Workers: workers, Sched: sched, ThreadLocalTermDet: true,
					UsePools: true}.Normalize()
				r := New(cfg)
				var started, executed atomic.Int64
				leaf := func(w *Worker, tk *Task) {
					started.Add(1)
					for end := time.Now().Add(time.Duration(tk.Key())); time.Now().Before(end); {
					}
					executed.Add(1)
					w.Completed()
					w.FreeTask(tk)
				}
				parent := func(w *Worker, tk *Task) {
					for i := 0; i < 3; i++ {
						c := w.NewTask()
						c.Exec = leaf
						w.Discovered()
						w.Schedule(c)
					}
					leaf(w, tk)
				}
				r.BeginAction()
				r.Start(false)

				want := int64(inject + 3*((inject+7)/8))
				var stop atomic.Bool
				t.Cleanup(func() { stop.Store(true) })
				go func() {
					sw := r.ServiceWorker(0)
					rng := uint64(sched)*977 + uint64(workers)*31 + 1
					for i, sent := 0, int64(0); i < inject; i++ {
						for started.Load() != sent {
							if stop.Load() {
								return // the watchdog below reported a stall
							}
							runtime.Gosched()
						}
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						gap := time.Duration(rng >> 8 % 2_000)
						if rng&3 == 0 {
							gap = time.Duration(rng >> 8 % 200_000)
						}
						// Busy-wait: time.Sleep cannot sleep less than ~1 ms here.
						for end := time.Now().Add(gap); time.Now().Before(end); {
						}
						tk := sw.NewTask()
						tk.Exec = leaf
						tk.SetKey(rng >> 40 % 2_000)
						sent++
						if i%8 == 0 {
							tk.Exec = parent
							sent += 3
						}
						r.BeginAction()
						r.Inject(tk)
					}
					r.EndAction()
				}()

				joined := make(chan struct{})
				go func() {
					r.WaitDone()
					close(joined)
				}()
				last, lastAt := int64(-1), time.Now()
				for running := true; running; {
					select {
					case <-joined:
						running = false
					case <-time.After(100 * time.Millisecond):
						if n := executed.Load(); n != last {
							last, lastAt = n, time.Now()
						} else if time.Since(lastAt) > 10*time.Second {
							pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
							t.Fatalf("stalled at %d of %d tasks: parked=%d searching=%d inject=%d",
								n, want, r.idle.parked.Load(), r.idle.searching.Load(), r.inject.size.Load())
						}
					}
				}
				if got := executed.Load(); got != want {
					t.Fatalf("executed %d tasks, want %d", got, want)
				}
				if p, s := r.idle.parked.Load(), r.idle.searching.Load(); p != 0 || s < 0 || s > 1 {
					// A token sent just before termination may stay behind
					// with its searching unit; anything else is a leak.
					t.Fatalf("idle state after join: parked=%d searching=%d", p, s)
				}
			})
		}
	}
}

// TestWakeLatency: with every worker blocked in park, an Inject must start
// the task's body promptly — the median over 200 trials stays under 300 µs.
// (A worker that sleep-polls instead of being woken needs a timer quantum,
// 1 ms or more on Linux.)
func TestWakeLatency(t *testing.T) {
	cfg := Config{Workers: 2, Sched: SchedLLP, ThreadLocalTermDet: true,
		UsePools: true}.Normalize()
	r := New(cfg)
	started := make(chan time.Time, 1)
	exec := func(w *Worker, tk *Task) {
		started <- time.Now()
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	const trials = 200
	lat := make([]time.Duration, 0, trials)
	sw := r.ServiceWorker(0)
	for i := 0; i < trials; i++ {
		waitAllParked(t, r)
		tk := sw.NewTask()
		tk.Exec = exec
		r.BeginAction()
		t0 := time.Now()
		r.Inject(tk)
		select {
		case at := <-started:
			lat = append(lat, at.Sub(t0))
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: injected task never started (parked=%d searching=%d)",
				i, r.idle.parked.Load(), r.idle.searching.Load())
		}
	}
	r.EndAction()
	waitDoneOrDump(t, r, 10*time.Second)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[trials/2]
	t.Logf("Inject -> body start: median %v, p90 %v, max %v", median, lat[trials*9/10], lat[trials-1])
	if median >= 300*time.Microsecond {
		t.Fatalf("median wake latency %v, want < 300µs", median)
	}
	if _, _, parks := r.Stats(); parks < trials {
		t.Fatalf("Stats reports %d parks over %d trials that each found every worker parked", parks, trials)
	}
}

// TestChildOfRunningBodyWakesSleeper: a body that schedules one child and
// then keeps its worker busy must not keep the child to itself — the push
// wakes the parked worker, which steals the child and starts it while the
// parent body still runs. Here the parent blocks until the child has started,
// so a runtime that leaves the other worker asleep runs into the timeout.
func TestChildOfRunningBodyWakesSleeper(t *testing.T) {
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := Config{Workers: 2, Sched: sched, ThreadLocalTermDet: true,
				UsePools: true}.Normalize()
			r := New(cfg)
			childStarted := make(chan time.Time, 1)
			lat := make(chan time.Duration, 1)
			child := func(w *Worker, tk *Task) {
				childStarted <- time.Now()
				w.Completed()
				w.FreeTask(tk)
			}
			parent := func(w *Worker, tk *Task) {
				c := w.NewTask()
				c.Exec = child
				w.Discovered()
				t0 := time.Now()
				w.Schedule(c)
				select {
				case at := <-childStarted:
					lat <- at.Sub(t0)
				case <-time.After(2 * time.Second):
					lat <- -1
					<-childStarted // this worker runs the child after the body
				}
				w.Completed()
				w.FreeTask(tk)
			}
			r.BeginAction()
			r.Start(false)
			const trials = 50
			lats := make([]time.Duration, 0, trials)
			sw := r.ServiceWorker(0)
			for i := 0; i < trials; i++ {
				waitAllParked(t, r)
				tk := sw.NewTask()
				tk.Exec = parent
				r.BeginAction()
				r.Inject(tk)
				d := <-lat
				if d < 0 {
					t.Fatalf("trial %d: child did not start while its parent's body ran (parked=%d searching=%d)",
						i, r.idle.parked.Load(), r.idle.searching.Load())
				}
				lats = append(lats, d)
			}
			r.EndAction()
			waitDoneOrDump(t, r, 10*time.Second)
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			t.Logf("Schedule -> child start on the other worker: median %v, max %v", lats[trials/2], lats[trials-1])
			if lats[trials/2] >= time.Millisecond {
				t.Fatalf("median child start latency %v, want < 1ms", lats[trials/2])
			}
		})
	}
}

// TestStaleTokenIsNotAPark: a token left in the wake channel (the worker it
// was sent for found work in its re-check) is taken without blocking; only
// the block that follows counts in Stats.Parks.
func TestStaleTokenIsNotAPark(t *testing.T) {
	cfg := Config{Workers: 1, Sched: SchedLLP, ThreadLocalTermDet: true,
		UsePools: true}.Normalize()
	r := New(cfg)
	r.idle.searching.Store(1) // the unit a token carries
	r.wake <- struct{}{}
	r.Start(true)
	// The worker announces parked before it takes the token, and again
	// before it blocks: wait for the count, then give a second one time.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, _, parks := r.Stats(); parks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never blocked in park")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	waitAllParked(t, r)
	if _, _, parks := r.Stats(); parks != 1 {
		t.Fatalf("Stats reports %d parks, want 1: the worker blocked once", parks)
	}
	if s := r.idle.searching.Load(); s != 0 {
		t.Fatalf("searching=%d after the token was used up, want 0", s)
	}
	r.SignalDone()
	waitDoneOrDump(t, r, 10*time.Second)
}

// TestSignalDoneReleasesParkedWorkers: termination must reach workers that
// are blocked in park, not only those still spinning.
func TestSignalDoneReleasesParkedWorkers(t *testing.T) {
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := Config{Workers: 4, Sched: sched, ThreadLocalTermDet: true,
				UsePools: true}.Normalize()
			r := New(cfg)
			r.Start(true) // distributed: nobody but the test signals done
			waitAllParked(t, r)
			r.SignalDone()
			waitDoneOrDump(t, r, 10*time.Second)
			if !r.Joined() {
				t.Fatal("WaitDone returned without joining the workers")
			}
		})
	}
}

// TestAbortWithAllWorkersParked: an Abort that finds every worker asleep
// still drains — work injected afterwards wakes a worker, which discards it
// and accounts its completion — and the run reaches SignalDone through the
// termination detector as usual.
func TestAbortWithAllWorkersParked(t *testing.T) {
	cfg := Config{Workers: 4, Sched: SchedLLP, ThreadLocalTermDet: true,
		UsePools: true}.Normalize()
	r := New(cfg)
	var ran atomic.Int64
	exec := func(w *Worker, tk *Task) {
		ran.Add(1)
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	waitAllParked(t, r)
	boom := errors.New("abort while parked")
	r.Abort(boom)
	sw := r.ServiceWorker(0)
	const n = 64
	for i := 0; i < n; i++ {
		tk := sw.NewTask()
		tk.Exec = exec
		r.BeginAction()
		r.Inject(tk)
	}
	r.EndAction()
	waitDoneOrDump(t, r, 10*time.Second)
	if !errors.Is(r.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", r.Err(), boom)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d task bodies ran after Abort", ran.Load())
	}
	var discarded int64
	for _, w := range r.Workers() {
		discarded += w.Stats.Discarded.Load()
	}
	if discarded != n {
		t.Fatalf("discarded %d tasks, want %d", discarded, n)
	}
	if got, put := r.TaskBalance(); got != put {
		t.Fatalf("task leak: got %d, put %d", got, put)
	}
}

// popCounter counts the Pop calls its scheduler serves: every findTask
// starts with one, so the count is the number of looks a worker took.
type popCounter struct {
	scheduler
	pops atomic.Int64
}

func (c *popCounter) Pop(wid int) *Task {
	c.pops.Add(1)
	return c.scheduler.Pop(wid)
}

// TestLoneIdleWorkerParksWithoutSpinning: with no sibling running, an idle
// worker's only producers are goroutines that need the P it holds, so it
// parks at once — its first look in run and the re-check in park are the
// only two looks it takes before it blocks, and it takes a few per task it
// is woken for, not a spin's 2 048. Awake reads false while it is parked and
// true while it runs a task.
func TestLoneIdleWorkerParksWithoutSpinning(t *testing.T) {
	cfg := Config{Workers: 1, Sched: SchedLLP, ThreadLocalTermDet: true, UsePools: true}.Normalize()
	r := New(cfg)
	pc := &popCounter{scheduler: r.sched}
	r.sched = pc
	r.Start(true)
	waitAllParked(t, r)
	if n := pc.pops.Load(); n > 2 {
		t.Fatalf("lone worker took %d looks before it parked, want 2 (no spin)", n)
	}
	ran := make(chan bool)
	sw := r.ServiceWorker(0)
	const tasks = 20
	for i := 0; i < tasks; i++ {
		if r.Awake() {
			t.Fatal("Awake with the only worker parked")
		}
		tk := sw.NewTask()
		tk.Exec = func(w *Worker, tk *Task) {
			w.FreeTask(tk)
			ran <- r.Awake()
		}
		r.Inject(tk)
		if !<-ran {
			t.Fatal("not Awake while the only worker ran a task")
		}
		waitAllParked(t, r)
	}
	// A wake-up takes three looks — the woken look finds the task, the look
	// in run and the re-check in park find nothing — or four when the task
	// landed between the announce and the re-check and a stale token costs
	// one more round.
	if n := pc.pops.Load(); n > 2+4*tasks {
		t.Fatalf("lone worker took %d looks over %d wake-ups, want at most %d (no spin)", n, tasks, 2+4*tasks)
	}
	r.SignalDone()
	waitDoneOrDump(t, r, 10*time.Second)
}

// TestIdleWorkerBesideRunningSiblingSpins: while a sibling runs, an idle
// worker keeps spinning instead of parking, and takes the child the sibling
// pushes by stealing it — no park, no wake token. The parent first pushes a
// filler child, which wakes the other worker; once that worker has run the
// filler and is searching, the parent pushes the child proper and waits for
// it to start there. An attempt whose spin ran out before the push (a
// preempted parent) is retried.
func TestIdleWorkerBesideRunningSiblingSpins(t *testing.T) {
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := Config{Workers: 2, Sched: sched, ThreadLocalTermDet: true, UsePools: true}.Normalize()
			r := New(cfg)
			r.BeginAction()
			r.Start(false)
			sw := r.ServiceWorker(0)
			var failure string
			for attempt := 0; attempt < 3; attempt++ {
				waitAllParked(t, r)
				childOn := make(chan int, 1)
				result := make(chan string, 1)
				leaf := func(w *Worker, tk *Task) {
					w.Completed()
					w.FreeTask(tk)
				}
				child := func(w *Worker, tk *Task) {
					childOn <- w.ID
					leaf(w, tk)
				}
				parent := func(w *Worker, tk *Task) {
					defer leaf(w, tk)
					filler := w.NewTask()
					filler.Exec = leaf
					w.Discovered()
					w.Schedule(filler)
					for deadline := time.Now().Add(time.Second); r.idle.searching.Load() != 1 || r.idle.parked.Load() != 0; {
						if time.Now().After(deadline) {
							result <- "the sibling was never seen searching"
							return
						}
					}
					_, _, parks := r.Stats()
					c := w.NewTask()
					c.Exec = child
					w.Discovered()
					w.Schedule(c)
					select {
					case id := <-childOn:
						_, _, after := r.Stats()
						switch {
						case id == w.ID:
							result <- "the child ran on its parent's worker"
						case after != parks:
							result <- fmt.Sprintf("the sibling parked %d time(s) before it took the child", after-parks)
						case len(r.wake) != 0:
							result <- "a wake token was sent for the child"
						default:
							result <- ""
						}
					case <-time.After(time.Second):
						result <- "the child did not start while its parent ran"
						<-childOn // this worker runs it after the body
					}
				}
				tk := sw.NewTask()
				tk.Exec = parent
				r.BeginAction()
				r.Inject(tk)
				if failure = <-result; failure == "" {
					break
				}
				t.Logf("attempt %d: %s", attempt, failure)
			}
			r.EndAction()
			waitDoneOrDump(t, r, 10*time.Second)
			if failure != "" {
				t.Fatal(failure)
			}
		})
	}
}

// TestPollHookSpinsDeliversThenParks: a lone idle worker with a poll hook
// does not park at once. It polls once per spin round and parks when the
// spin runs out with nothing delivered; an Inject then still wakes it. A
// task its own poll delivers runs on it with no park and no wake token.
func TestPollHookSpinsDeliversThenParks(t *testing.T) {
	cfg := Config{Workers: 1, Sched: SchedLLP, ThreadLocalTermDet: true, UsePools: true}.Normalize()
	r := New(cfg)
	var polls atomic.Int64
	pending := make(chan *Task, 1)
	r.SetPollHook(func() bool {
		polls.Add(1)
		select {
		case tk := <-pending:
			r.Inject(tk)
			return true
		default:
			return false
		}
	})
	ran := make(chan string, 2)
	sw := r.ServiceWorker(0)
	polled := sw.NewTask()
	polled.Exec = func(w *Worker, tk *Task) {
		w.FreeTask(tk)
		ran <- "polled"
	}
	injected := sw.NewTask()
	injected.Exec = func(w *Worker, tk *Task) {
		pending <- polled // for this worker's next poll
		w.FreeTask(tk)
		ran <- "injected"
	}
	r.Start(true)
	waitAllParked(t, r)
	if n := polls.Load(); n != spinBeforePark-1 {
		t.Fatalf("the worker polled %d times before it parked, want a full spin (%d)", n, spinBeforePark-1)
	}
	r.Inject(injected)
	if got := <-ran; got != "injected" {
		t.Fatalf("ran %q first, want the injected task", got)
	}
	_, _, parks := r.Stats()
	select {
	case got := <-ran:
		if got != "polled" {
			t.Fatalf("ran %q, want the polled task", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the task the poll hook delivered never ran")
	}
	if _, _, after := r.Stats(); after != parks {
		t.Fatalf("the worker parked %d time(s) before it ran the task its poll delivered", after-parks)
	}
	if len(r.wake) != 0 {
		t.Fatal("a wake token was sent for the task the worker polled itself")
	}
	waitAllParked(t, r)
	r.SignalDone()
	waitDoneOrDump(t, r, 10*time.Second)
}
