package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// namedTT is a minimal frontend descriptor for TaskError naming.
type namedTT struct{ name string }

func (n *namedTT) Name() string { return n.name }

func TestPanicBecomesTaskError(t *testing.T) {
	// One task out of many panics; the runtime must abort, drain, reach
	// quiescence, and report a structured TaskError — with no leaked task or
	// copy objects.
	for _, sched := range []SchedKind{SchedLLP, SchedLFQ, SchedLL} {
		for _, tl := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/tl=%v", sched, tl), func(t *testing.T) {
				cfg := Config{Workers: 4, Sched: sched, ThreadLocalTermDet: tl, UsePools: true}.Normalize()
				r := New(cfg)
				tt := &namedTT{name: "victim"}
				const n = 2000
				const badKey = 1234
				// The epilogue is plain code after the body logic (as in
				// core's ttExecute) — a panic unwinds past it, and the
				// runtime's discard takes over the cleanup + accounting.
				exec := func(w *Worker, tk *Task) {
					if tk.Key() == badKey {
						panic("intentional test panic")
					}
					for i := 0; i < tk.NumInputs(); i++ {
						if c := tk.Input(i); c != nil {
							c.Release(w)
						}
					}
					w.Completed()
					w.FreeTask(tk)
				}
				r.BeginAction()
				r.Start(false)
				sw := r.ServiceWorker(0)
				for i := 0; i < n; i++ {
					tk := sw.NewTask()
					tk.Exec = exec
					tk.TT = tt
					tk.SetKey(uint64(i))
					tk.SetNumInputs(1)
					tk.SetInput(0, sw.NewCopy(i))
					r.BeginAction()
					r.Inject(tk)
				}
				r.EndAction()
				r.WaitDone()

				err := r.Err()
				if err == nil {
					t.Fatal("Err() == nil after a task panic")
				}
				var te *TaskError
				if !errors.As(err, &te) {
					t.Fatalf("Err() = %v (%T), want *TaskError", err, err)
				}
				if te.TTName != "victim" || te.Key != badKey {
					t.Fatalf("TaskError names %s(key=%#x), want victim(key=%#x)", te.TTName, te.Key, badKey)
				}
				if len(te.Stack) == 0 {
					t.Fatal("TaskError carries no stack trace")
				}
				if !strings.Contains(err.Error(), "victim") || !strings.Contains(err.Error(), "intentional test panic") {
					t.Fatalf("error text %q lacks TT name or panic value", err.Error())
				}
				if got, put := r.TaskBalance(); got != put {
					t.Fatalf("task leak: got %d, put %d", got, put)
				}
				if got, put := r.CopyBalance(); got != put {
					t.Fatalf("copy leak: got %d, put %d", got, put)
				}
				var panics int64
				for _, w := range r.Workers() {
					panics += w.Stats.Panics.Load()
				}
				if panics != 1 {
					t.Fatalf("recorded %d panics, want 1", panics)
				}
			})
		}
	}
}

func TestAbortDrainsWithoutExecuting(t *testing.T) {
	// After Abort, workers discard what they dequeue: completions are still
	// accounted (quiescence fires) but bodies do not run.
	cfg := Config{Workers: 2, UsePools: true}.Normalize()
	r := New(cfg)
	bodyRan := atomic.Int64{}
	exec := func(w *Worker, tk *Task) {
		bodyRan.Add(1)
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	cause := errors.New("operator says stop")
	r.Abort(cause)
	sw := r.ServiceWorker(0)
	const n = 512
	for i := 0; i < n; i++ {
		tk := sw.NewTask()
		tk.Exec = exec
		tk.SetNumInputs(1)
		tk.SetInput(0, sw.NewCopy(i))
		r.BeginAction()
		r.Inject(tk)
	}
	r.EndAction()
	r.WaitDone()
	if bodyRan.Load() != 0 {
		t.Fatalf("%d task bodies ran after Abort", bodyRan.Load())
	}
	if err := r.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err() = %v, want %v", err, cause)
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
	if got, put := r.CopyBalance(); got != put {
		t.Fatalf("copy leak: got %d, put %d", got, put)
	}
}

func TestAbortAggregatesErrorsAndHookFiresOnce(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	var hookCalls atomic.Int64
	var hookErr error
	r.SetOnAbort(func(err error) {
		hookCalls.Add(1)
		hookErr = err
	})
	first := errors.New("first")
	second := errors.New("second")
	r.Abort(first)
	r.Abort(second)
	r.Abort(nil)
	if !r.Aborting() {
		t.Fatal("Aborting() false after Abort")
	}
	// Concurrent failures are aggregated, not truncated to the first cause.
	if err := r.Err(); !errors.Is(err, first) || !errors.Is(err, second) {
		t.Fatalf("Err() = %v, want both recorded errors joined", err)
	}
	if hookCalls.Load() != 1 {
		t.Fatalf("abort hook fired %d times, want 1", hookCalls.Load())
	}
	if hookErr != first {
		t.Fatalf("abort hook saw %v, want the first error", hookErr)
	}
	if r.SuppressedErrors() != 0 {
		t.Fatalf("SuppressedErrors() = %d below the cap, want 0", r.SuppressedErrors())
	}
}

func TestAbortSingleErrorIsPointerStable(t *testing.T) {
	// With exactly one recorded reason Err must return it unwrapped, so
	// callers that compare with == keep working.
	r := New(Config{Workers: 1}.Normalize())
	cause := errors.New("only")
	r.Abort(cause)
	if r.Err() != cause {
		t.Fatalf("Err() = %v, want the identical error value", r.Err())
	}
}

func TestAbortErrorCapCountsSuppressed(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	for i := 0; i < maxAbortErrors+5; i++ {
		r.Abort(fmt.Errorf("failure %d", i))
	}
	if got := r.SuppressedErrors(); got != 5 {
		t.Fatalf("SuppressedErrors() = %d, want 5", got)
	}
	err := r.Err()
	if !errors.Is(err, err) || err == nil {
		t.Fatal("Err() = nil after aborts")
	}
	// The first and the last retained reason are both present.
	if !strings.Contains(err.Error(), "failure 0") || !strings.Contains(err.Error(), fmt.Sprintf("failure %d", maxAbortErrors-1)) {
		t.Fatalf("joined error missing retained reasons:\n%v", err)
	}
	if strings.Contains(err.Error(), fmt.Sprintf("failure %d", maxAbortErrors)) {
		t.Fatalf("joined error contains a reason past the cap:\n%v", err)
	}
}

func TestDiscardRespectsMovedInputFlags(t *testing.T) {
	// The default discard path must not release inputs whose reference was
	// moved into the body's ownership already (Flags bit set) — mirroring the
	// executed-path convention.
	cfg := Config{Workers: 1, UsePools: true}.Normalize()
	r := New(cfg)
	sw := r.ServiceWorker(0)
	moved := sw.NewCopy("moved")
	kept := sw.NewCopy("kept")
	tk := sw.NewTask()
	tk.SetNumInputs(2)
	tk.SetInput(0, moved)
	tk.SetInput(1, kept)
	tk.Flags = 1 << 0 // slot 0 moved: discard must leave it alone
	r.BeginAction()   // balanced by the Completed() the discard accounts
	r.discard(sw, tk)
	if kept.Refs() != 0 {
		t.Fatalf("unmoved input still holds %d refs after discard", kept.Refs())
	}
	if moved.Refs() != 1 {
		t.Fatalf("moved input refs = %d, want 1 (discard must not touch it)", moved.Refs())
	}
	moved.Release(sw)
	if got, put := r.CopyBalance(); got != put {
		t.Fatalf("copy leak: got %d, put %d", got, put)
	}
}

func TestTaskErrorUnwrap(t *testing.T) {
	sentinel := errors.New("wrapped cause")
	te := &TaskError{TTName: "x", Key: 7, Value: sentinel}
	if !errors.Is(te, sentinel) {
		t.Fatal("TaskError does not unwrap to the panic's error value")
	}
	plain := &TaskError{TTName: "x", Key: 7, Value: "just a string"}
	if errors.Unwrap(plain) != nil {
		t.Fatal("non-error panic value must not unwrap")
	}
}
