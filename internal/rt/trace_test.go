package rt

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
)

// named is a minimal frontend descriptor for trace tests.
type named string

func (n named) Name() string { return string(n) }

func TestTracingRecordsEveryTask(t *testing.T) {
	cfg := Config{Workers: 2, ThreadLocalTermDet: true, UsePools: true}.Normalize()
	r := New(cfg)
	r.EnableTracing()
	var budget atomic.Int64
	budget.Store(500)
	var exec ExecFn
	exec = func(w *Worker, tk *Task) {
		if budget.Add(-1) > 0 {
			nt := w.NewTask()
			nt.Exec = exec
			nt.TT = named("chain")
			nt.SetKey(uint64(budget.Load()))
			w.Discovered()
			w.Schedule(nt)
		}
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	r.BeginAction()
	seed := &Task{Exec: exec, TT: named("chain")}
	r.Inject(seed)
	r.EndAction()
	r.WaitDone()
	evs := r.Trace()
	executed, _, _ := r.Stats()
	if int64(len(evs)) != executed {
		t.Fatalf("traced %d events, executed %d tasks", len(evs), executed)
	}
	for _, e := range evs {
		if e.Name != "chain" {
			t.Fatalf("event name %q", e.Name)
		}
		if e.Dur < 0 {
			t.Fatalf("negative duration %v", e.Dur)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	cfg := Config{Workers: 1, UsePools: true}.Normalize()
	r := New(cfg)
	r.EnableTracing()
	exec := func(w *Worker, tk *Task) {
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	for i := 0; i < 10; i++ {
		r.BeginAction()
		tk := &Task{Exec: exec, TT: named("work")}
		tk.SetKey(uint64(i))
		r.Inject(tk)
	}
	r.EndAction()
	r.WaitDone()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]uint64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 10 {
		t.Fatalf("trace has %d events, want 10", len(doc.TraceEvents))
	}
	keys := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Name != "work" || e.Ph != "X" {
			t.Fatalf("bad event %+v", e)
		}
		keys[e.Args["key"]] = true
	}
	if len(keys) != 10 {
		t.Fatalf("expected 10 distinct keys, got %d", len(keys))
	}
}

func TestTracingDisabledIsFree(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	if r.Trace() != nil {
		t.Fatal("Trace non-nil without EnableTracing")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("WriteChromeTrace should be a no-op without tracing")
	}
}

func TestEnableTracingAfterStartPanics(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	r.BeginAction()
	r.Start(false)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableTracing after Start did not panic")
		}
		r.EndAction()
		r.WaitDone()
	}()
	r.EnableTracing()
}
