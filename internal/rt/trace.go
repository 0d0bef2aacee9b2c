package rt

import (
	"fmt"
	"io"
	"time"

	"gottg/internal/metrics"
)

// Named lets frontends label their template-task descriptors for tracing
// (core.TT and ptg.Class implement it).
type Named interface{ Name() string }

// TraceEvent is one executed task instance.
type TraceEvent struct {
	// Name is the frontend descriptor's name ("?" if unlabeled).
	Name string
	// Key is the task key.
	Key uint64
	// Worker executed the task.
	Worker int
	// Start is the task start time.
	Start time.Time
	// Dur is the execution duration.
	Dur time.Duration

	// Causal fields, populated only under EnableCausalTracing.

	// SpanID identifies this execution within its rank (0 when causal
	// tracing is off). Globally a span is keyed (rank, SpanID).
	SpanID uint64
	// Discovered is when the task object was created (first input arrived or
	// the task was seeded); Ready is when its last dependence was satisfied.
	// Start-Ready is the scheduler queue wait, Ready-Discovered the
	// dependence wait.
	Discovered time.Time
	Ready      time.Time
	// Causes lists the predecessor activations that satisfied this task's
	// inputs, one per delivered datum.
	Causes []TraceCause
}

// TraceCause records one input-satisfying activation of a task: which span
// produced the datum, where it ran, how it traveled, and when it arrived.
type TraceCause struct {
	// SpanID is the producer's span id. It can be 0 only for remotely
	// delivered data whose producer ran outside any span (Frame is non-zero
	// then); purely local spanless deliveries — seeds, FT replay — record no
	// cause at all, so roots are recognizable by an empty Causes slice.
	SpanID uint64
	// Rank is the producer's rank.
	Rank int
	// Frame is the comm batch-frame id that carried the activation (0 for
	// local, same-rank activations).
	Frame uint64
	// At is when the datum was attached to the consumer task.
	At time.Time
}

// CauseCtx is the ambient "who is producing right now" context a frontend
// sets on a Worker while it delivers activations: the executing span for
// local sends, or the decoded wire origin on the comm receive worker.
type CauseCtx struct {
	SpanID uint64
	Rank   int
	Frame  uint64
}

// taskSpan is the per-task causal record, allocated at task creation when
// causal tracing is on and moved into the TraceEvent at execution.
type taskSpan struct {
	id         uint64
	discovered time.Time
	ready      time.Time
	causes     []TraceCause
}

// tracer collects per-worker event logs without synchronization; each
// worker appends only to its own slice.
type tracer struct {
	perWorker [][]TraceEvent
}

func newTracer(workers int) *tracer {
	return &tracer{perWorker: make([][]TraceEvent, workers)}
}

// EnableTracing switches on per-task tracing. Must be called before Start;
// adds two clock reads per task.
func (r *Runtime) EnableTracing() {
	if r.started.Load() {
		panic("rt: EnableTracing after Start")
	}
	r.trace = newTracer(r.cfg.Workers)
}

// EnableCausalTracing switches on causal tracing: every task created through
// Worker.NewTask carries a span (id, discovery/ready timestamps, and the
// causes the frontend attaches via Task.AddCause), recorded into the
// TraceEvent at execution. Implies EnableTracing. This is an explicitly
// paid-for profiling mode — it allocates one span per task. Must be called
// before Start.
func (r *Runtime) EnableCausalTracing() {
	if r.started.Load() {
		panic("rt: EnableCausalTracing after Start")
	}
	if r.trace == nil {
		r.EnableTracing()
	}
	r.causal = true
}

// CausalTracing reports whether causal tracing is on.
func (r *Runtime) CausalTracing() bool { return r.causal }

// newSpan allocates a causal span for a task created by this worker.
// Span ids pack the creating worker's lock slot (unique across workers and
// service identities) above a per-worker sequence number, so id allocation
// needs no synchronization and ids stay unique within the rank.
func (w *Worker) newSpan() *taskSpan {
	w.spanSeq++
	return &taskSpan{
		id:         uint64(w.htSlot+1)<<48 | w.spanSeq,
		discovered: time.Now(),
	}
}

// SpanID returns the task's causal span id (0 when causal tracing is off).
func (t *Task) SpanID() uint64 {
	if t.span == nil {
		return 0
	}
	return t.span.id
}

// AddCause records one input-satisfying activation on the task's span,
// stamped with the current time. The caller must hold whatever lock guards
// the task's inputs (the discovery-table bucket lock, or single-owner
// access). No-op when causal tracing is off, and for the zero CauseCtx:
// a datum delivered outside any producer span or comm frame (a seed fed
// from Invoke, an FT replay) is a root, and roots are expressed by the
// absence of causes — recording one would fabricate a rank-0 producer.
func (t *Task) AddCause(c CauseCtx) {
	if t.span == nil || (c.SpanID == 0 && c.Frame == 0) {
		return
	}
	t.span.causes = append(t.span.causes, TraceCause{
		SpanID: c.SpanID,
		Rank:   c.Rank,
		Frame:  c.Frame,
		At:     time.Now(),
	})
}

// MarkReady stamps the moment the task's last dependence was satisfied (the
// first call wins; later calls are no-ops, as is the whole method when
// causal tracing is off).
func (t *Task) MarkReady() {
	if t.span == nil || !t.span.ready.IsZero() {
		return
	}
	t.span.ready = time.Now()
}

// SetCauseCtx installs the ambient producer context used by AddCause
// callers on this worker; CauseCtx reads it back. Frontends save/restore
// around task execution and around decoding remote activations.
// Owner-goroutine only.
func (w *Worker) SetCauseCtx(c CauseCtx) { w.causeCtx = c }

// CauseCtx returns the worker's current producer context.
func (w *Worker) CauseCtx() CauseCtx { return w.causeCtx }

// recordNamed appends a trace event to the worker's private log. The task
// object itself may already be recycled when this runs; callers capture the
// TT descriptor and key before execution.
func (w *Worker) recordNamed(tt any, key uint64, start time.Time, dur time.Duration, span *taskSpan) {
	tr := w.rt.trace
	name := "?"
	if n, ok := tt.(Named); ok {
		name = n.Name()
	}
	ev := TraceEvent{
		Name:   name,
		Key:    key,
		Worker: w.ID,
		Start:  start,
		Dur:    dur,
	}
	if span != nil {
		ev.SpanID = span.id
		ev.Discovered = span.discovered
		ev.Ready = span.ready
		ev.Causes = span.causes
	}
	tr.perWorker[w.ID] = append(tr.perWorker[w.ID], ev)
}

// Trace returns all recorded events. The per-worker logs are owner-written
// without synchronization, so this refuses to read them until the workers
// have been joined (WaitDone); before that it returns nil.
func (r *Runtime) Trace() []TraceEvent {
	if r.trace == nil || !r.joined.Load() {
		return nil
	}
	var out []TraceEvent
	for _, evs := range r.trace.perWorker {
		out = append(out, evs...)
	}
	return out
}

// ChromeEvents converts the recorded task events into Chrome trace-viewer
// records (pid distinguishes ranks when merging traces from several
// processes; tid is the worker ID). Only valid after WaitDone; returns nil
// before the workers are joined.
func (r *Runtime) ChromeEvents(pid int) []metrics.ChromeEvent {
	if r.trace == nil || !r.joined.Load() {
		return nil
	}
	var evs []metrics.ChromeEvent
	for wid, list := range r.trace.perWorker {
		for _, e := range list {
			args := map[string]any{"key": e.Key}
			if e.SpanID != 0 {
				args["span"] = e.SpanID
			}
			evs = append(evs, metrics.ChromeEvent{
				Name:  e.Name,
				Cat:   "task",
				Phase: "X",
				Start: e.Start,
				Dur:   e.Dur,
				Pid:   pid,
				Tid:   wid,
				Args:  args,
			})
		}
	}
	return evs
}

// WriteChromeTrace dumps the recorded events in Chrome trace-viewer JSON
// (load via chrome://tracing or Perfetto). Only safe after WaitDone; returns
// an error before the workers are joined.
func (r *Runtime) WriteChromeTrace(w io.Writer) error {
	if r.trace == nil {
		return nil
	}
	if !r.joined.Load() {
		return fmt.Errorf("rt: WriteChromeTrace before WaitDone")
	}
	return metrics.WriteChromeTrace(w, r.ChromeEvents(0))
}
