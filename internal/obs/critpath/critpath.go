// Package critpath walks the causal span DAG recorded by the runtime's
// causal tracing mode (rt.EnableCausalTracing via core.EnableCausalTracing),
// finds the weighted critical path, and attributes its length into task-body
// time, scheduler queue-wait, and communication latency.
//
// The attribution is exact by construction: a cursor sweeps forward along
// the critical path and every nanosecond between the first span's start and
// the last span's end is charged to exactly one bucket, so
//
//	BodyNs + QueueNs + CommNs == LenNs
//
// holds identically. The per-task overhead figure ((LenNs-BodyNs) divided
// over the path's tasks) is the quantity the paper's "hundreds of clock
// cycles per task" claim is about; callers cross-check it against
// internal/perfmodel (Eq. 1) and the CountAtomics audit.
package critpath

import (
	"fmt"
	"time"

	"gottg/internal/metrics"
	"gottg/internal/rt"
)

// Span is one executed task instance with causal metadata, the unit the
// analysis operates on. Spans are globally identified by (Rank, SpanID).
type Span struct {
	Rank   int
	Worker int
	SpanID uint64
	Name   string
	Key    uint64

	// Discovered is task-object creation (first input arrived or seeded),
	// Ready the satisfaction of the last dependence, Start/End the execution
	// window. Discovered and Ready may be zero for spans recorded without
	// causal tracing.
	Discovered time.Time
	Ready      time.Time
	Start      time.Time
	End        time.Time

	Causes []Cause
}

// Cause is one input-satisfying activation: the producer span, where it ran,
// the comm frame that carried it (0 for local), and when the datum was
// attached to the consumer.
type Cause struct {
	SpanID uint64
	Rank   int
	Frame  uint64
	At     time.Time
}

// FromTrace converts one rank's recorded trace into spans, keeping only
// events that carry causal metadata (SpanID != 0).
func FromTrace(rank int, evs []rt.TraceEvent) []Span {
	spans := make([]Span, 0, len(evs))
	for _, e := range evs {
		if e.SpanID == 0 {
			continue
		}
		s := Span{
			Rank:       rank,
			Worker:     e.Worker,
			SpanID:     e.SpanID,
			Name:       e.Name,
			Key:        e.Key,
			Discovered: e.Discovered,
			Ready:      e.Ready,
			Start:      e.Start,
			End:        e.Start.Add(e.Dur),
		}
		if len(e.Causes) > 0 {
			s.Causes = make([]Cause, len(e.Causes))
			for i, c := range e.Causes {
				s.Causes[i] = Cause{SpanID: c.SpanID, Rank: c.Rank, Frame: c.Frame, At: c.At}
			}
		}
		spans = append(spans, s)
	}
	return spans
}

// PathStep is one critical-path task together with the per-hop attribution
// of the time between the previous step's effective end and this step's
// completion.
type PathStep struct {
	Span *Span
	// Cause is the critical input: the last-arriving activation among this
	// span's causes (zero-valued for the path's root).
	Cause Cause
	// CommNs/QueueNs/BodyNs attribute the cursor advance that this step
	// contributed (see Report).
	CommNs  int64
	QueueNs int64
	BodyNs  int64
}

// Report is the critical-path analysis result.
type Report struct {
	// Spans is how many causal spans the analysis saw; Tasks how many lie on
	// the critical path.
	Spans int `json:"spans"`
	Tasks int `json:"tasks"`

	// LenNs is the critical path's length: last end minus first start along
	// the path. BodyNs+QueueNs+CommNs == LenNs exactly.
	LenNs   int64 `json:"len_ns"`
	BodyNs  int64 `json:"body_ns"`
	QueueNs int64 `json:"queue_ns"`
	CommNs  int64 `json:"comm_ns"`

	// RemoteHops counts path edges that crossed ranks (their Cause carries a
	// comm frame id).
	RemoteHops int `json:"remote_hops"`

	// PerTaskOverheadNs is the non-body critical-path time divided over the
	// path's tasks: (QueueNs+CommNs)/Tasks — the runtime's effective
	// per-task management overhead along the chain that bounded the run.
	PerTaskOverheadNs float64 `json:"per_task_overhead_ns"`

	// Path is the critical path in execution order (not serialized into
	// BENCH records; used for flow export and tests).
	Path []PathStep `json:"-"`
}

// spanKey globally identifies a span.
type spanKey struct {
	rank int
	id   uint64
}

// Analyze finds the critical path through spans (from any number of ranks)
// and attributes its length. It returns an error when no causal spans are
// present.
func Analyze(spans []Span) (*Report, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("critpath: no causal spans recorded (was EnableCausalTracing on?)")
	}
	index := make(map[spanKey]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		index[spanKey{s.Rank, s.SpanID}] = s
	}

	// The path terminates at the latest-ending span that caused nothing:
	// a consumer stolen by another worker can finish before its producer's
	// span closes (the producer still cleans up after the send), so the
	// latest end alone may name a span one or two tasks short of the sink.
	// Walk backward from there choosing, at each span, the last-arriving
	// resolvable cause — the input whose delivery gated this task's
	// readiness.
	producer := make(map[spanKey]bool, len(spans))
	for i := range spans {
		for _, c := range spans[i].Causes {
			if c.SpanID != 0 {
				producer[spanKey{c.Rank, c.SpanID}] = true
			}
		}
	}
	var last *Span
	for i := range spans {
		s := &spans[i]
		if !producer[spanKey{s.Rank, s.SpanID}] && (last == nil || s.End.After(last.End)) {
			last = s
		}
	}
	if last == nil {
		return nil, fmt.Errorf("critpath: every span is named as a cause (causal records cycle)")
	}
	type hop struct {
		span  *Span
		cause Cause // the critical cause that produced span's gating input
	}
	var rev []hop
	visited := make(map[spanKey]bool)
	cur := last
	for cur != nil {
		k := spanKey{cur.Rank, cur.SpanID}
		if visited[k] {
			break // defensive: causal records cannot cycle, but never loop
		}
		visited[k] = true
		var crit Cause
		var prev *Span
		for _, c := range cur.Causes {
			if c.SpanID == 0 {
				continue // root activation (seed, or a producer outside tracing)
			}
			p, ok := index[spanKey{c.Rank, c.SpanID}]
			if !ok {
				continue
			}
			if prev == nil || c.At.After(crit.At) {
				crit, prev = c, p
			}
		}
		rev = append(rev, hop{span: cur, cause: crit})
		cur = prev
	}
	// Reverse into execution order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}

	rep := &Report{Spans: len(spans), Tasks: len(rev), Path: make([]PathStep, 0, len(rev))}
	cursor := rev[0].span.Start
	for i, h := range rev {
		step := PathStep{Span: h.span}
		if i > 0 {
			step.Cause = h.cause
			// Hand-off from the previous step's cursor to this span's start:
			// [cursor, at] is communication/delivery latency (the gating
			// datum was still in flight), [at, start] is scheduler wait (the
			// task was deliverable but not yet running). Clamps keep the
			// cursor monotone; a consumer that started before its producer
			// ended (the datum was sent mid-body) yields an empty hand-off.
			target := h.span.Start
			if target.After(cursor) {
				at := h.cause.At
				if at.Before(cursor) {
					at = cursor
				}
				if at.After(target) {
					at = target
				}
				step.CommNs = at.Sub(cursor).Nanoseconds()
				step.QueueNs = target.Sub(at).Nanoseconds()
				rep.CommNs += step.CommNs
				rep.QueueNs += step.QueueNs
				cursor = target
			}
			if h.cause.Frame != 0 {
				rep.RemoteHops++
			}
		}
		// Body: the part of this span's execution window past the cursor.
		if h.span.End.After(cursor) {
			from := h.span.Start
			if from.Before(cursor) {
				from = cursor
			}
			step.BodyNs = h.span.End.Sub(from).Nanoseconds()
			rep.BodyNs += step.BodyNs
			cursor = h.span.End
		}
		rep.Path = append(rep.Path, step)
	}
	rep.LenNs = rep.BodyNs + rep.QueueNs + rep.CommNs
	if rep.Tasks > 0 {
		rep.PerTaskOverheadNs = float64(rep.QueueNs+rep.CommNs) / float64(rep.Tasks)
	}
	return rep, nil
}

// FlowEvents renders every resolvable producer→consumer causal edge as a
// Chrome flow-event pair: an "s" (flow start) bound inside the producer's
// task slice and an "f" (flow finish, bp:"e") bound to the consumer's slice
// start. Merged with the task "X" events (rt.ChromeEvents per rank), the
// trace viewer draws arrows linking spans across workers and ranks.
func FlowEvents(spans []Span) []metrics.ChromeEvent {
	index := make(map[spanKey]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		index[spanKey{s.Rank, s.SpanID}] = s
	}
	var out []metrics.ChromeEvent
	var seq uint64
	for i := range spans {
		consumer := &spans[i]
		for _, c := range consumer.Causes {
			if c.SpanID == 0 {
				continue
			}
			producer, ok := index[spanKey{c.Rank, c.SpanID}]
			if !ok {
				continue
			}
			// Bind the flow start inside the producer's slice: local sends
			// happen mid-body anyway; remote deliveries are stamped on the
			// consumer rank's clock and are clamped back into the window.
			at := c.At
			if at.After(producer.End) {
				at = producer.End
			}
			if at.Before(producer.Start) {
				at = producer.Start
			}
			seq++
			args := map[string]any{"producer": producer.Name, "consumer": consumer.Name}
			if c.Frame != 0 {
				args["frame"] = c.Frame
			}
			out = append(out,
				metrics.ChromeEvent{
					Name: "dep", Cat: "flow", Phase: "s",
					Start: at, Pid: producer.Rank, Tid: producer.Worker, ID: seq, Args: args,
				},
				metrics.ChromeEvent{
					Name: "dep", Cat: "flow", Phase: "f", BP: "e",
					Start: consumer.Start, Pid: consumer.Rank, Tid: consumer.Worker, ID: seq,
				})
		}
	}
	return out
}
