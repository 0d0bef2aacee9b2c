package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the root's parent, and what
// a nil recorder hands out).
type spanID int

// span is one interval at a layer boundary as seen from the benchmark's own
// files: a rep, one of its phases, or one block of probe calls.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     spanID
	run        int // spans of one rep (or one probe) share a run id
	lane       int // 0 = harness goroutine, 1+r = rank r's driver goroutine
}

// recorder keeps spans in memory until the run ends; a nil *recorder records
// nothing, which is how the untraced run stays untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent spanID, run, lane int) spanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, run: run, lane: lane})
	return spanID(len(r.spans))
}

func (r *recorder) end(id spanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// timestamps are microseconds. The span's own id, its parent and its run id
// ride in args, where chrome://tracing and Perfetto show them on click.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write dumps every finished span as Chrome-trace JSON.
func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			continue // a failed rep may leave a phase open
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i + 1, "parent": int(s.parent), "run": s.run},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
