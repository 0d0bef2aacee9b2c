package critpath

import (
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/core"
	"gottg/internal/rt"
)

// ms is a test helper: t0 + n milliseconds.
func at(t0 time.Time, n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }

// TestAnalyzeChainExact checks the exact attribution on a hand-built
// three-task chain with one remote hop:
//
//	A [0,10)  --local, at 8-->  B [12,20)  --frame 7, at 22-->  C [25,30)
//
// The cursor sweep charges B's hand-off entirely to queue (the datum arrived
// before A finished by B's clock, clamped to A's end) and splits C's into
// 2ms comm (20→22) and 3ms queue (22→25).
func TestAnalyzeChainExact(t *testing.T) {
	t0 := time.Now()
	spans := []Span{
		{Rank: 0, Worker: 0, SpanID: 1, Name: "A", Start: t0, End: at(t0, 10)},
		{Rank: 0, Worker: 1, SpanID: 2, Name: "B", Start: at(t0, 12), End: at(t0, 20),
			Causes: []Cause{{SpanID: 1, Rank: 0, At: at(t0, 8)}}},
		{Rank: 1, Worker: 0, SpanID: 3, Name: "C", Start: at(t0, 25), End: at(t0, 30),
			Causes: []Cause{{SpanID: 2, Rank: 0, Frame: 7, At: at(t0, 22)}}},
	}
	rep, err := Analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 3 || rep.Tasks != 3 {
		t.Fatalf("spans %d / tasks %d, want 3/3", rep.Spans, rep.Tasks)
	}
	names := ""
	for _, s := range rep.Path {
		names += s.Span.Name
	}
	if names != "ABC" {
		t.Fatalf("path %q, want ABC", names)
	}
	ms := int64(time.Millisecond)
	if rep.LenNs != 30*ms || rep.BodyNs != 23*ms || rep.QueueNs != 5*ms || rep.CommNs != 2*ms {
		t.Fatalf("len %d body %d queue %d comm %d, want 30/23/5/2 ms",
			rep.LenNs, rep.BodyNs, rep.QueueNs, rep.CommNs)
	}
	if rep.BodyNs+rep.QueueNs+rep.CommNs != rep.LenNs {
		t.Fatal("attribution does not telescope")
	}
	if rep.RemoteHops != 1 {
		t.Fatalf("remote hops %d, want 1", rep.RemoteHops)
	}
	if want := float64(7*ms) / 3; rep.PerTaskOverheadNs != want {
		t.Fatalf("per-task overhead %v, want %v", rep.PerTaskOverheadNs, want)
	}
}

// TestAnalyzeConsumerEndsBeforeProducer: C is made ready by B's send at 14,
// stolen by the other worker and finished at 18, while B's span only closes
// at 20 (it still cleans up after the send). The latest-ending span is B,
// but B caused C: the path must end at the sink C, with C's window — wholly
// inside B's — adding nothing to the length.
//
//	A [0,10)  --at 8-->  B [12,20)  --at 14-->  C [15,18)
func TestAnalyzeConsumerEndsBeforeProducer(t *testing.T) {
	t0 := time.Now()
	spans := []Span{
		{Rank: 0, Worker: 0, SpanID: 1, Name: "A", Start: t0, End: at(t0, 10)},
		{Rank: 0, Worker: 0, SpanID: 2, Name: "B", Start: at(t0, 12), End: at(t0, 20),
			Causes: []Cause{{SpanID: 1, At: at(t0, 8)}}},
		{Rank: 0, Worker: 1, SpanID: 3, Name: "C", Start: at(t0, 15), End: at(t0, 18),
			Causes: []Cause{{SpanID: 2, At: at(t0, 14)}}},
	}
	rep, err := Analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	names := ""
	for _, s := range rep.Path {
		names += s.Span.Name
	}
	if names != "ABC" || rep.Tasks != 3 {
		t.Fatalf("path %q (%d tasks), want ABC (3)", names, rep.Tasks)
	}
	ms := int64(time.Millisecond)
	if rep.LenNs != 20*ms || rep.BodyNs != 18*ms || rep.QueueNs != 2*ms || rep.CommNs != 0 {
		t.Fatalf("len %d body %d queue %d comm %d, want 20/18/2/0 ms",
			rep.LenNs, rep.BodyNs, rep.QueueNs, rep.CommNs)
	}
	if rep.BodyNs+rep.QueueNs+rep.CommNs != rep.LenNs {
		t.Fatal("attribution does not telescope")
	}
}

// TestAnalyzeDiamondCriticalInput checks the backward walk follows the
// last-arriving input: D waits on both B and C, B's datum arrives later, so
// the critical path is A→B→D and C contributes nothing.
func TestAnalyzeDiamondCriticalInput(t *testing.T) {
	t0 := time.Now()
	spans := []Span{
		{Rank: 0, Worker: 0, SpanID: 1, Name: "A", Start: t0, End: at(t0, 10)},
		{Rank: 0, Worker: 0, SpanID: 2, Name: "B", Start: at(t0, 10), End: at(t0, 30),
			Causes: []Cause{{SpanID: 1, At: at(t0, 5)}}},
		{Rank: 0, Worker: 1, SpanID: 3, Name: "C", Start: at(t0, 11), End: at(t0, 20),
			Causes: []Cause{{SpanID: 1, At: at(t0, 6)}}},
		{Rank: 0, Worker: 1, SpanID: 4, Name: "D", Start: at(t0, 32), End: at(t0, 40),
			Causes: []Cause{
				{SpanID: 3, At: at(t0, 20)},
				{SpanID: 2, At: at(t0, 30)},
			}},
	}
	rep, err := Analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	names := ""
	for _, s := range rep.Path {
		names += s.Span.Name
	}
	if names != "ABD" {
		t.Fatalf("path %q, want ABD", names)
	}
	ms := int64(time.Millisecond)
	if rep.LenNs != 40*ms || rep.BodyNs != 38*ms || rep.QueueNs != 2*ms || rep.CommNs != 0 {
		t.Fatalf("len %d body %d queue %d comm %d, want 40/38/2/0 ms",
			rep.LenNs, rep.BodyNs, rep.QueueNs, rep.CommNs)
	}
	if rep.RemoteHops != 0 {
		t.Fatalf("remote hops %d, want 0", rep.RemoteHops)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("Analyze(nil) succeeded")
	}
}

// TestFlowEventsPairs checks every resolvable causal edge becomes one
// "s"/"f" pair with a shared id, the finish carries bp:"e", and the start
// timestamp is clamped into the producer's execution window.
func TestFlowEventsPairs(t *testing.T) {
	t0 := time.Now()
	spans := []Span{
		{Rank: 0, Worker: 0, SpanID: 1, Name: "A", Start: t0, End: at(t0, 10)},
		{Rank: 1, Worker: 2, SpanID: 2, Name: "B", Start: at(t0, 15), End: at(t0, 20),
			Causes: []Cause{
				{SpanID: 1, Rank: 0, Frame: 3, At: at(t0, 12)}, // after producer end: clamp
				{SpanID: 9, Rank: 0, At: at(t0, 1)},            // unresolvable: skipped
				{At: at(t0, 2)},                                // root: skipped
			}},
	}
	evs := FlowEvents(spans)
	if len(evs) != 2 {
		t.Fatalf("%d events, want one s/f pair", len(evs))
	}
	s, f := evs[0], evs[1]
	if s.Phase != "s" || f.Phase != "f" {
		t.Fatalf("phases %q/%q", s.Phase, f.Phase)
	}
	if s.ID == 0 || s.ID != f.ID {
		t.Fatalf("pair ids %d/%d", s.ID, f.ID)
	}
	if f.BP != "e" {
		t.Fatalf("flow finish bp %q, want e", f.BP)
	}
	if s.Pid != 0 || s.Tid != 0 || f.Pid != 1 || f.Tid != 2 {
		t.Fatalf("flow endpoints (%d,%d)->(%d,%d), want (0,0)->(1,2)", s.Pid, s.Tid, f.Pid, f.Tid)
	}
	if !s.Start.Equal(at(t0, 10)) {
		t.Fatalf("flow start %v not clamped to producer end", s.Start)
	}
	if !f.Start.Equal(at(t0, 15)) {
		t.Fatalf("flow finish %v, want consumer start", f.Start)
	}
	if s.Args["frame"] != uint64(3) {
		t.Fatalf("flow start args %v", s.Args)
	}
}

// TestAnalyzeRealChainBothSchedulers runs a strictly sequential self-edge
// chain on a real graph under both scheduler configurations and checks the
// analysis reconstructs it: every task is on the path, the attribution
// telescopes, and nothing is attributed to comm (no ranks involved).
func TestAnalyzeRealChainBothSchedulers(t *testing.T) {
	const N = 400
	for _, tc := range []struct {
		name string
		cfg  rt.Config
	}{
		{"LLP", rt.OptimizedConfig(2)},
		{"LFQ", rt.OriginalConfig(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.PinWorkers = false
			g := core.New(cfg)
			g.EnableCausalTracing()
			e := core.NewEdge("loop")
			var count atomic.Int64
			pt := g.NewTT("point", 1, 1, func(tcx core.TaskContext) {
				count.Add(1)
				if k := tcx.Key(); k < N {
					tcx.SendInput(0, k+1, 0)
				}
			})
			pt.Out(0, e)
			e.To(pt, 0)
			g.MakeExecutable()
			t0 := time.Now()
			g.Invoke(pt, 1, 42)
			if err := g.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			elapsed := time.Since(t0)
			if count.Load() != N {
				t.Fatalf("executed %d, want %d", count.Load(), N)
			}
			spans := FromTrace(0, g.Runtime().Trace())
			if len(spans) != N {
				t.Fatalf("%d causal spans, want %d", len(spans), N)
			}
			rep, err := Analyze(spans)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tasks != N {
				t.Fatalf("critical path has %d tasks, want the whole %d-task chain", rep.Tasks, N)
			}
			if rep.BodyNs+rep.QueueNs+rep.CommNs != rep.LenNs {
				t.Fatalf("attribution %d+%d+%d != len %d",
					rep.BodyNs, rep.QueueNs, rep.CommNs, rep.LenNs)
			}
			if rep.CommNs != 0 || rep.RemoteHops != 0 {
				t.Fatalf("shared-memory chain charged comm %dns over %d remote hops",
					rep.CommNs, rep.RemoteHops)
			}
			if rep.LenNs <= 0 || rep.LenNs > elapsed.Nanoseconds() {
				t.Fatalf("path len %dns outside (0, elapsed %dns]", rep.LenNs, elapsed.Nanoseconds())
			}
		})
	}
}
