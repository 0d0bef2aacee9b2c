package core

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// stencilRing is a steady-state local graph shaped like the Task-Bench
// stencil: point (step, p) aggregates one datum from each of p-1, p and p+1
// (on a ring of width points) at the previous step. One round runs `steps`
// steps started by a single control kick, so every aggregator task is built,
// run and retired on the worker; the payload is pre-boxed, as the value a
// real body sends would already be.
type stencilRing struct {
	g     *Graph
	kick  *TT
	round uint32
	done  chan struct{}
	bad   atomic.Int64 // point tasks that saw the wrong number of items
}

const ringWidth, ringSteps = 8, 16

func newStencilRing(workers int) *stencilRing {
	s := &stencilRing{g: New(testCfg(workers)), done: make(chan struct{}, 1)}
	var payload any = new(float64)
	var finished atomic.Int64
	fanOut := func(tc TaskContext, step uint32, p int) {
		for d := -1; d <= 1; d++ {
			tc.Send(0, Pack2(step, uint32((p+d+ringWidth)%ringWidth)), payload)
		}
	}
	point := s.g.NewTT("point", 1, 1, func(tc TaskContext) {
		step, p := Unpack2(tc.Key())
		if tc.Aggregate(0).Len() != 3 {
			s.bad.Add(1)
		}
		if (step+1)%ringSteps == 0 {
			if finished.Add(1)%ringWidth == 0 {
				s.done <- struct{}{}
			}
			return
		}
		fanOut(tc, step+1, int(p))
	}).WithAggregator(0, func(uint64) int { return 3 })
	s.kick = s.g.NewTT("kick", 1, 1, func(tc TaskContext) {
		for p := 0; p < ringWidth; p++ {
			fanOut(tc, uint32(tc.Key()), p)
		}
	})
	e := NewEdge("point")
	point.Out(0, e)
	s.kick.Out(0, e)
	e.To(point, 0)
	s.g.MakeExecutable()
	return s
}

// runRound runs ringWidth*ringSteps point tasks and waits for the last step.
func (s *stencilRing) runRound() {
	s.g.InvokeControl(s.kick, uint64(s.round*ringSteps))
	s.round++
	<-s.done
}

// TestLocalAggregatorAllocs pins the allocation-free local task path: task
// objects, data copies, the discovery table and aggregator storage all
// recycle, so a steady-state stencil task allocates nothing.
func TestLocalAggregatorAllocs(t *testing.T) {
	s := newStencilRing(1)
	for i := 0; i < 20; i++ {
		s.runRound()
	}
	perRound := testing.AllocsPerRun(50, s.runRound)
	if err := s.g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := s.bad.Load(); n != 0 {
		t.Fatalf("%d point tasks ran without exactly 3 items", n)
	}
	if perTask := perRound / (ringWidth * ringSteps); perTask != 0 {
		t.Fatalf("local aggregator task averaged %.3f allocs, want 0", perTask)
	}
}

// TestAggregatorRecycling runs many aggregator tasks on two workers, so
// Aggregates are built on one worker and recycled on the other, with counts
// above the inline capacity and at one. Every instance must see exactly its
// own items, count(key) must run exactly once per instance, and no copy may
// leak.
func TestAggregatorRecycling(t *testing.T) {
	for _, count := range []int{1, aggInline, 7} {
		const keys = 3000
		g := New(testCfg(2))
		var calls, bad, sum atomic.Int64
		in := NewEdge("in")
		feed := g.NewTT("feed", 1, 1, func(tc TaskContext) {
			k := tc.Key()
			for i := 0; i < count; i++ {
				tc.Send(0, k, int(k)*count+i)
			}
		})
		red := g.NewTT("reduce", 1, 0, func(tc TaskContext) {
			agg := tc.Aggregate(0)
			k := int(tc.Key())
			if agg.Len() != count || agg.Need() != count {
				bad.Add(1)
				return
			}
			s := 0
			for i := 0; i < agg.Len(); i++ {
				v := agg.Value(i).(int)
				if v/count != k {
					bad.Add(1) // an item from another instance
				}
				s += v
			}
			sum.Add(int64(s))
		}).WithAggregator(0, func(uint64) int {
			calls.Add(1)
			return count
		})
		feed.Out(0, in)
		in.To(red, 0)
		g.MakeExecutable()
		for k := 0; k < keys; k++ {
			g.InvokeControl(feed, uint64(k))
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		n := int64(keys * count)
		if want := n * (n - 1) / 2; sum.Load() != want || bad.Load() != 0 {
			t.Fatalf("count %d: sum %d (want %d), %d bad instances", count, sum.Load(), want, bad.Load())
		}
		if c := calls.Load(); c != keys || red.TasksCreated() != keys {
			t.Fatalf("count %d: count(key) called %d times for %d tasks, want once per task", count, c, red.TasksCreated())
		}
		if got, put := g.Runtime().CopyBalance(); got != put {
			t.Fatalf("count %d: copies got %d, put %d", count, got, put)
		}
	}
}

// TestStolenRecordForgedAggregate feeds malformed steal-donation records to
// the thief-side decoder: each must abort the graph with a clear reason,
// release whatever it decoded, and never size an allocation from the wire.
func TestStolenRecordForgedAggregate(t *testing.T) {
	hdr := make([]byte, stolenHdrLen) // TT 0, key 0, no span, priority 0
	item := func(b []byte) []byte {   // one self-contained int payload
		enc, err := appendStolenVal(nil, 42)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, enc...)
	}
	cases := []struct {
		name, reason string
		rec          []byte
	}{
		// 4 bytes ask for 2^31-1 items; one is present.
		{"huge count", "bad aggregate item",
			item(binary.LittleEndian.AppendUint32(append(append([]byte{}, hdr...), stolenAgg), 1<<31-1))},
		{"negative count", "bad aggregate count",
			binary.LittleEndian.AppendUint32(append(append([]byte{}, hdr...), stolenAgg), 1<<31)},
		// A plain marker on an aggregator terminal would hand the body a
		// non-Aggregate.
		{"marker mismatch", "does not match",
			item(append(append([]byte{}, hdr...), stolenPlain))},
		{"unknown marker", "does not match", append(append([]byte{}, hdr...), 99)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(testCfg(1))
			g.NewTT("R", 1, 0, func(TaskContext) {}).WithAggregator(0, func(uint64) int { return 3 })
			g.MakeExecutable()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			g.injectStolenTask(g.Runtime().ServiceWorker(0), 1, tc.rec)
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
				t.Errorf("decoding allocated %d bytes", grew)
			}
			err := g.Wait()
			if err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("Wait = %v, want an abort naming %q", err, tc.reason)
			}
			if got, put := g.Runtime().CopyBalance(); got != put {
				t.Fatalf("copies got %d, put %d", got, put)
			}
			if got, put := g.Runtime().TaskBalance(); got != put {
				t.Fatalf("tasks got %d, put %d", got, put)
			}
		})
	}
}
