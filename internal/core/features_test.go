package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/rt"
)

func TestStreamingTerminalReduces(t *testing.T) {
	// K items per key folded eagerly into a sum; the body sees only the
	// accumulator.
	const K = 24
	const keys = 16
	g := New(testCfg(4))
	eIn := NewEdge("in")
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		key, i := Unpack2(tc.Key())
		tc.Send(0, uint64(key), int(i))
	})
	var sums [keys]int64
	red := g.NewTT("stream", 1, 0, func(tc TaskContext) {
		atomic.StoreInt64(&sums[tc.Key()], int64(tc.Value(0).(int)))
	}).WithStreaming(0,
		func(uint64) int { return K },
		func(acc, v any) any {
			if acc == nil {
				return v
			}
			return acc.(int) + v.(int)
		})
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	g.MakeExecutable()
	for k := 0; k < keys; k++ {
		for i := 0; i < K; i++ {
			g.InvokeControl(feeder, Pack2(uint32(k), uint32(i)))
		}
	}
	waitOK(t, g)
	want := int64(K * (K - 1) / 2)
	for k := 0; k < keys; k++ {
		if sums[k] != want {
			t.Fatalf("key %d: sum %d, want %d", k, sums[k], want)
		}
	}
}

func TestStreamingReleasesCopiesEagerly(t *testing.T) {
	// Unlike aggregators, streaming must release each arriving copy on
	// delivery: with a single pooled worker the feeder's sends keep
	// recycling the same copy object, observable as zero live references on
	// the copies the feeder forwarded.
	g := New(testCfg(1))
	eIn := NewEdge("in")
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		tc.Send(0, 0, 1)
	})
	red := g.NewTT("stream", 1, 0, func(tc TaskContext) {
		if got := tc.Value(0).(int); got != 1 {
			t.Errorf("accumulator = %v", got)
		}
	}).WithStreaming(0, func(uint64) int { return 8 },
		func(acc, v any) any { return v })
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	g.MakeExecutable()
	for i := 0; i < 8; i++ {
		g.InvokeControl(feeder, uint64(i))
	}
	waitOK(t, g)
}

func TestSendInputMutableMovesWhenSoleOwner(t *testing.T) {
	g := New(testCfg(1))
	eM := NewEdge("m")
	var srcCopy, dstCopy any
	clones := 0
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		srcCopy = tc.InputCopy(0)
		tc.SendInputMutable(0, 1, 0, func(v any) any { clones++; return v })
	})
	dst := g.NewTT("dst", 1, 0, func(tc TaskContext) {
		dstCopy = tc.InputCopy(0)
	})
	src.Out(0, eM)
	eM.To(dst, 0)
	g.MakeExecutable()
	g.Invoke(src, 0, 7)
	waitOK(t, g)
	if clones != 0 {
		t.Fatalf("sole-owner mutable send cloned %d times", clones)
	}
	if srcCopy != dstCopy {
		t.Fatal("sole-owner mutable send did not move the copy")
	}
}

func TestSendInputMutableClonesWhenShared(t *testing.T) {
	// The input is shared with a sibling reader (fan-out edge), so a
	// mutable forward must clone.
	g := New(testCfg(1))
	fan := NewEdge("fan")
	eM := NewEdge("m")
	var readerVal, writerVal int
	var readerCopy, writerCopy any
	clones := 0
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		tc.SendInput(0, tc.Key(), 0) // shared with both successors
	})
	reader := g.NewTT("reader", 1, 0, func(tc TaskContext) {
		readerVal = tc.Value(0).(int)
		readerCopy = tc.InputCopy(0)
	})
	writer := g.NewTT("writer", 1, 1, func(tc TaskContext) {
		// Two live references (reader's and ours): mutation must clone.
		tc.SendInputMutable(0, tc.Key(), 0, func(v any) any {
			clones++
			return v.(int) + 100 // "mutation" applied to the clone
		})
	})
	sink := g.NewTT("sink", 1, 0, func(tc TaskContext) {
		writerVal = tc.Value(0).(int)
		writerCopy = tc.InputCopy(0)
	})
	src.Out(0, fan)
	fan.To(reader, 0).To(writer, 0)
	writer.Out(0, eM)
	eM.To(sink, 0)
	g.MakeExecutable()
	g.Invoke(src, 0, 7)
	waitOK(t, g)
	if clones != 1 {
		t.Fatalf("shared mutable send cloned %d times, want 1", clones)
	}
	if readerVal != 7 || writerVal != 107 {
		t.Fatalf("reader saw %d (want 7), sink saw %d (want 107)", readerVal, writerVal)
	}
	if readerCopy == writerCopy {
		t.Fatal("clone aliases the shared copy")
	}
}

func TestDotOutput(t *testing.T) {
	g := New(testCfg(1))
	e := NewEdge("flow")
	a := g.NewTT("alpha", 1, 1, func(TaskContext) {})
	b := g.NewTT("beta", 1, 0, func(TaskContext) {})
	a.Out(0, e)
	e.To(b, 0)
	dot := g.Dot()
	for _, want := range []string{"digraph ttg", "alpha", "beta", "tt0 -> tt1", "flow (0→0)"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Drain the graph so workers shut down cleanly.
	g.MakeExecutable()
	g.InvokeControl(a, 0)
	waitOK(t, g)
}

func TestStreamingIntoControlFlowPanics(t *testing.T) {
	g := New(testCfg(1))
	e := NewEdge("in")
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		defer func() {
			if recover() == nil {
				t.Error("control send into streaming terminal did not panic")
			}
		}()
		tc.SendControl(0, 0)
	})
	red := g.NewTT("stream", 1, 0, func(TaskContext) {}).
		WithStreaming(0, func(uint64) int { return 1 },
			func(acc, v any) any { return v })
	src.Out(0, e)
	e.To(red, 0)
	g.MakeExecutable()
	g.InvokeControl(src, 0)
	// The reducer task never becomes eligible; release its pending count by
	// satisfying it with a real datum so Wait terminates.
	g.InvokeInput(red, 0, 0, 1)
	waitOK(t, g)
}

func TestGraphTracingAndReport(t *testing.T) {
	g := New(testCfg(2))
	g.EnableTracing()
	e := NewEdge("chain")
	pt := g.NewTT("hop", 1, 1, func(tc TaskContext) {
		if k := tc.Key(); k < 50 {
			tc.SendControl(0, k+1)
		}
	})
	pt.Out(0, e)
	e.To(pt, 0)
	g.MakeExecutable()
	g.InvokeControl(pt, 1)
	waitOK(t, g)
	evs := g.Runtime().Trace()
	if len(evs) != 50 {
		t.Fatalf("traced %d events, want 50", len(evs))
	}
	if evs[0].Name != "hop" {
		t.Fatalf("trace name %q", evs[0].Name)
	}
	var sb strings.Builder
	g.Report(&sb)
	out := sb.String()
	for _, want := range []string{"hop", "50 tasks", "executed 50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBundleReadyCorrectness(t *testing.T) {
	// The binary tree under bundling must execute exactly the same tasks.
	for _, sched := range []rt.SchedKind{rt.SchedLLP, rt.SchedLFQ} {
		cfg := testCfg(4)
		cfg.Sched = sched
		cfg.BundleReady = true
		g := New(cfg)
		e := NewEdge("tree")
		var count atomic.Int64
		tt := g.NewTT("node", 1, 1, func(tc TaskContext) {
			count.Add(1)
			lvl, idx := Unpack2(tc.Key())
			if lvl < 12 {
				tc.SendControl(0, Pack2(lvl+1, idx*2))
				tc.SendControl(0, Pack2(lvl+1, idx*2+1))
			}
		})
		tt.Out(0, e)
		e.To(tt, 0)
		g.MakeExecutable()
		g.InvokeControl(tt, Pack2(0, 0))
		waitOK(t, g)
		if want := int64(1<<13 - 1); count.Load() != want {
			t.Fatalf("%v: executed %d, want %d", sched, count.Load(), want)
		}
	}
}

func TestBundleReadyPreservesPriorityOrder(t *testing.T) {
	// A burst of prioritized tasks released by one gate body must still run
	// highest-priority-first on a single worker.
	cfg := testCfg(1)
	cfg.BundleReady = true
	g := New(cfg)
	e := NewEdge("e")
	var order []uint64
	gate := g.NewTT("gate", 1, 1, func(tc TaskContext) {
		for k := uint64(1); k <= 8; k++ {
			tc.SendControl(0, k)
		}
	})
	work := g.NewTT("work", 1, 0, func(tc TaskContext) {
		order = append(order, tc.Key())
	}).WithPriority(func(key uint64) int32 { return int32(key) })
	gate.Out(0, e)
	e.To(work, 0)
	g.MakeExecutable()
	g.InvokeControl(gate, 0)
	waitOK(t, g)
	if len(order) != 8 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] > order[i-1] {
			t.Fatalf("bundled priority order violated: %v", order)
		}
	}
}

func TestBundleWithAggregatorsAndData(t *testing.T) {
	cfg := testCfg(2)
	cfg.BundleReady = true
	g := New(cfg)
	eIn := NewEdge("in")
	const K = 16
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		key, i := Unpack2(tc.Key())
		tc.Send(0, uint64(key), int(i))
	})
	var sum atomic.Int64
	red := g.NewTT("reduce", 1, 0, func(tc TaskContext) {
		agg := tc.Aggregate(0)
		var s int64
		for i := 0; i < agg.Len(); i++ {
			s += int64(agg.Value(i).(int))
		}
		sum.Add(s)
	}).WithAggregator(0, func(uint64) int { return K })
	feeder.Out(0, eIn)
	eIn.To(red, 0)
	g.MakeExecutable()
	for i := 0; i < K; i++ {
		g.InvokeControl(feeder, Pack2(3, uint32(i)))
	}
	waitOK(t, g)
	if want := int64(K * (K - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestWaitForDiagnosesHang(t *testing.T) {
	// An aggregator expecting more items than producers send: WaitFor must
	// time out and name the stuck TT, then complete after the missing item
	// arrives.
	g := New(testCfg(1))
	e := NewEdge("in")
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		tc.Send(0, 7, 1)
	})
	done := false
	red := g.NewTT("stuckjoin", 1, 0, func(tc TaskContext) {
		done = true
	}).WithAggregator(0, func(uint64) int { return 2 })
	feeder.Out(0, e)
	e.To(red, 0)
	g.MakeExecutable()
	g.InvokeControl(feeder, 0) // delivers only 1 of the 2 required items
	err := g.WaitFor(50 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitFor did not time out on a stuck graph")
	}
	if !strings.Contains(err.Error(), "stuckjoin") || !strings.Contains(err.Error(), "1 incomplete") {
		t.Fatalf("diagnosis missing TT name/count: %v", err)
	}
	if red.Pending() != 1 {
		t.Fatalf("Pending = %d", red.Pending())
	}
	if keys := red.PendingKeys(10); len(keys) != 1 || keys[0] != 7 {
		t.Fatalf("PendingKeys = %v", keys)
	}
	// Supply the missing item; the graph must now terminate.
	g.InvokeInput(red, 0, 7, 2)
	if err := g.WaitFor(5 * time.Second); err != nil {
		t.Fatalf("graph did not finish after unblocking: %v", err)
	}
	if !done {
		t.Fatal("join never ran")
	}
}
