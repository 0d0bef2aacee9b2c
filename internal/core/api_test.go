package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBroadcastInput(t *testing.T) {
	// One source datum broadcast to N successor keys, reference-shared.
	const N = 10
	g := New(testCfg(2))
	e := NewEdge("bcast")
	var sum atomic.Int64
	var sharedCount atomic.Int64
	var first atomic.Value
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		keys := make([]uint64, N)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		tc.Broadcast(0, keys, 0)
	})
	dst := g.NewTT("dst", 1, 0, func(tc TaskContext) {
		sum.Add(int64(tc.Value(0).(int)))
		c := tc.InputCopy(0)
		if prev := first.Swap(c); prev != nil && prev == c {
			sharedCount.Add(1)
		}
	})
	src.Out(0, e)
	e.To(dst, 0)
	g.MakeExecutable()
	g.Invoke(src, 0, 7)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 7*N {
		t.Fatalf("sum = %d, want %d", sum.Load(), 7*N)
	}
}

// TestBroadcastNoUseAfterMove runs TestBroadcastInput's shape 20 000 times
// (1 000 under the race detector) in one graph on two workers. Round r's
// source broadcasts its input to ten keys; a join of the ten starts round
// r+1, so the other worker is idle and steals each successor as soon as it
// is pushed. The broadcast edge also feeds a streaming terminal, listed
// after the successor, whose reduce runs on the broadcasting worker right
// after each successor is pushed; after a round's first successor it waits
// until that successor ran. A Broadcast that moved its reference to the
// first key and retained for the next ones would then retain a copy the
// successor had already released to zero: the Retain panics, or a
// successor reads a recycled copy's value.
func TestBroadcastNoUseAfterMove(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const fan = 10
	rounds := uint64(20_000)
	if raceEnabled {
		rounds = 1_000
	}
	g := New(testCfg(2))
	eOut, eJoin, eNext := NewEdge("bcast"), NewEdge("join"), NewEdge("next")
	var ran atomic.Uint64 // successors run, over all rounds
	src := g.NewTT("src", 1, 1, func(tc TaskContext) {
		keys := make([]uint64, fan)
		for i := range keys {
			keys[i] = tc.Key()*fan + uint64(i)
		}
		tc.Broadcast(0, keys, 0)
	})
	dst := g.NewTT("dst", 1, 1, func(tc TaskContext) {
		if v := tc.Value(0).(int); v != int(tc.Key()/fan) {
			t.Errorf("dst %d read %d, want %d", tc.Key(), v, tc.Key()/fan)
		}
		ran.Add(1)
		tc.Send(0, tc.Key()/fan, 0)
	})
	// The n-th reduce follows the push of the n-th successor. After a
	// round's first one, it holds the broadcasting worker until the other
	// worker has stolen and run that successor.
	var reduced atomic.Uint64
	wait := g.NewTT("wait", 1, 0, func(TaskContext) {}).WithStreaming(0,
		func(uint64) int { return 1 },
		func(acc, _ any) any {
			n := reduced.Add(1)
			if n%fan != 1 {
				return acc
			}
			for deadline := time.Now().Add(time.Millisecond); ran.Load() < n && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			return acc
		})
	join := g.NewTT("join", 1, 1, func(tc TaskContext) {
		if next := tc.Key() + 1; next < rounds {
			tc.Send(0, next, int(next))
		}
	}).WithAggregator(0, func(uint64) int { return fan })
	src.Out(0, eOut)
	eOut.To(dst, 0)
	eOut.To(wait, 0)
	dst.Out(0, eJoin)
	eJoin.To(join, 0)
	join.Out(0, eNext)
	eNext.To(src, 0)
	g.MakeExecutable()
	g.Invoke(src, 0, 0)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != rounds*fan {
		t.Fatalf("%d successors ran, want %d", ran.Load(), rounds*fan)
	}
}

func TestSendCopySharesAggregatorItems(t *testing.T) {
	// The Task-Bench pattern: a task forwards items it received through an
	// aggregator to a successor via SendCopy (reference-shared, no clone).
	g := New(testCfg(1))
	eIn, eFwd := NewEdge("in"), NewEdge("fwd")
	const K = 4
	feeder := g.NewTT("feeder", 1, 1, func(tc TaskContext) {
		tc.Send(0, 0, int(tc.Key()))
	})
	var got atomic.Int64
	mid := g.NewTT("mid", 1, 1, func(tc TaskContext) {
		agg := tc.Aggregate(0)
		for i := 0; i < agg.Len(); i++ {
			tc.SendCopy(0, uint64(i), agg.Copy(i))
		}
	}).WithAggregator(0, func(uint64) int { return K })
	sink := g.NewTT("sink", 1, 0, func(tc TaskContext) {
		got.Add(int64(tc.Value(0).(int)))
	})
	feeder.Out(0, eIn)
	mid.Out(0, eFwd)
	eIn.To(mid, 0)
	eFwd.To(sink, 0)
	g.MakeExecutable()
	for i := 0; i < K; i++ {
		g.InvokeControl(feeder, uint64(i))
	}
	waitOK(t, g)
	if want := int64(K * (K - 1) / 2); got.Load() != want {
		t.Fatalf("forwarded sum = %d, want %d", got.Load(), want)
	}
}

func TestMapperIgnoredInSharedMemory(t *testing.T) {
	// A mapper that points everything at rank 7 must be a no-op when the
	// graph is not distributed.
	g := New(testCfg(1))
	e := NewEdge("e")
	var ran atomic.Int64
	tt := g.NewTT("x", 1, 1, func(tc TaskContext) {
		ran.Add(1)
	}).WithMapper(func(uint64) int { return 7 })
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	g.InvokeControl(tt, 1)
	waitOK(t, g)
	if ran.Load() != 1 {
		t.Fatal("mapper dropped a shared-memory task")
	}
}

func TestAccessors(t *testing.T) {
	g := New(testCfg(1))
	e := NewEdge("edge-name")
	tt := g.NewTT("mytt", 2, 1, func(tc TaskContext) {
		if tc.TTName() != "mytt" {
			t.Errorf("TTName = %q", tc.TTName())
		}
		if tc.Worker() == nil {
			t.Error("Worker nil")
		}
		if tc.Value(1) != nil {
			t.Error("control input should read as nil")
		}
	})
	if tt.Name() != "mytt" || tt.NumInputs() != 2 {
		t.Fatal("TT accessors wrong")
	}
	if e.Name() != "edge-name" {
		t.Fatal("edge name wrong")
	}
	tt.Out(0, e)
	e.To(tt, 0)
	if e.Fanout() != 1 {
		t.Fatalf("Fanout = %d", e.Fanout())
	}
	if g.Rank() != 0 || g.Size() != 1 {
		t.Fatal("rank/size wrong for shared memory")
	}
	g.MakeExecutable()
	// Two-input task: slot 0 via control + slot 1 via control.
	g.InvokeControl(tt, 5)
	sw := g.Runtime().ServiceWorker(0)
	_ = sw
	g.seed(tt, 1, 5, nil)
	waitOK(t, g)
	if tt.TasksCreated() != 1 {
		t.Fatalf("TasksCreated = %d", tt.TasksCreated())
	}
}

func TestSendToUnconnectedTerminalPanics(t *testing.T) {
	g := New(testCfg(1))
	e := NewEdge("e")
	var sawPanic atomic.Bool
	tt := g.NewTT("x", 1, 1, func(tc TaskContext) {
		defer func() {
			if recover() != nil {
				sawPanic.Store(true)
			}
		}()
		tc.SendControl(0, 99) // terminal 0 never wired
	})
	_ = e
	g.MakeExecutable()
	g.InvokeControl(tt, 1)
	waitOK(t, g)
	if !sawPanic.Load() {
		t.Fatal("send on unconnected terminal did not panic")
	}
}

func TestEdgeWiringValidation(t *testing.T) {
	g := New(testCfg(1))
	tt := g.NewTT("x", 1, 1, func(TaskContext) {})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("slot out of range", func() { NewEdge("e").To(tt, 5) })
	mustPanic("terminal out of range", func() { tt.Out(3, NewEdge("e")) })
	mustPanic("zero inputs", func() { g.NewTT("bad", 0, 0, func(TaskContext) {}) })
	mustPanic("too many inputs", func() { g.NewTT("bad", 99, 0, func(TaskContext) {}) })
	mustPanic("aggregator slot range", func() { tt.WithAggregator(9, func(uint64) int { return 1 }) })
	mustPanic("streaming nil reducer", func() { tt.WithStreaming(0, func(uint64) int { return 1 }, nil) })
	// Drain.
	e := NewEdge("ok")
	tt.Out(0, e)
	e.To(tt, 0)
	g.MakeExecutable()
	waitOK(t, g)
}

func TestGraphCheckWarnings(t *testing.T) {
	g := New(testCfg(1))
	dangling := NewEdge("dangling")
	a := g.NewTT("a", 1, 2, func(TaskContext) {})
	b := g.NewTT("b", 1, 0, func(TaskContext) {})
	e := NewEdge("ok")
	a.Out(0, e)
	a.Out(1, dangling) // edge with no destination
	e.To(b, 0)
	warns := g.Check()
	// Expected: a.out1 feeds a destination-less edge; a.in0 Invoke-only.
	wantSubstrings := []string{"terminal 1 feeds edge", "input terminal 0 has no producing edge"}
	for _, want := range wantSubstrings {
		found := false
		for _, w := range warns {
			if strings.Contains(w, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("warnings %v missing %q", warns, want)
		}
	}
	g.MakeExecutable()
	waitOK(t, g)
}

// TestChaosMixedGraph runs a graph combining every feature — multi-input
// joins, aggregators, streaming, priorities, bundling, move and copy sends
// — under elevated GOMAXPROCS for aggressive preemption, and
// checks a deterministic checksum.
func TestChaosMixedGraph(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 3, 7} {
		cfg := testCfg(workers)
		cfg.BundleReady = true
		g := New(cfg)
		eFan := NewEdge("fan")
		eJoinA := NewEdge("ja")
		eJoinB := NewEdge("jb")
		eAgg := NewEdge("agg")
		const N = 200
		src := g.NewTT("src", 1, 2, func(tc TaskContext) {
			k := tc.Key()
			tc.Send(0, k, int(k)) // copy path to join slot 0
			tc.SendInput(1, k, 0) // move path to join slot 1
		})
		join := g.NewTT("join", 2, 1, func(tc TaskContext) {
			a := tc.Value(0).(int)
			b := 0
			if v, ok := tc.Value(1).(int); ok {
				b = v
			}
			tc.Send(0, 0, a+b+1)
		}).WithPriority(func(key uint64) int32 { return int32(key % 7) })
		var total atomic.Int64
		sum := g.NewTT("sum", 1, 0, func(tc TaskContext) {
			agg := tc.Aggregate(0)
			var s int64
			for i := 0; i < agg.Len(); i++ {
				s += int64(agg.Value(i).(int))
			}
			total.Store(s)
		}).WithAggregator(0, func(uint64) int { return N })
		src.Out(0, eJoinA).Out(1, eJoinB)
		join.Out(0, eAgg)
		eJoinA.To(join, 0)
		eJoinB.To(join, 1)
		eAgg.To(sum, 0)
		_ = eFan
		g.MakeExecutable()
		for k := uint64(0); k < N; k++ {
			g.Invoke(src, k, int(k))
		}
		waitOK(t, g)
		// join(k) emits k + k + 1 (copy a=k, moved seed value b=k).
		want := int64(0)
		for k := int64(0); k < N; k++ {
			want += 2*k + 1
		}
		if total.Load() != want {
			t.Fatalf("workers=%d: checksum %d, want %d", workers, total.Load(), want)
		}
	}
}
