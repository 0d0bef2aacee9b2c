package core

import (
	"runtime"
	"testing"
	"time"
)

// TestNoGoroutineLeakAcrossGraphs constructs and completes many graphs and
// verifies worker goroutines do not accumulate (each Wait joins its
// runtime's workers).
func TestNoGoroutineLeakAcrossGraphs(t *testing.T) {
	runOne := func() {
		g := New(testCfg(4))
		e := NewEdge("chain")
		pt := g.NewTT("p", 1, 1, func(tc TaskContext) {
			if k := tc.Key(); k < 100 {
				tc.SendControl(0, k+1)
			}
		})
		pt.Out(0, e)
		e.To(pt, 0)
		g.MakeExecutable()
		g.InvokeControl(pt, 1)
		waitOK(t, g)
	}
	runOne() // warm up lazily initialized runtime state
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runOne()
	}
	// Give any straggling goroutines a moment to exit, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d across 50 graphs", base, runtime.NumGoroutine())
}
