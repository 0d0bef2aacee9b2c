package comm_test

import (
	"runtime"
	"testing"

	"gottg/internal/comm"
	"gottg/internal/termdet"
)

// memNetWorlds is tcpNetWorlds over one in-memory network.
func memNetWorlds(t *testing.T) [2]*comm.World {
	t.Helper()
	var ws [2]*comm.World
	for i, tr := range comm.NewMemNetwork(2) {
		w, err := comm.NewNetWorld(tr)
		if err != nil {
			t.Fatalf("NewNetWorld(%d): %v", i, err)
		}
		ws[i] = w
	}
	return ws
}

// TestRemoteFrameAllocs pins the heap allocations of one data frame plus its
// ack, over memory and over loopback TCP: rank 0 appends a one-entry batch,
// rank 1's handler echoes it back the same way, and rank 0's handler signals
// the waiting test, so one iteration is two data frames and two acks (the
// test blocks on a channel: a Gosched spin would starve the netpoller). Each
// frame is carved out of a shared chunk on the sending and on the reading
// side, and the link layer queues unacked sends in a reused slice, so a
// round trip allocates a small fraction of one object (a chunk per ≈ 8 KiB
// of frames).
func TestRemoteFrameAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		worlds func(*testing.T) [2]*comm.World
	}{
		{"memory", memNetWorlds},
		{"tcp", func(t *testing.T) [2]*comm.World { return tcpNetWorlds(t, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := tc.worlds(t)
			got := make(chan struct{}, 1)
			p0, p1 := ws[0].Proc(0), ws[1].Proc(1)
			p0.RegisterBatched(drainTag, func(int, []byte) { got <- struct{}{} })
			p1.RegisterBatched(drainTag, func(_ int, e []byte) { p1.BatchEnd(0, append(p1.BatchBegin(0), e...)) })
			for i, w := range ws {
				// No idle worker, so no wave: the only traffic is the test's.
				w.Proc(i).Start(termdet.New(1, true), func() {})
			}
			defer func() {
				for _, w := range ws {
					w.Shutdown()
				}
			}()
			echo := func() {
				p0.BatchEnd(1, append(p0.BatchBegin(1), 1, 2, 3, 4, 5, 6, 7, 8))
				<-got
			}
			for i := 0; i < 1000; i++ { // connections up, pools and chunks warm
				echo()
			}
			avg := allocsPer(4000, echo) / 2
			t.Logf("%.3f allocs per data frame plus ack", avg)
			if avg > 0.1 {
				t.Fatalf("a data frame plus its ack averaged %.3f allocs, want <= 0.1", avg)
			}
		})
	}
}

// allocsPer is testing.AllocsPerRun without the rounding down to a whole
// number: the mean heap allocations of one f, over n runs.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
