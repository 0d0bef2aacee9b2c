package tcptransport

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/termdet"
)

// TestReaderDispatchExactlyOnce stresses dispatch on the socket readers: 4
// ranks over loopback TCP, so each rank has 3 readers dispatching
// concurrently under its receive lock, with a frame fault plan (10 % of
// frames cut their link, 10 % are delayed) under the link layer, exchange
// batched activations all-to-all, in small frames. Every activation must be dispatched exactly once and in order
// per link, the wave must terminate, and Shutdown must leave no goroutine
// behind. The per-rank receive state below is deliberately unsynchronized:
// under -race it also checks that one rank's handlers never overlap.
func TestReaderDispatchExactlyOnce(t *testing.T) { dispatchExactlyOnce(t, false) }

// TestPolledDispatchExactlyOnce is TestReaderDispatchExactlyOnce with a
// goroutine per rank calling Proc.Poll throughout, as an idle worker does:
// frames dispatched by pollers and by readers together are still
// dispatched exactly once and in order, and comm.recv.polled counts some.
func TestPolledDispatchExactlyOnce(t *testing.T) { dispatchExactlyOnce(t, true) }

func dispatchExactlyOnce(t *testing.T, poll bool) {
	const n, perLink = 4, 2000
	before := runtime.NumGoroutine()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		lns[i] = listenLoopback(t)
		peers[i] = lns[i].Addr().String()
	}
	worlds := make([]*comm.World, n)
	for i := range worlds {
		tr, err := New(Config{Self: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		if worlds[i], err = comm.NewNetWorld(tr); err != nil {
			t.Fatalf("NewNetWorld(%d): %v", i, err)
		}
		worlds[i].SetFaultPlan(comm.FaultPlan{Seed: 29, Drop: 0.1, Delay: 0.1})
		worlds[i].SetBatchLimit(128) // about 16 activations a frame: many frames per link
		worlds[i].EnableMetrics()
	}
	next := make([][]int, n) // next[dst][src]: the activation dst expects from src
	bad := make([]int, n)
	dets := make([]*termdet.Detector, n)
	done := make([]chan struct{}, n)
	for i, w := range worlds {
		i := i
		next[i] = make([]int, n)
		dets[i] = termdet.New(1, false)
		done[i] = make(chan struct{})
		w.Proc(i).RegisterBatched(0, func(src int, e []byte) {
			if int(binary.LittleEndian.Uint32(e)) != next[i][src] {
				bad[i]++
			}
			next[i][src]++
		})
	}
	// Every rank holds its detector busy until it has appended everything,
	// so no wave can end before the last activation is counted.
	for i, w := range worlds {
		i := i
		dets[i].Discovered(termdet.ExternalSlot)
		w.Proc(i).Start(dets[i], func() { close(done[i]) })
		dets[i].EnterIdle(0)
	}
	var quit atomic.Bool
	var pollers sync.WaitGroup
	for i, w := range worlds {
		if !poll {
			break
		}
		pollers.Add(1)
		go func(p *comm.Proc) {
			defer pollers.Done()
			for !quit.Load() {
				p.Poll()
				runtime.Gosched()
			}
		}(w.Proc(i))
	}
	for i, w := range worlds {
		go func(i int, p *comm.Proc) {
			for k := 0; k < perLink; k++ {
				for dst := 0; dst < n; dst++ {
					if dst != i {
						p.BatchEnd(dst, binary.LittleEndian.AppendUint32(p.BatchBegin(dst), uint32(k)))
					}
				}
			}
			dets[i].Completed(termdet.ExternalSlot)
		}(i, w.Proc(i))
	}
	for i, d := range done {
		select {
		case <-d:
		case <-time.After(60 * time.Second):
			t.Fatalf("rank %d never saw termination:\n%s", i, worlds[i].Proc(i).PendingSummary())
		}
	}
	for _, w := range worlds {
		w.Drain(5 * time.Second)
	}
	for _, w := range worlds {
		w.Shutdown()
	}
	quit.Store(true)
	pollers.Wait()
	var polled uint64
	for i, w := range worlds {
		c := w.MetricsSnapshot().Counters
		polled += c["comm.recv.polled"]
		t.Logf("rank %d: %d frames sent, %d dropped in cuts, %d delayed, %d resent", i, c["comm.msgs.sent"], c["comm.fault.dropped"], c["comm.fault.delayed"], c["comm.retransmits"])
		if d, l, r := c["comm.fault.dropped"], c["comm.fault.delayed"], c["comm.retransmits"]; min(d, l, r) == 0 {
			t.Errorf("rank %d's fault plan injected %d drops and %d delays, and it resent %d frames; want each > 0", i, d, l, r)
		}
	}
	if poll && polled == 0 {
		t.Error("the pollers dispatched no frame (comm.recv.polled = 0)")
	}
	if !poll && polled != 0 {
		t.Errorf("comm.recv.polled = %d with nobody polling", polled)
	}
	for dst := range next {
		for src, got := range next[dst] {
			if src != dst && got != perLink {
				t.Errorf("rank %d dispatched %d activations from rank %d, want %d", dst, got, src, perLink)
			}
		}
		if bad[dst] != 0 {
			t.Errorf("rank %d dispatched %d activations out of order or twice", dst, bad[dst])
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the worlds, %d after Shutdown:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
