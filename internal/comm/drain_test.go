package comm_test

import (
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
	"gottg/internal/termdet"
)

const drainTag = 1

// tcpWorlds brings up two network worlds over loopback TCP, rank 0's
// transport under fault0 (nil for none), both ranks started with a handler
// that swallows the payload. The detectors never see an idle worker, so no
// termination wave runs: the only traffic is what the test sends, and its
// acks.
func tcpWorlds(t *testing.T, fault0 *tcptransport.FaultConfig) [2]*comm.World {
	t.Helper()
	ws := tcpNetWorlds(t, fault0)
	for i, w := range ws {
		w.Proc(i).Register(drainTag, func(int, []byte) {})
		w.Proc(i).Start(termdet.New(1, true), func() {})
	}
	return ws
}

// tcpNetWorlds is tcpWorlds without the start: two network worlds over
// loopback TCP whose ranks are not yet configured or started.
func tcpNetWorlds(t *testing.T, fault0 *tcptransport.FaultConfig) [2]*comm.World {
	t.Helper()
	var lns [2]net.Listener
	peers := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	var ws [2]*comm.World
	for i := range ws {
		cfg := tcptransport.Config{Self: i, Peers: peers, Listener: lns[i]}
		if i == 0 {
			cfg.Fault = fault0
		}
		tr, err := tcptransport.New(cfg)
		if err != nil {
			t.Fatalf("tcptransport.New(%d): %v", i, err)
		}
		w, err := comm.NewNetWorld(tr)
		if err != nil {
			t.Fatalf("NewNetWorld(%d): %v", i, err)
		}
		ws[i] = w
	}
	return ws
}

// expectNoNewGoroutines returns a check, to be run once the test has shut
// its worlds down, that the process is back to the number of goroutines it
// had when expectNoNewGoroutines was called (endpoint goroutines, socket
// readers and writers, timer callbacks all gone); on failure it dumps what
// is left.
func expectNoNewGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
				t.Fatalf("%d goroutines before the worlds came up, %d after Shutdown",
					before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestDrainReturnsWhenLastAckLands: Drain is woken by the ack that empties
// the link, not by a poll timer — 50 back-to-back rounds of one send and one
// Drain over loopback take about 50 round trips (a few ms), where a Drain
// that polls once a millisecond needs 50 ms or more.
func TestDrainReturnsWhenLastAckLands(t *testing.T) {
	noLeak := expectNoNewGoroutines(t)
	ws := tcpWorlds(t, nil)
	p0 := ws[0].Proc(0)
	payload := make([]byte, 16)

	// The first frame may be dropped while the connection is still being
	// dialled; its retransmission gets through. Not timed.
	p0.Send(1, drainTag, payload)
	if !ws[0].Drain(10 * time.Second) {
		t.Fatalf("first Drain timed out: %s", p0.PendingSummary())
	}

	const rounds = 50
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3 && best >= 50*time.Millisecond; attempt++ { // a noisy host gets three tries
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			p0.Send(1, drainTag, payload)
			if !ws[0].Drain(10 * time.Second) {
				t.Fatalf("round %d: Drain timed out: %s", i, p0.PendingSummary())
			}
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	t.Logf("%d send+Drain rounds: %v", rounds, best)
	if best >= 50*time.Millisecond {
		t.Fatalf("%d send+Drain rounds took %v, want well under 50ms", rounds, best)
	}

	ws[0].Shutdown()
	ws[1].Shutdown()
	noLeak()
}

// TestDrainTimesOutWhenPartitioned: with every frame from rank 0 dropped by
// the transport's fault injector no ack can arrive, and Drain must give up
// at its deadline — not before, and not long after.
func TestDrainTimesOutWhenPartitioned(t *testing.T) {
	noLeak := expectNoNewGoroutines(t)
	ws := tcpWorlds(t, &tcptransport.FaultConfig{Seed: 1, PartitionProb: 1, PartitionFor: time.Minute})
	p0 := ws[0].Proc(0)
	p0.Send(1, drainTag, make([]byte, 16))

	const timeout = 100 * time.Millisecond
	t0 := time.Now()
	drained := ws[0].Drain(timeout)
	took := time.Since(t0)
	if drained {
		t.Fatalf("Drain reported a clean link across a partition")
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Fatalf("Drain(%v) returned after %v", timeout, took)
	}
	// The idle peer has nothing outstanding: its Drain returns at once.
	if !ws[1].Drain(timeout) {
		t.Fatalf("rank 1 has nothing to drain, yet Drain timed out: %s", ws[1].Proc(1).PendingSummary())
	}

	ws[0].Shutdown()
	ws[1].Shutdown()
	noLeak()
}

// TestNetShutdownLeavesNoGoroutines: ranks with failure detection on
// exchange traffic both ways and run the termination wave to the end; after
// Drain and Shutdown every goroutine they started — socket readers, writers
// and dialers, memory endpoints, rank and fault timers — is gone. The rows are two
// network worlds over loopback TCP, and one NewWorld(3) whose fault plan
// delays every frame, so Shutdown finds delays still pending.
func TestNetShutdownLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		worlds func(t *testing.T) []*comm.World // the distinct worlds of the run
	}{
		{"tcp", func(t *testing.T) []*comm.World { ws := tcpNetWorlds(t, nil); return ws[:] }},
		{"memory+delays", func(*testing.T) []*comm.World {
			w := comm.NewWorld(3)
			w.SetFaultPlan(comm.FaultPlan{Seed: 3, Delay: 1, MaxDelay: 20 * time.Millisecond})
			return []*comm.World{w}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noLeak := expectNoNewGoroutines(t)
			ws := tc.worlds(t)
			var procs []*comm.Proc
			for _, w := range ws {
				w.EnableFailureDetection(comm.FDConfig{Heartbeat: time.Millisecond, SuspectAfter: 10 * time.Second})
				for r := 0; r < w.Size(); r++ {
					if p := w.Proc(r); p != nil {
						procs = append(procs, p)
					}
				}
			}
			n := len(procs)
			var got atomic.Int64
			dets := make([]*termdet.Detector, n)
			done := make([]chan struct{}, n)
			for i, p := range procs {
				p.Register(drainTag, func(int, []byte) { got.Add(1) })
				dets[i], done[i] = termdet.New(1, false), make(chan struct{})
				dets[i].Discovered(termdet.ExternalSlot) // the test's sends are pending work
			}
			for i, p := range procs {
				d := done[i]
				p.Start(dets[i], func() { close(d) })
				dets[i].EnterIdle(0)
			}
			const sends = 20
			for j := 0; j < sends; j++ {
				for i, p := range procs {
					p.Send((i+1)%n, drainTag, []byte{byte(j)})
				}
			}
			for i := range procs {
				dets[i].Completed(termdet.ExternalSlot)
			}
			for i, d := range done {
				select {
				case <-d:
				case <-time.After(20 * time.Second):
					t.Fatalf("rank %d never saw termination: %s", i, procs[i].PendingSummary())
				}
			}
			if got := got.Load(); got != int64(n*sends) {
				t.Fatalf("delivered %d messages, want %d", got, n*sends)
			}
			for _, w := range ws {
				if !w.Drain(10 * time.Second) {
					t.Fatalf("a world did not drain")
				}
			}
			for _, w := range ws {
				w.Shutdown()
			}
			noLeak()
		})
	}
}
