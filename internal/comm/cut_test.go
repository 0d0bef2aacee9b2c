package comm_test

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
	"gottg/internal/termdet"
)

// The Transport contract (transport.go): per-sender FIFO, a frame is lost
// only at a cut, and the cut is reported as PeerDown (or PeerDialFailed)
// and then PeerUp. These tests check that each transport meets it and that
// the link layer's resend on PeerUp makes delivery exactly-once and
// in-order on top of it.

// TestLossOnlyAtACut: two ranks stream activations at each other, a few at
// a time with pauses, so frames go out before, during and after the cuts
// the cutting endpoints make (the fault plan's drops over memory; connection
// kills and torn writes over TCP). Every activation is dispatched exactly
// once and in its sender's order, and the wave terminates. With cuts, the
// links resent frames and PeerUp was reported; on the endpoints that never
// cut, no frame is resent.
func TestLossOnlyAtACut(t *testing.T) {
	const perRank = 1500
	for _, tc := range transportCases() {
		for _, cut := range []bool{false, true} {
			endpoints, name := tc.endpoints, tc.name+"/clean"
			if cut {
				if tc.cutting == nil {
					continue
				}
				endpoints, name = tc.cutting, tc.name+"/cutting"
			}
			t.Run(name, func(t *testing.T) {
				var ups atomic.Int64
				rs := newAckRanks(t, endpoints(t, 2), func(w *comm.World) {
					w.EnableMetrics()
					w.SetPeerEventHook(func(ev comm.PeerEvent) {
						if ev.Kind == comm.PeerUp {
							ups.Add(1)
						}
					})
				})
				var got, bad [2]atomic.Int64
				for r, rk := range rs {
					r := r
					rk.p.Register(0, func(_ int, pl []byte) { // under rank r's receive lock
						if int64(binary.LittleEndian.Uint32(pl)) != got[r].Load() {
							bad[r].Add(1)
						}
						got[r].Add(1)
					})
				}
				for _, rk := range rs {
					rk.start()
				}
				var wg sync.WaitGroup
				for r, rk := range rs {
					wg.Add(1)
					go func(r int, rk *ackRank) {
						defer wg.Done()
						for k := 0; k < perRank; k++ {
							rk.p.Send(1-r, 0, binary.LittleEndian.AppendUint32(nil, uint32(k)))
							if k%16 == 15 {
								time.Sleep(200 * time.Microsecond)
							}
						}
						rk.det.Completed(termdet.ExternalSlot)
					}(r, rk)
				}
				wg.Wait()
				for r, rk := range rs {
					select {
					case <-rk.done:
					case <-time.After(30 * time.Second):
						t.Fatalf("rank %d never saw termination: got %d and %d of %d", r, got[0].Load(), got[1].Load(), perRank)
					}
				}
				for _, rk := range rs {
					if !rk.w.Drain(10 * time.Second) {
						t.Error("Drain timed out")
					}
				}
				for _, rk := range rs {
					rk.w.Shutdown()
				}
				for r := range rs {
					if got[r].Load() != perRank || bad[r].Load() != 0 {
						t.Fatalf("rank %d dispatched %d activations, %d of them duplicated or out of order; want %d in order",
							r, got[r].Load(), bad[r].Load(), perRank)
					}
				}
				resent := counter("comm.retransmits", rs)
				t.Logf("%d frames resent, %d PeerUp events", resent, ups.Load())
				switch {
				case !cut && resent != 0:
					t.Fatalf("%d frames resent on endpoints that never cut a link, want 0", resent)
				case cut && (resent == 0 || ups.Load() == 0):
					t.Fatalf("%d frames resent after %d PeerUp events: the endpoints never cut a link", resent, ups.Load())
				}
			})
		}
	}
}

// TestMemFramesBeforeStartDelivered: a frame sent to a memory endpoint that
// has not started yet waits for its Start, even through a Poll before it,
// and is delivered then; a frame sent to a closed endpoint is dropped.
func TestMemFramesBeforeStartDelivered(t *testing.T) {
	eps := comm.NewMemNetwork(2)
	if err := eps[0].Start(func([]byte) {}, nil); err != nil {
		t.Fatalf("Start(0): %v", err)
	}
	const early = 3
	for k := 1; k <= early; k++ {
		eps[0].Send(1, wireFrame(0, 0, 0, 0, 0, int64(k), nil))
	}
	if n := eps[1].Poll(); n != 0 {
		t.Fatalf("Poll before Start delivered %d frames", n)
	}
	got := make(chan int64, early+1)
	if err := eps[1].Start(func(f []byte) { got <- int64(binary.LittleEndian.Uint64(f[32:])) }, nil); err != nil {
		t.Fatalf("Start(1): %v", err)
	}
	for k := int64(1); k <= early; k++ {
		select {
		case seq := <-got:
			if seq != k {
				t.Fatalf("frame %d delivered when %d was due", seq, k)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d, sent before Start, was never delivered", k)
		}
	}
	eps[1].Close()
	eps[0].Send(1, wireFrame(0, 0, 0, 0, 0, early+1, nil))
	eps[0].Close()
	select {
	case seq := <-got:
		t.Fatalf("frame %d delivered to a closed endpoint", seq)
	default:
	}
}

// TestCutAckRestated: rank 0 sends rank 1 one activation, and rank 1 sends
// nothing back but its standalone ack, which a drop filter loses, cutting
// the link 1→0. No data frame can carry the ack later, so only its
// restatement after the cut lets rank 0's Drain return: within 250 ms, far
// beyond a cut's length of at most a millisecond.
func TestCutAckRestated(t *testing.T) {
	const tagAck = -5
	const bound = 250 * time.Millisecond
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			var dropped atomic.Bool
			rs := newAckRanks(t, tc.endpoints(t, 2), func(w *comm.World) {
				w.EnableMetrics()
				w.SetDropFilter(func(src, dst, tag int) bool {
					return src == 1 && tag == tagAck && dropped.CompareAndSwap(false, true)
				})
			})
			arrived := make(chan struct{})
			rs[1].p.Register(0, func(int, []byte) { close(arrived) })
			for _, rk := range rs {
				rk.p.SetAwake(func() bool { return false }) // every ack leaves at once
				rk.start()
			}
			defer func() {
				for _, rk := range rs {
					rk.w.Shutdown()
				}
			}()
			rs[0].p.Send(1, 0, []byte{1})
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("the activation never arrived")
			}
			start := time.Now()
			drained := rs[0].w.Drain(5 * time.Second)
			took := time.Since(start)
			if !dropped.Load() {
				t.Fatal("the scripted ack drop never triggered")
			}
			if !drained || took > bound {
				t.Fatalf("Drain took %v (drained %v), want under %v: the lost ack was not restated", took, drained, bound)
			}
			t.Logf("Drain returned after %v", took)
		})
	}
}

// TestReceiverClosedSenderResends: the receiving side tears the connection
// down (as its read timeout or a framing error would) after reading one
// frame, while the sender, whose only frame that is, stays idle. The sender
// notices the cut without writing, reconnects on its own, and resends the
// frame on the new connection. The receiver is a bare listener speaking the
// handshake and the framing.
func TestReceiverClosedSenderResends(t *testing.T) {
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer fake.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	tr, err := tcptransport.New(tcptransport.Config{Self: 0, Peers: []string{ln.Addr().String(), fake.Addr().String()}, Listener: ln})
	if err != nil {
		t.Fatalf("tcptransport.New: %v", err)
	}
	w, err := comm.NewNetWorld(tr)
	if err != nil {
		t.Fatalf("NewNetWorld: %v", err)
	}
	defer w.Shutdown()
	var events sync.Map
	w.SetPeerEventHook(func(ev comm.PeerEvent) {
		n, _ := events.LoadOrStore(ev.Kind, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
	})
	det := termdet.New(1, false)
	det.Discovered(termdet.ExternalSlot) // no wave: the frame below is the only one
	p := w.Proc(0)
	p.Start(det, func() {})
	det.EnterIdle(0)

	// readFrame accepts the sender's next connection and reads its
	// handshake and first frame, returning the frame's sequence number and
	// payload.
	readFrame := func() (net.Conn, int64, []byte) {
		t.Helper()
		fake.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		c, err := fake.Accept()
		if err != nil {
			t.Fatalf("the sender never (re)connected: %v", err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var hs [9]byte
		var n [4]byte
		if _, err := io.ReadFull(c, hs[:]); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if _, err := io.ReadFull(c, n[:]); err != nil {
			t.Fatalf("frame length: %v", err)
		}
		f := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(c, f); err != nil {
			t.Fatalf("frame: %v", err)
		}
		return c, int64(binary.LittleEndian.Uint64(f[32:])), f[48:]
	}
	p.Send(1, 0, []byte("only"))
	c1, seq1, pl1 := readFrame()
	c1.Close() // the receiver tears the connection down; the sender is idle
	c2, seq2, pl2 := readFrame()
	defer c2.Close()
	if seq1 != 1 || seq2 != seq1 || string(pl1) != "only" || string(pl2) != "only" {
		t.Fatalf("first connection carried seq %d %q, second seq %d %q; want seq 1 \"only\" on both", seq1, pl1, seq2, pl2)
	}
	// The hook sees an event after the link layer, which may resend first.
	count := func(k comm.PeerEventKind) int64 {
		if n, ok := events.Load(k); ok {
			return n.(*atomic.Int64).Load()
		}
		return 0
	}
	for deadline := time.Now().Add(5 * time.Second); count(comm.PeerDown) != 1 || count(comm.PeerUp) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d PeerDown and %d PeerUp events, want one each: the cut and the reconnect", count(comm.PeerDown), count(comm.PeerUp))
		}
	}
}
