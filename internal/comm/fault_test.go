package comm

import (
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// faultPlanHeavy is the acceptance-criteria plan: a tenth of all frames
// cut their link, and a tenth are delayed, on every link.
func faultPlanHeavy(seed uint64) FaultPlan {
	return FaultPlan{
		Seed:  seed,
		Drop:  0.10,
		Delay: 0.10,
	}
}

// resent returns the frames h's world resent after cuts, with metrics on.
func resent(h *harness) uint64 {
	return h.world.MetricsSnapshot().Counters["comm.retransmits"]
}

func TestRingRelaySurvivesFaults(t *testing.T) {
	// The ring-relay workload under a heavy fault plan: every hop's message
	// can be lost in a cut or delayed, yet the link layer must deliver each
	// exactly once and the wave must terminate.
	const n = 4
	const hops = 60
	h := newHarness(n)
	h.world.SetFaultPlan(faultPlanHeavy(42))
	var handled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			left := binary.LittleEndian.Uint32(payload)
			if left == 0 {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], left-1)
			h.world.Proc(i).Send((i+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], hops)
	h.world.Proc(0).Send(1, 0, buf[:])
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if got := handled.Load(); got != hops+1 {
		t.Fatalf("handled %d messages, want %d (dup leaked through or message lost)", got, hops+1)
	}
}

func TestPerSenderFIFOSurvivesCuts(t *testing.T) {
	// The wire cuts the link often and delays frames: the frames lost in
	// each cut are resent after it, behind frames that went out later and
	// arrived past the gap. The receiver must still dispatch per-link FIFO,
	// each message once.
	const msgs = 200
	h := newHarness(2)
	h.world.SetFaultPlan(FaultPlan{Seed: 7, Drop: 0.1, Delay: 0.3})
	h.world.EnableMetrics()
	var last int32 = -1
	var outOfOrder atomic.Int64
	h.world.Proc(1).Register(0, func(src int, payload []byte) {
		v := int32(binary.LittleEndian.Uint32(payload))
		if v != last+1 {
			outOfOrder.Add(1)
		}
		last = v
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for i := 0; i < msgs; i++ {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(i))
		h.world.Proc(0).Send(1, 0, buf[:])
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if outOfOrder.Load() != 0 {
		t.Fatalf("%d messages dispatched out of order", outOfOrder.Load())
	}
	if last != msgs-1 {
		t.Fatalf("last = %d, want %d", last, msgs-1)
	}
	if resent(h) == 0 {
		t.Fatal("no frame was resent: the plan never cut the link")
	}
}

func TestScatterChainsSurviveFaults(t *testing.T) {
	// The wave-stressing scatter workload from comm_test.go, now over a
	// faulty wire: exactly-once dispatch must keep the handled count exact.
	const n = 5
	const seeds = 15
	h := newHarness(n)
	h.world.SetFaultPlan(faultPlanHeavy(1234))
	var handled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			hops := binary.LittleEndian.Uint32(payload)
			if hops == 0 {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], hops/2)
			h.world.Proc(i).Send(int(hops)%n, 0, buf[:])
			h.world.Proc(i).Send(int(hops+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	expected := int64(0)
	var count func(hops uint32) int64
	count = func(hops uint32) int64 {
		if hops == 0 {
			return 1
		}
		return 1 + 2*count(hops/2)
	}
	for s := 0; s < seeds; s++ {
		hops := uint32(s % 13)
		expected += count(hops)
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], hops)
		h.world.Proc(0).Send(s%n, 0, buf[:])
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if handled.Load() != expected {
		t.Fatalf("handled %d messages, want %d", handled.Load(), expected)
	}
}

func TestLostTerminateIsRetransmitted(t *testing.T) {
	// The scenario that deadlocks the unprotected protocol: the root's
	// tagTerminate to rank 1 is lost in a cut. The root resends it when the
	// cut ends, so rank 1 still observes termination instead of hanging
	// forever.
	h := newHarness(3)
	h.world.EnableMetrics()
	var dropsLeft atomic.Int32
	dropsLeft.Store(1)
	h.world.SetDropFilter(func(src, dst, tag int) bool {
		return src == 0 && dst == 1 && tag == tagTerminate &&
			dropsLeft.Add(-1) >= 0
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if dropsLeft.Load() > 0 {
		t.Fatal("the scripted tagTerminate drop never triggered")
	}
	if resent(h) == 0 {
		t.Fatal("the lost tagTerminate arrived without a resend")
	}
}

func TestLostProbeAndReplyAreRetransmitted(t *testing.T) {
	// Same idea for the other wave messages: the first probe to rank 1 and
	// the first reply from rank 2 are lost in cuts; the resends after the
	// cuts must still complete the reduction.
	h := newHarness(3)
	h.world.EnableMetrics()
	var probeDrops, replyDrops atomic.Int32
	probeDrops.Store(1)
	replyDrops.Store(1)
	h.world.SetDropFilter(func(src, dst, tag int) bool {
		if src == 0 && dst == 1 && tag == tagProbe && probeDrops.Add(-1) >= 0 {
			return true
		}
		return src == 2 && dst == 0 && tag == tagReply && replyDrops.Add(-1) >= 0
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if probeDrops.Load() > 0 || replyDrops.Load() > 0 {
		t.Fatal("a scripted drop never triggered")
	}
	if n := resent(h); n < 2 {
		t.Fatalf("%d frames resent, want at least the lost probe and reply", n)
	}
}

func TestStallWatchdogSurfacesDiagnostics(t *testing.T) {
	// A link that cuts on every application send from rank 0 to rank 1, the
	// resends included, can never terminate (sent != received forever). The
	// watchdog must surface the unacked-send diagnostic instead of letting
	// the test hang.
	h := newHarness(2)
	h.world.SetDropFilter(func(src, dst, tag int) bool {
		return src == 0 && dst == 1 && tag >= 0
	})
	stalls := make(chan string, 2)
	h.world.SetStallHandler(20*time.Millisecond, func(rank int, summary string) {
		select {
		case stalls <- summary:
		default:
		}
	})
	h.world.Proc(1).Register(0, func(int, []byte) {})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.world.Proc(0).Send(1, 0, []byte("black hole"))
	h.dets[0].Completed(termdet.ExternalSlot)
	select {
	case summary := <-stalls:
		if !strings.Contains(summary, "unacked") {
			t.Fatalf("stall summary does not mention unacked sends:\n%s", summary)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stall watchdog never fired on a dead link")
	}
	h.world.Shutdown()
}

func TestStallWatchdogRearmsAfterRecovery(t *testing.T) {
	// Regression: the stall latch used to stay set after the first episode,
	// so a link that stalled, recovered, and stalled again surfaced only one
	// diagnostic. Genuine forward progress (an ack releasing sends, or an
	// in-order delivery) must re-arm the watchdog.
	h := newHarness(2)
	var hole atomic.Bool
	hole.Store(true)
	h.world.SetDropFilter(func(src, dst, tag int) bool {
		return hole.Load() && src == 0 && dst == 1 && tag >= 0
	})
	stalls := make(chan string, 4)
	h.world.SetStallHandler(20*time.Millisecond, func(rank int, summary string) {
		select {
		case stalls <- summary:
		default:
		}
	})
	h.world.Proc(1).Register(0, func(int, []byte) {})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()

	// Episode one: the message disappears into the hole until the watchdog
	// fires.
	h.world.Proc(0).Send(1, 0, []byte("first"))
	select {
	case <-stalls:
	case <-time.After(5 * time.Second):
		t.Fatal("first stall episode never surfaced")
	}
	// Recovery: open the link; the resend after the current cut gets
	// through and its ack clears the latch.
	hole.Store(false)
	time.Sleep(50 * time.Millisecond)
	// Episode two: a fresh message into a re-closed hole must surface again.
	hole.Store(true)
	h.world.Proc(0).Send(1, 0, []byte("second"))
	select {
	case <-stalls:
	case <-time.After(5 * time.Second):
		t.Fatal("second stall episode never surfaced: the watchdog latch was not re-armed")
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.world.Shutdown()
}

func TestAbortBroadcastReachesAllRanks(t *testing.T) {
	// Proc.Abort must reach every other rank exactly once per sender, even
	// over a wire that cuts and delays.
	const n = 4
	h := newHarness(n)
	h.world.SetFaultPlan(faultPlanHeavy(5))
	aborts := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).SetOnAbort(func(src int, reason string) {
			if reason != "boom" {
				t.Errorf("rank %d: abort reason %q, want %q", i, reason, "boom")
			}
			aborts[i].Add(1)
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.world.Proc(2).Abort("boom")
	h.dets[0].Completed(termdet.ExternalSlot)
	// The wave does not count aborts, so the run can terminate while a
	// dropped abort still waits for its resend: drain (acks follow dispatch)
	// before Shutdown stops the wire.
	for i, d := range h.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never saw termination", i)
		}
	}
	if !h.world.Drain(5 * time.Second) {
		t.Fatalf("links did not drain")
	}
	h.world.Shutdown()
	for i := 0; i < n; i++ {
		want := int32(1)
		if i == 2 {
			want = 0 // the aborter does not notify itself
		}
		if got := aborts[i].Load(); got != want {
			t.Fatalf("rank %d saw %d abort notifications, want %d", i, got, want)
		}
	}
}

func TestFaultConfigAfterStartPanics(t *testing.T) {
	h := newHarness(1)
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for name, f := range map[string]func(){
		"SetFaultPlan":    func() { h.world.SetFaultPlan(FaultPlan{}) },
		"SetDropFilter":   func() { h.world.SetDropFilter(func(int, int, int) bool { return false }) },
		"SetStallHandler": func() { h.world.SetStallHandler(time.Second, func(int, string) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Start did not panic", name)
				}
			}()
			f()
		}()
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}
