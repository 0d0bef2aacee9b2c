package comm

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// commGoroutines counts the goroutines running comm code, test goroutines
// excluded: memory endpoints' delivery goroutines, and every other one.
func commGoroutines() (endpoints int, others []string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case !strings.Contains(g, "gottg/internal/comm.") || strings.Contains(g, "testing.tRunner"):
		case strings.Contains(g, "(*memEndpoint).run"):
			endpoints++
		default:
			others = append(others, g)
		}
	}
	return endpoints, others
}

// settle polls cond, yielding between polls, until it holds or five seconds
// pass.
func settle(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestIdleWorldHasNoTick: once an in-process world has terminated and its
// links have drained, each rank keeps exactly one goroutine — its memory
// endpoint's delivery goroutine — and no armed link timer. With failure
// detection on, the heartbeat timer is the only timer left.
func TestIdleWorldHasNoTick(t *testing.T) {
	for _, fd := range []bool{false, true} {
		name := "fd-off"
		if fd {
			name = "fd-on"
		}
		t.Run(name, func(t *testing.T) {
			const n = 8
			before, _ := commGoroutines()
			h := newHarness(n)
			if fd {
				h.world.EnableFailureDetection(FDConfig{})
			}
			for i := 0; i < n; i++ {
				i := i
				h.world.Proc(i).Register(0, func(_ int, pl []byte) {
					if pl[0] > 0 {
						h.world.Proc(i).Send((i+1)%n, 0, []byte{pl[0] - 1})
					}
				})
			}
			h.dets[0].Discovered(termdet.ExternalSlot)
			h.start()
			h.world.Proc(0).Send(1, 0, []byte{3 * n})
			h.dets[0].Completed(termdet.ExternalSlot)
			for i, d := range h.done {
				select {
				case <-d:
				case <-time.After(10 * time.Second):
					t.Fatalf("rank %d never saw termination", i)
				}
			}
			defer h.world.Shutdown()
			if !h.world.Drain(5 * time.Second) {
				t.Fatal("links did not drain")
			}
			disarmed := func() bool {
				for _, p := range h.world.local {
					if p.armed.Load() {
						return false
					}
				}
				return true
			}
			if !settle(disarmed) {
				t.Fatal("a link timer is still armed on a drained world")
			}
			for _, p := range h.world.local {
				if got := p.beat != nil; got != fd {
					t.Fatalf("rank %d: heartbeat timer exists = %v, want %v", p.rank, got, fd)
				}
			}
			if fd {
				return // heartbeat callbacks come and go; the goroutine count is for the quiet world
			}
			quiet := func() bool {
				eps, others := commGoroutines()
				return eps-before == n && len(others) == 0
			}
			if !settle(quiet) {
				eps, others := commGoroutines()
				t.Fatalf("idle %d-rank world: %d endpoint goroutines above baseline (want %d) and %d other comm goroutines (want 0):\n%s",
					n, eps-before, n, len(others), strings.Join(others, "\n\n"))
			}
		})
	}
}

// TestRetransmitArmsAfterIdle: a link that went idle disarms the link timer,
// so the next send must arm it again or a lost frame is never resent. A drop
// filter eats the first transmission of each of 1000 frames, each sent on a
// link that has drained; every frame must still arrive, exactly once.
func TestRetransmitArmsAfterIdle(t *testing.T) {
	const frames = 1000
	h := newHarness(2)
	h.world.SetRetransmitTimeout(200 * time.Microsecond)
	var dropNext atomic.Bool
	h.world.SetDropFilter(func(src, dst, tag int) bool {
		return src == 0 && tag == 0 && dropNext.CompareAndSwap(true, false)
	})
	var got [frames]atomic.Int32
	arrived := make(chan int, frames)
	h.world.Proc(1).Register(0, func(_ int, pl []byte) {
		k := int(pl[0]) | int(pl[1])<<8
		got[k].Add(1)
		arrived <- k
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	l := &h.world.Proc(0).sendLinks[1]
	for k := 0; k < frames; k++ {
		if !settle(func() bool { return !l.busy.Load() }) {
			t.Fatalf("frame %d: the link never drained", k-1)
		}
		dropNext.Store(true)
		h.world.Proc(0).Send(1, 0, []byte{byte(k), byte(k >> 8)})
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d, dropped once on an idle link, was never retransmitted", k)
		}
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	for k := range got {
		if n := got[k].Load(); n != 1 {
			t.Fatalf("frame %d dispatched %d times, want 1", k, n)
		}
	}
}

// TestQuiescenceOwedUnderRx: work handed to a rank whose receive lock is
// taken must reach the lock's holder (unlockRx).
//
// In the first subtest rank 1 is probed while it still holds a pending
// action, so it owes the wave a reply on quiescence, and the action then
// completes inside a handler, under rank 1's receive lock: the wave must
// still terminate, 1000 rounds.
//
// The other two race the holder's unlock: while rank 1's delivery goroutine
// returns from a handler, the test goroutine completes rank 1's last pending
// action (the quiescence notification then shows as a prune notice) or posts
// a self-send, after a delay swept over the handler's way out. Nothing else
// takes rank 1's lock afterwards, so work left behind by the unlock would
// never run.
func TestQuiescenceOwedUnderRx(t *testing.T) {
	t.Run("in-handler", func(t *testing.T) {
		for round := 0; round < 1000; round++ {
			h := newHarness(2)
			h.world.Proc(1).Register(0, func(int, []byte) { h.dets[1].Completed(termdet.ExternalSlot) })
			h.dets[1].Discovered(termdet.ExternalSlot) // the action the message completes
			h.start()
			// The root is quiescent from the start and probes rank 1 at
			// once: the probe is the first sequenced frame on the link, and
			// the message follows it in order.
			l := &h.world.Proc(0).sendLinks[1]
			probed := func() bool {
				l.mu.Lock()
				defer l.mu.Unlock()
				return l.nextSeq >= 1
			}
			if !settle(probed) {
				t.Fatalf("round %d: the root never probed", round)
			}
			h.world.Proc(0).Send(1, 0, nil)
			for i, d := range h.done {
				select {
				case <-d:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: rank %d never saw termination: %s", round, i, h.world.Proc(i).PendingSummary())
				}
			}
			h.world.Shutdown()
		}
	})
	for _, selfSend := range []bool{false, true} {
		name := "quiescence-racing-unlock"
		if selfSend {
			name = "self-send-racing-unlock"
		}
		t.Run(name, func(t *testing.T) {
			const rounds = 5000
			h := newHarness(2)
			p0, p1 := h.world.Proc(0), h.world.Proc(1)
			var entered atomic.Bool
			var done atomic.Int64 // prune notices' dispatch count, or self-sends handled
			p1.EnablePruneNotices()
			p0.SetOnPrune(func(_ int, n int64) { done.Store(n) })
			p1.Register(0, func(int, []byte) {
				if !selfSend {
					h.dets[1].Discovered(termdet.ExternalSlot)
				}
				entered.Store(true)
			})
			p1.Register(1, func(int, []byte) { done.Add(1) })
			h.dets[0].Discovered(termdet.ExternalSlot) // no wave until the end
			h.start()
			var sink atomic.Int64
			for round := 1; round <= rounds; round++ {
				if !settle(func() bool { return !p1.sendLinks[0].busy.Load() }) {
					t.Fatalf("round %d: rank 1's prune notice was never acked", round)
				}
				entered.Store(false)
				p0.Send(1, 0, nil)
				for !entered.Load() {
				}
				for spin := round % 512; spin > 0; spin-- {
					sink.Add(1)
				}
				if selfSend {
					p1.Send(1, 1, nil)
				} else {
					h.dets[1].Completed(termdet.ExternalSlot)
				}
				if !settle(func() bool { return done.Load() == int64(round) }) {
					t.Fatalf("round %d: work left for rank 1's lock holder never ran: %s", round, p1.PendingSummary())
				}
			}
			h.dets[0].Completed(termdet.ExternalSlot)
			h.waitAll(t)
		})
	}
}
