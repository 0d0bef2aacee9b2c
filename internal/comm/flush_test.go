package comm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// The flush rule (batch.go) over memory networks, with no FlushBatches call
// and no idle hook: BatchEnd flushes toward an idle link, and the ack that
// empties a busy one flushes what gathered behind it.

// sendCounter counts the frames its rank hands to the wire.
type sendCounter struct {
	Transport
	sends atomic.Int64
}

func (c *sendCounter) Send(dst int, frame []byte) error {
	c.sends.Add(1)
	return c.Transport.Send(dst, frame)
}

// countedMemHarness is memHarness with rank 0's sends counted. Rank 0's
// retransmission timeout is long, so every frame it sends is an original.
func countedMemHarness(t *testing.T) (*netHarness, *sendCounter) {
	t.Helper()
	mem := NewMemNetwork(2)
	c := &sendCounter{Transport: mem[0]}
	h := newNetHarness(t, c, mem[1])
	h.worlds[0].SetRetransmitTimeout(time.Minute)
	return h, c
}

// TestLoneAppendLeavesAtOnce: an append toward a link with nothing unacked
// is on the wire when BatchEnd returns.
func TestLoneAppendLeavesAtOnce(t *testing.T) {
	h, c := countedMemHarness(t)
	got := make(chan uint32, 1)
	h.proc(0).RegisterBatched(0, func(int, []byte) {})
	h.proc(1).RegisterBatched(0, func(_ int, e []byte) { got <- binary.LittleEndian.Uint32(e) })
	h.dets[0].Discovered(termdet.ExternalSlot) // rank 0 sends nothing else
	h.start()
	appendEntry(h.proc(0), 1, 42)
	if n := c.sends.Load(); n != 1 {
		t.Fatalf("rank 0 sent %d frames by the time BatchEnd returned, want 1", n)
	}
	if v := <-got; v != 42 {
		t.Fatalf("delivered %d, want 42", v)
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}

// TestAppendsBehindUnackedShipOnAck: appends made while a frame is unacked
// gather, and the ack ships them together as one frame. The receiver holds
// its ack back by blocking in the handler of the first frame (acks follow
// dispatch).
func TestAppendsBehindUnackedShipOnAck(t *testing.T) {
	const behind = 9
	h, c := countedMemHarness(t)
	release := make(chan struct{})
	var mu sync.Mutex
	frames := map[uint64][]uint32{}
	done := make(chan struct{})
	h.proc(0).RegisterBatched(0, func(int, []byte) {})
	p1 := h.proc(1)
	p1.RegisterBatched(0, func(_ int, e []byte) {
		v := binary.LittleEndian.Uint32(e)
		if v == 0 {
			<-release
		}
		mu.Lock()
		fid := p1.DispatchFrameID()
		frames[fid] = append(frames[fid], v)
		mu.Unlock()
		if v == behind {
			close(done)
		}
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	p0 := h.proc(0)
	appendEntry(p0, 1, 0)
	for i := uint32(1); i <= behind; i++ {
		appendEntry(p0, 1, i)
	}
	if n := c.sends.Load(); n != 1 {
		t.Fatalf("rank 0 sent %d frames while its first was unacked, want 1", n)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the appends behind the unacked frame never arrived")
	}
	if n := c.sends.Load(); n != 2 {
		t.Fatalf("rank 0 sent %d frames, want 2 (one, then the rest on its ack)", n)
	}
	mu.Lock()
	if len(frames) != 2 {
		t.Fatalf("entries arrived in %d frames, want 2: %v", len(frames), frames)
	}
	for _, vs := range frames {
		if len(vs) != 1 && len(vs) != behind {
			t.Fatalf("frame carried %v, want one of 1 or %d entries", vs, behind)
		}
	}
	mu.Unlock()
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}

// TestFlushRuleExactlyOnceUnderLoss: 10⁴ appends from two goroutines on rank
// 0, with rank 1 echoing every eighth entry back from its handler, over a
// wire that drops 30 % of all frames, acks included. Every
// entry and echo arrives exactly once and in its appender's order, and the
// wave terminates — no buffer is stranded behind a lost ack.
func TestFlushRuleExactlyOnceUnderLoss(t *testing.T) {
	const perAppender = 5000
	h := memHarness(t, 2)
	for _, w := range h.worlds {
		w.SetFaultPlan(FaultPlan{Seed: 30, Drop: 0.3})
		w.SetRetransmitTimeout(300 * time.Microsecond)
		w.EnableMetrics()
	}
	var counts, echoes [2 * perAppender]int
	var last [2]int64
	last[0], last[1] = -1, -1
	ordered := true
	p1 := h.proc(1)
	p1.RegisterBatched(0, func(_ int, e []byte) { // under rank 1's receive lock
		v := binary.LittleEndian.Uint32(e)
		counts[v]++
		a := v / perAppender
		ordered = ordered && int64(v) > last[a]
		last[a] = int64(v)
		if v%8 == 0 {
			appendEntry(p1, 0, v)
		}
	})
	h.proc(0).RegisterBatched(0, func(_ int, e []byte) { echoes[binary.LittleEndian.Uint32(e)]++ })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			for i := uint32(0); i < perAppender; i++ {
				appendEntry(h.proc(0), 1, base+i)
			}
		}(uint32(a * perAppender))
	}
	wg.Wait()
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t) // termination happens-after every dispatch
	for v := range counts {
		if counts[v] != 1 {
			t.Fatalf("entry %d delivered %d times, want exactly once", v, counts[v])
		}
		if v%8 == 0 && echoes[v] != 1 {
			t.Fatalf("echo of %d delivered %d times, want exactly once", v, echoes[v])
		}
	}
	if !ordered {
		t.Fatal("an appender's entries arrived out of order")
	}
	var dropped uint64
	for _, w := range h.worlds {
		dropped += w.MetricsSnapshot().Counters["comm.fault.dropped"]
	}
	if dropped == 0 {
		t.Fatal("the fault plan dropped no frame")
	}
}
