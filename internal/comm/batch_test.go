package comm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"gottg/internal/termdet"
)

// appendEntry pushes one little-endian uint32 entry into dst's batch buffer
// through the public append protocol.
func appendEntry(p *Proc, dst int, v uint32) {
	buf := p.BatchBegin(dst)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf = append(buf, b[:]...)
	p.BatchEnd(dst, buf)
}

// TestBatchRoundTripInOrder coalesces a burst of activations into frames and
// checks that the receiver unpacks every entry, in send order, while the wire
// carried far fewer messages than activations.
func TestBatchRoundTripInOrder(t *testing.T) {
	const entries = 500
	h := newHarness(2)
	h.world.EnableMetrics()
	var got []uint32
	for i := 0; i < 2; i++ {
		p := h.world.Proc(i)
		p.RegisterBatched(0, func(src int, payload []byte) {
			got = append(got, binary.LittleEndian.Uint32(payload))
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	p0 := h.world.Proc(0)
	for i := 0; i < entries; i++ {
		appendEntry(p0, 1, uint32(i))
	}
	p0.FlushBatches(FlushIdle)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t) // rank 1's done-close happens-after all dispatches

	if len(got) != entries {
		t.Fatalf("delivered %d entries, want %d", len(got), entries)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("entry %d = %d, want %d (order broken)", i, v, i)
		}
	}
	snap := h.world.MetricsSnapshot()
	frames := snap.Counters["comm.msgs.sent"]
	if frames == 0 || frames > entries/2 {
		t.Fatalf("%d activations crossed in %d frames, want >= 2x coalescing", entries, frames)
	}
	if hs := snap.Histograms["comm.batch_size"]; hs.Sum != entries {
		t.Fatalf("comm.batch_size sum = %d activations, want %d", hs.Sum, entries)
	}
	if snap.Counters["comm.flushes.size"]+snap.Counters["comm.flushes.idle"]+
		snap.Counters["comm.flushes.shutdown"] != frames {
		t.Fatalf("flush reasons do not sum to the %d frames sent", frames)
	}
}

// TestBatchExactlyOnceUnderFaults runs coalesced frames over a lossy,
// duplicating wire and checks every activation is delivered exactly once and
// in order: frames ride the reliable link (seq dedup + retransmit), and the
// per-activation accounting inside them must not double- or under-deliver.
// The net row sets the (tiny) batch limit on worlds that materialize one
// rank each.
func TestBatchExactlyOnceUnderFaults(t *testing.T) {
	const entries = 400
	for _, tc := range []struct {
		name string
		h    func(t *testing.T) *netHarness
	}{
		{"world", func(*testing.T) *netHarness { w := NewWorld(2); return harnessOf([]*World{w, w}) }},
		{"net", func(t *testing.T) *netHarness { return memHarness(t, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h(t)
			for _, w := range h.worlds {
				w.SetFaultPlan(FaultPlan{Seed: 99, Drop: 0.2, Delay: 0.2})
				w.SetBatchLimit(64) // force many small frames
			}
			var mu sync.Mutex
			counts := make([]int, entries)
			var lastSeen int64 = -1
			var orderOK atomic.Bool
			orderOK.Store(true)
			for i := 0; i < 2; i++ {
				h.proc(i).RegisterBatched(0, func(src int, payload []byte) {
					v := binary.LittleEndian.Uint32(payload)
					mu.Lock()
					counts[v]++
					if int64(v) <= lastSeen {
						orderOK.Store(false)
					}
					lastSeen = int64(v)
					mu.Unlock()
				})
			}
			h.dets[0].Discovered(termdet.ExternalSlot)
			h.start()
			p0 := h.proc(0)
			for i := 0; i < entries; i++ {
				appendEntry(p0, 1, uint32(i))
			}
			p0.FlushBatches(FlushIdle)
			h.dets[0].Completed(termdet.ExternalSlot)
			h.waitAll(t)

			for i, c := range counts {
				if c != 1 {
					t.Fatalf("activation %d delivered %d times, want exactly once", i, c)
				}
			}
			if !orderOK.Load() {
				t.Fatal("activations delivered out of send order")
			}
		})
	}
}

// TestMalformedBatchFrameAborts injects a forged frame and checks the
// contract: the error surfaces through the error hook, the rank survives (a
// subsequent valid batch still delivers), and the termination wave still
// completes.
func TestMalformedBatchFrameAborts(t *testing.T) {
	h := newHarness(2)
	var delivered atomic.Int64
	var errs atomic.Int64
	for i := 0; i < 2; i++ {
		p := h.world.Proc(i)
		p.RegisterBatched(0, func(src int, payload []byte) { delivered.Add(1) })
	}
	h.world.Proc(1).SetOnError(func(err error) { errs.Add(1) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	p0 := h.world.Proc(0)
	// A raw Send on the batched tag arrives as a frame: claim 1000 entries,
	// carry garbage.
	p0.Send(1, 0, []byte{0xe8, 0x03, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// The rank must survive to unpack this valid batch.
	appendEntry(p0, 1, 7)
	p0.FlushBatches(FlushIdle)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)

	if errs.Load() == 0 {
		t.Fatal("malformed frame surfaced no error")
	}
	if delivered.Load() != 1 {
		t.Fatalf("delivered %d entries after the malformed frame, want 1", delivered.Load())
	}
}

// FuzzBatchFrame throws arbitrary bytes at the frame parser. The invariant
// is purely "never panic": dispatchBatch runs on the goroutine that
// delivered the frame, where a panic kills the rank. Runs the parser synchronously against an
// unstarted proc.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 42, 43})        // well-formed
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 0, 42, 43})        // count too high
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})    // negative count
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 1}) // entry len overruns
	f.Add([]byte{1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 9}) // negative entry len
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 9, 9, 9})       // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWorld(2)
		p := w.Proc(1)
		p.RegisterBatched(0, func(src int, payload []byte) {
			_ = append([]byte(nil), payload...) // touch every delivered byte
		})
		p.det = termdet.New(1, false)
		var sawErr bool
		p.SetOnError(func(err error) { sawErr = true })
		p.dispatchBatch(message{src: 0, tag: 0, payload: append([]byte(nil), data...)})
		_ = sawErr
	})
}
