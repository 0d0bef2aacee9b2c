package comm_test

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/termdet"
)

// recordingTransport is a Transport that sends nowhere: it keeps every frame
// the local rank emits and lets the test play the peers by injecting frames
// through the deliver callback. The world under test is the only actor that
// produces frames, so what it emits is a deterministic function of what the
// test injects. inject runs deliver on the test goroutine, never inside
// Send, as the Transport contract requires; the frame is dispatched before
// inject returns.
type recordingTransport struct {
	self, size int
	mu         sync.Mutex
	deliver    func([]byte)
	sent       []recordedFrame
}

type recordedFrame struct {
	dst   int
	frame []byte
}

func (r *recordingTransport) Self() int         { return r.self }
func (r *recordingTransport) Size() int         { return r.size }
func (r *recordingTransport) Close() error      { return nil }
func (r *recordingTransport) Poll() int         { return 0 }
func (r *recordingTransport) MarkDead(int)      {}
func (r *recordingTransport) Reconnects() int64 { return 0 }

func (r *recordingTransport) Start(deliver func([]byte), _ func(comm.PeerEvent)) error {
	r.mu.Lock()
	r.deliver = deliver
	r.mu.Unlock()
	return nil
}

func (r *recordingTransport) Send(dst int, frame []byte) error {
	r.mu.Lock()
	r.sent = append(r.sent, recordedFrame{dst, append([]byte(nil), frame...)})
	r.mu.Unlock()
	return nil
}

func (r *recordingTransport) inject(frame []byte) {
	r.mu.Lock()
	d := r.deliver
	r.mu.Unlock()
	d(frame)
}

// first returns the first recorded frame whose header matches tag and, when
// ep >= 0, carries that ep field.
func (r *recordingTransport) first(tag int32, ep int64) (recordedFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.sent {
		if int32(binary.LittleEndian.Uint32(f.frame[4:])) != tag {
			continue
		}
		if ep >= 0 && int64(binary.LittleEndian.Uint64(f.frame[24:])) != ep {
			continue
		}
		return f, true
	}
	return recordedFrame{}, false
}

func (r *recordingTransport) await(t *testing.T, tag int32, ep int64) recordedFrame {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f, ok := r.first(tag, ep); ok {
			return f
		}
		if time.Now().After(deadline) {
			t.Fatalf("no frame with tag %d (ep %d) emitted", tag, ep)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wireFrame encodes one frame by the wire spec: [4B src][4B tag][8B a][8B b]
// [8B ep][8B seq][8B ack][payload], little-endian, with no ack (0).
func wireFrame(src, tag int32, a, b, ep, seq int64, payload []byte) []byte {
	f := make([]byte, 48, 48+len(payload))
	binary.LittleEndian.PutUint32(f[0:], uint32(src))
	binary.LittleEndian.PutUint32(f[4:], uint32(tag))
	binary.LittleEndian.PutUint64(f[8:], uint64(a))
	binary.LittleEndian.PutUint64(f[16:], uint64(b))
	binary.LittleEndian.PutUint64(f[24:], uint64(ep))
	binary.LittleEndian.PutUint64(f[32:], uint64(seq))
	return append(f, payload...)
}

// stealRecs is a two-record donation payload ("ab", "c") in the steal
// framing: [4B count] ([4B len][record]) x count.
var stealRecs = []byte{2, 0, 0, 0, 2, 0, 0, 0, 'a', 'b', 1, 0, 0, 0, 'c'}

// goldenEnv is one rank of an n-rank network world over a recording
// transport, its detector not yet idle.
type goldenEnv struct {
	tr  *recordingTransport
	w   *comm.World
	p   *comm.Proc
	det *termdet.Detector
}

func newGoldenEnv(t *testing.T, n, self int, setup func(*comm.World, *comm.Proc)) *goldenEnv {
	t.Helper()
	tr := &recordingTransport{self: self, size: n}
	w, err := comm.NewNetWorld(tr)
	if err != nil {
		t.Fatalf("NewNetWorld: %v", err)
	}
	e := &goldenEnv{tr: tr, w: w, p: w.Proc(self), det: termdet.New(1, false)}
	if setup != nil {
		setup(w, e.p)
	}
	e.p.Start(e.det, func() {})
	t.Cleanup(w.Shutdown)
	return e
}

// capture records frame f under name as "dst:hex".
func capture(got map[string]string, name string, f recordedFrame) {
	got[name] = fmt.Sprintf("%d:%s", f.dst, hex.EncodeToString(f.frame))
}

// TestGoldenWireFrames pins the exact bytes of the first frame each protocol
// trigger puts on the wire — all fourteen control tags, a plain Send and a
// batch frame — so a refactor of the protocol layer can prove the wire did
// not change. Each scenario drives one network rank by injecting the peers'
// frames by hand; nothing in it depends on timing except when, not what, the
// rank emits.
func TestGoldenWireFrames(t *testing.T) {
	got := map[string]string{}

	t.Run("send-abort-telemetry", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 0, func(_ *comm.World, p *comm.Proc) {
			p.Register(3, func(int, []byte) {})
		})
		e.p.Send(1, 3, []byte("hello"))
		e.p.Abort("boom")
		e.p.SendTelemetry(1, []byte{1, 2, 3})
		capture(got, "send", e.tr.await(t, 3, -1))
		capture(got, "abort", e.tr.await(t, -4, -1))
		capture(got, "telemetry", e.tr.await(t, -14, -1))
	})

	t.Run("batch", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 0, func(_ *comm.World, p *comm.Proc) {
			p.RegisterBatched(5, func(int, []byte) {})
		})
		buf := e.p.BatchBegin(1)
		e.p.BatchEnd(1, append(buf, "act"...))
		e.p.FlushBatches(comm.FlushIdle)
		capture(got, "batch", e.tr.await(t, 5, -1))
	})

	t.Run("wave-root", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 0, nil)
		e.det.EnterIdle(0)
		capture(got, "probe", e.tr.await(t, -1, 1))
		e.tr.inject(wireFrame(1, -2, 0, 0, 1, 1, nil))
		e.tr.await(t, -1, 2)
		e.tr.inject(wireFrame(1, -2, 0, 0, 2, 2, nil))
		capture(got, "terminate", e.tr.await(t, -3, -1))
	})

	t.Run("wave-reply", func(t *testing.T) {
		// The reply leaves while the probe is dispatched, so it carries the
		// probe's ack and no standalone ack follows.
		e := newGoldenEnv(t, 2, 1, nil)
		e.det.EnterIdle(0)
		e.tr.inject(wireFrame(0, -1, 0, 0, 1, 1, nil))
		capture(got, "reply", e.tr.await(t, -2, -1))
		if f, ok := e.tr.first(-5, -1); ok {
			t.Errorf("standalone ack %x sent beside the reply that carries it", f.frame)
		}
	})

	t.Run("steal-thief", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 0, func(_ *comm.World, p *comm.Proc) {
			p.SetStealHooks(&comm.StealHooks{
				TwoPhase: true,
				Load:     func() int64 { return 3 },
				Inject:   func(int, [][]byte) {},
				Done:     func(int, bool) {},
			})
		})
		e.p.RequestSteal(1, 4)
		capture(got, "steal-req", e.tr.await(t, -9, -1))
		e.tr.inject(wireFrame(1, -10, 7, 5, 0, 1, stealRecs))
		capture(got, "steal-accept", e.tr.await(t, -11, -1))
	})

	t.Run("steal-victim", func(t *testing.T) {
		var nextID uint64 = 6
		e := newGoldenEnv(t, 2, 1, func(_ *comm.World, p *comm.Proc) {
			p.SetStealHooks(&comm.StealHooks{
				TwoPhase: true,
				Load:     func() int64 { return 3 },
				Fill: func(int, int) (uint64, [][]byte) {
					nextID++
					return nextID, [][]byte{[]byte("ab"), []byte("c")}
				},
				Commit: func(_ int, id uint64) bool { return id == 7 },
				Cancel: func(int, uint64) {},
			})
		})
		e.tr.inject(wireFrame(0, -9, 4, 0, 0, 1, nil))
		capture(got, "steal-resp", e.tr.await(t, -10, -1))
		e.tr.inject(wireFrame(0, -11, 7, 1, 0, 2, nil))
		capture(got, "steal-commit", e.tr.await(t, -12, -1))
		e.tr.inject(wireFrame(0, -9, 4, 0, 0, 3, nil))
		e.tr.inject(wireFrame(0, -11, 8, 1, 0, 4, nil))
		capture(got, "steal-abort", e.tr.await(t, -13, -1))
	})

	t.Run("heartbeat", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 0, func(w *comm.World, p *comm.Proc) {
			w.EnableFailureDetection(comm.FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
			p.SetStealHooks(&comm.StealHooks{Load: func() int64 { return 3 }})
		})
		capture(got, "heartbeat", e.tr.await(t, -6, -1))
	})

	t.Run("rank-dead", func(t *testing.T) {
		e := newGoldenEnv(t, 3, 0, func(w *comm.World, _ *comm.Proc) {
			w.EnableFailureDetection(comm.FDConfig{Heartbeat: time.Millisecond, SuspectAfter: 30 * time.Millisecond})
		})
		// Rank 1 keeps beating; rank 2 stays silent and is declared dead.
		stop := make(chan struct{})
		beats := make(chan struct{})
		go func() {
			defer close(beats)
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					e.tr.inject(wireFrame(1, -6, 0, 0, 0, 0, nil))
				}
			}
		}()
		f := e.tr.await(t, -7, -1)
		close(stop)
		<-beats
		capture(got, "rank-dead", f)
	})

	t.Run("prune", func(t *testing.T) {
		e := newGoldenEnv(t, 2, 1, func(_ *comm.World, p *comm.Proc) {
			p.Register(3, func(int, []byte) {})
			p.EnablePruneNotices()
		})
		// Nothing goes back to rank 0 while the frame is dispatched and no
		// worker polls, so its ack leaves at once, alone.
		e.tr.inject(wireFrame(0, 3, 0, 0, 0, 1, []byte("x")))
		capture(got, "ack", e.tr.await(t, -5, -1))
		e.det.EnterIdle(0)
		capture(got, "prune", e.tr.await(t, -8, -1))
	})

	want := map[string]string{
		"send":         "1:00000000030000000000000000000000000000000000000000000000000000000100000000000000000000000000000068656c6c6f",
		"abort":        "1:00000000fcffffff00000000000000000000000000000000000000000000000002000000000000000000000000000000626f6f6d",
		"telemetry":    "1:00000000f2ffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000010203",
		"batch":        "1:00000000050000000000000000000000000000000000000000000000000000000100000000000000000000000000000001000000010000000001000003000000616374",
		"probe":        "1:00000000ffffffff00000000000000000000000000000000010000000000000001000000000000000000000000000000",
		"terminate":    "1:00000000fdffffff00000000000000000000000000000000000000000000000003000000000000000200000000000000",
		"reply":        "0:01000000feffffff00000000000000000000000000000000010000000000000001000000000000000100000000000000",
		"ack":          "0:01000000fbffffff00000000000000000000000000000000000000000000000000000000000000000100000000000000",
		"steal-req":    "1:00000000f7ffffff04000000000000000000000000000000000000000000000001000000000000000000000000000000",
		"steal-accept": "1:00000000f5ffffff07000000000000000100000000000000000000000000000002000000000000000100000000000000",
		"steal-resp":   "0:01000000f6ffffff07000000000000000300000000000000000000000000000001000000000000000100000000000000020000000200000061620100000063",
		"steal-commit": "0:01000000f4ffffff07000000000000000000000000000000000000000000000002000000000000000200000000000000",
		"steal-abort":  "0:01000000f3ffffff08000000000000000000000000000000000000000000000004000000000000000400000000000000",
		"heartbeat":    "1:00000000faffffff00000000000000000300000000000000000000000000000000000000000000000000000000000000",
		"rank-dead":    "1:00000000f9ffffff02000000000000000000000000000000000000000000000001000000000000000000000000000000",
		"prune":        "0:01000000f8ffffff01000000000000000000000000000000000000000000000001000000000000000100000000000000",
	}
	if len(want) != 16 {
		t.Errorf("golden table has %d frames, want 16", len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s frame:\n got  %s\n want %s", name, got[name], w)
		}
	}
}
