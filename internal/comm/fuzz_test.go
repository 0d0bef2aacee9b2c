package comm

import (
	"bytes"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// FuzzWireFrame throws arbitrary bytes at a started network rank's inbound
// path — frame decode, link layer, demux and every protocol handler, with
// failure detection, steal hooks and a batched tag installed. The invariant
// is "never panic": remote bytes must not be able to take a rank down. Each
// input gets a fresh world, and deliverTo dispatches the frame on the test
// goroutine before it returns, so a panic is charged to the input that
// caused it.
func FuzzWireFrame(f *testing.F) {
	recs := encodeStealRecs([][]byte{{1, 2}, {3}})
	batch := []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 42}
	seeds := []message{
		{tag: tagProbe, ep: 1, seq: 1, ack: 1},
		{tag: tagReply, a: 3, b: 3, ep: 1, seq: 1},
		{tag: tagTerminate, seq: 1},
		{tag: tagAbort, seq: 1, payload: []byte("boom")},
		{tag: tagAck, ack: 1},
		{tag: tagHeartbeat, a: 1, b: 4},
		{tag: tagRankDead, a: 0, seq: 1},
		{tag: tagPrune, a: 2, seq: 1},
		{tag: tagStealReq, a: 4, seq: 1},
		{tag: tagStealResp, a: 7, b: 2, seq: 1, payload: recs},
		{tag: tagStealAccept, a: 1, b: 1, seq: 1},
		{tag: tagStealCommit, a: 7, seq: 1},
		{tag: tagStealAbort, a: 7, seq: 1},
		{tag: tagTelemetry, payload: []byte{1, 2, 3}},
		{tag: 0, seq: 1, payload: batch},
		{tag: 1, seq: 1, payload: []byte("app")},
	}
	for _, m := range seeds {
		f.Add(appendWireFrame(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trs := NewMemNetwork(2)
		w, err := NewNetWorld(trs[1])
		if err != nil {
			t.Fatal(err)
		}
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Hour, SuspectAfter: time.Hour})
		p := w.Proc(1)
		p.RegisterBatched(0, func(int, []byte) {})
		p.Register(1, func(int, []byte) {})
		p.SetOnError(func(error) {})
		p.SetStealHooks(&StealHooks{
			TwoPhase: true,
			Load:     func() int64 { return 1 },
			Aborting: func() bool { return false },
			Fill:     func(int, int) (uint64, [][]byte) { return 7, [][]byte{{9}} },
			Commit:   func(int, uint64) bool { return true },
			Cancel:   func(int, uint64) {},
			Inject:   func(int, [][]byte) {},
			Done:     func(int, bool) {},
		})
		p.Start(termdet.New(1, false), func() {})
		deliverTo(trs[1], append([]byte(nil), data...))
		w.Shutdown()
	})
}

// FuzzStealRecs checks the donation framing both ways: any payload the
// decoder accepts re-encodes to the same bytes, records built from arbitrary
// bytes survive a round trip, and no input panics the decoder.
func FuzzStealRecs(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeStealRecs(nil))
	f.Add(encodeStealRecs([][]byte{{1, 2}, {}, {3}}))
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if recs, ok := decodeStealRecs(data); ok {
			if got := encodeStealRecs(recs); !bytes.Equal(got, data) {
				t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
			}
		}
		want := [][]byte{data[:len(data)/2], data[len(data)/2:]}
		got, ok := decodeStealRecs(encodeStealRecs(want))
		if !ok || len(got) != len(want) || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
			t.Fatalf("round trip of %x failed: ok=%v got %x", data, ok, got)
		}
	})
}
