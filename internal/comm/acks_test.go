package comm_test

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/termdet"
)

// ackRank is one rank of a two-rank test run: its own network world, a
// detector kept busy by an external slot until the test completes it, and a
// channel closed at termination. A test goroutine plays the rank's one
// worker, which never parks, so the rank reports itself awake.
type ackRank struct {
	w    *comm.World
	p    *comm.Proc
	det  *termdet.Detector
	done chan struct{}
}

func newAckRanks(t *testing.T, trs []comm.Transport, setup func(*comm.World)) [2]*ackRank {
	t.Helper()
	var rs [2]*ackRank
	for r := range rs {
		w, err := comm.NewNetWorld(trs[r])
		if err != nil {
			t.Fatalf("NewNetWorld(%d): %v", r, err)
		}
		if setup != nil {
			setup(w)
		}
		rs[r] = &ackRank{w: w, p: w.Proc(r), det: termdet.New(1, false), done: make(chan struct{})}
		rs[r].p.SetAwake(func() bool { return true })
		rs[r].det.Discovered(termdet.ExternalSlot)
	}
	return rs
}

func (r *ackRank) start() {
	r.p.Start(r.det, func() { close(r.done) })
	r.det.EnterIdle(0)
}

// counter sums one counter over the worlds' metrics.
func counter(name string, rs [2]*ackRank) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.w.MetricsSnapshot().Counters[name]
	}
	return n
}

// TestAcksRideOnDataFrames: two ranks exchange activations in lockstep —
// each sends step k once the peer's step k-1 arrived — and poll while they
// wait, as idle workers do. Every activation is dispatched exactly once and
// in its sender's order, and the wave terminates. No transport case cuts a
// link, so no frame is resent: comm.retransmits is 0, however long the host
// stalls a rank. Each data frame carries the ack of the peer's frame before
// it, so standalone ack frames are at most 5 % of the data frames. A host
// that starves a rank's goroutine past comm.AckDelay makes the link timer
// pay acks alone (under -race, beside other packages' tests), so the ratio
// gets three tries; every try checks the rest.
func TestAcksRideOnDataFrames(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			for try := 1; ; try++ {
				frames, acks := lockstep(t, tc)
				if acks*20 <= frames {
					break
				}
				if try == 3 {
					t.Fatalf("%d standalone acks for %d data frames, want at most 5 %%", acks, frames)
				}
			}
		})
	}
}

// lockstep runs TestAcksRideOnDataFrames once over tc and returns the data
// frames and standalone acks sent.
func lockstep(t *testing.T, tc transportCase) (frames, acks uint64) {
	t.Helper()
	const steps = 2000
	rs := newAckRanks(t, tc.endpoints(t, 2), func(w *comm.World) {
		w.EnableMetrics()
	})
	var got, bad [2]atomic.Int64
	for r, rk := range rs {
		r := r
		rk.p.RegisterBatched(0, func(_ int, e []byte) { // under rank r's receive lock
			if int64(binary.LittleEndian.Uint32(e)) != got[r].Load() {
				bad[r].Add(1)
			}
			got[r].Add(1)
		})
	}
	for _, rk := range rs {
		rk.start()
	}
	giveUp := time.Now().Add(30 * time.Second)
	var stuck atomic.Bool
	var wg sync.WaitGroup
	for r, rk := range rs {
		wg.Add(1)
		go func(r int, rk *ackRank) {
			defer wg.Done()
			spins := 0
			for k := 0; k < steps && !stuck.Load(); k++ {
				buf := rk.p.BatchBegin(1 - r)
				rk.p.BatchEnd(1-r, binary.LittleEndian.AppendUint32(buf, uint32(k)))
				for got[r].Load() <= int64(k) && !stuck.Load() {
					if rk.p.Poll() {
						continue
					}
					if spins++; spins%64 == 0 {
						runtime.Gosched()
						if time.Now().After(giveUp) {
							stuck.Store(true)
						}
					}
				}
			}
			rk.det.Completed(termdet.ExternalSlot)
			for {
				select {
				case <-rk.done:
					return
				default:
				}
				if !rk.p.Poll() {
					runtime.Gosched()
				}
				if time.Now().After(giveUp) {
					stuck.Store(true)
					return
				}
			}
		}(r, rk)
	}
	wg.Wait()
	if stuck.Load() {
		t.Fatalf("stuck after 30s: rank 0 got %d, rank 1 got %d of %d activations", got[0].Load(), got[1].Load(), steps)
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
		if got[r].Load() != steps || bad[r].Load() != 0 {
			t.Fatalf("rank %d dispatched %d activations, %d of them duplicated or out of order; want %d in order",
				r, got[r].Load(), bad[r].Load(), steps)
		}
	}
	frames, acks, resent := counter("comm.msgs.sent", rs), counter("comm.acks.sent", rs), counter("comm.retransmits", rs)
	t.Logf("%d data frames, %d standalone acks, %d resent frames", frames, acks, resent)
	if resent != 0 {
		t.Fatalf("%d frames resent on a transport that never cut a link, want 0", resent)
	}
	return frames, acks
}

// pollEndpoint is one endpoint of an in-memory network that delivers only
// when polled: with no goroutine of its own, every frame its rank receives
// is dispatched by a goroutine that polls, as an idle worker does. sent, if
// set, observes every frame the endpoint sends.
type pollEndpoint struct {
	net        []*pollEndpoint
	self       int
	mu         sync.Mutex
	queue      [][]byte
	delivering sync.Mutex
	deliver    func([]byte)
	sent       func(frame []byte)
}

func newPollNet(n int) []*pollEndpoint {
	eps := make([]*pollEndpoint, n)
	for i := range eps {
		eps[i] = &pollEndpoint{net: eps, self: i}
	}
	return eps
}

func (e *pollEndpoint) Self() int         { return e.self }
func (e *pollEndpoint) Size() int         { return len(e.net) }
func (e *pollEndpoint) MarkDead(int)      {}
func (e *pollEndpoint) Reconnects() int64 { return 0 }
func (e *pollEndpoint) Close() error      { return nil }

func (e *pollEndpoint) Start(deliver func([]byte), _ func(comm.PeerEvent)) error {
	e.mu.Lock()
	e.deliver = deliver
	e.mu.Unlock()
	return nil
}

func (e *pollEndpoint) Send(dst int, frame []byte) error {
	if e.sent != nil {
		e.sent(frame)
	}
	d := e.net[dst]
	d.mu.Lock()
	d.queue = append(d.queue, frame)
	d.mu.Unlock()
	return nil
}

func (e *pollEndpoint) Poll() int {
	if !e.delivering.TryLock() {
		return 0
	}
	defer e.delivering.Unlock()
	e.mu.Lock()
	q, deliver := e.queue, e.deliver
	e.queue = nil
	e.mu.Unlock()
	for _, f := range q {
		deliver(f)
	}
	return len(q)
}

// TestOwedAckPaidWithoutReverseTraffic guards the ack debt. Rank 0 streams
// frames one way into rank 1, one at a time. Rank 1's worker polls, and
// after every poll that delivered one of them it stays busy for 40 ms:
// nothing it sends carries the owed ack, and its next poll comes too late.
// The link timer must send the ack within comm.AckDelay (plus scheduling
// slack), so rank 0's Drain does not wait on the busy worker. Rank 0 sends
// the next frame once the worker polls again. Then the wave terminates, the
// worker is busy again after the poll that delivered the terminate frame,
// and World.Drain must return without waiting for the link timer:
// termination pays the acks it owes, the terminate frame's own included.
// Nothing is resent: no link is cut.
func TestOwedAckPaidWithoutReverseTraffic(t *testing.T) {
	const busyFor, slack, frames = 40 * time.Millisecond, 15 * time.Millisecond, 4
	eps := newPollNet(2)
	var mu sync.Mutex
	var dispatched, acked []time.Time
	eps[1].sent = func(f []byte) {
		if int32(binary.LittleEndian.Uint32(f[4:])) == -5 { // a standalone ack
			mu.Lock()
			acked = append(acked, time.Now())
			mu.Unlock()
		}
	}
	rs := newAckRanks(t, []comm.Transport{eps[0], eps[1]}, func(w *comm.World) {
		w.EnableMetrics()
	})
	var busy atomic.Bool
	rs[0].p.Register(3, func(int, []byte) {})
	rs[1].p.Register(3, func(int, []byte) {
		mu.Lock()
		dispatched = append(dispatched, time.Now())
		mu.Unlock()
		busy.Store(true)
	})
	for _, rk := range rs {
		rk.start()
	}
	var quit atomic.Bool
	back := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // rank 0's idle worker
		defer wg.Done()
		for !quit.Load() {
			if !rs[0].p.Poll() {
				runtime.Gosched()
			}
		}
	}()
	go func() { // rank 1's worker
		defer wg.Done()
		terminated := false
		for !quit.Load() {
			if !rs[1].p.Poll() {
				runtime.Gosched()
				continue
			}
			if busy.Swap(false) || !terminated && isClosed(rs[1].done) {
				terminated = isClosed(rs[1].done)
				time.Sleep(busyFor)
				select {
				case back <- struct{}{}:
				default:
				}
			}
		}
	}()
	defer func() {
		quit.Store(true)
		wg.Wait()
		for _, rk := range rs {
			rk.w.Shutdown()
		}
	}()

	for k := 0; k < frames; k++ {
		rs[0].p.Send(1, 3, []byte{byte(k)})
		if !rs[0].w.Drain(10 * time.Second) {
			t.Fatalf("frame %d was never acked", k)
		}
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank 1's worker never came back after frame %d", k)
		}
	}
	for _, rk := range rs {
		rk.det.Completed(termdet.ExternalSlot)
	}
	for r, rk := range rs {
		select {
		case <-rk.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never saw termination", r)
		}
	}
	start := time.Now()
	drained := rs[0].w.Drain(10 * time.Second)
	if d := time.Since(start); !drained || d > busyFor/4 {
		t.Errorf("Drain after termination took %v (drained %v), want under %v: the terminate frame's ack waited for the link timer", d, drained, busyFor/4)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(dispatched) != frames {
		t.Fatalf("rank 1 dispatched %d frames, want %d", len(dispatched), frames)
	}
	for k, d := range dispatched {
		var ack time.Time
		for _, a := range acked {
			if !a.Before(d) {
				ack = a
				break
			}
		}
		if ack.IsZero() {
			t.Fatalf("frame %d: no standalone ack followed its dispatch", k)
		}
		if lag := ack.Sub(d); lag > comm.AckDelay+slack {
			t.Errorf("frame %d: its ack left %v after its dispatch, want within %v (plus %v slack)", k, lag, comm.AckDelay, slack)
		}
	}
	if n := counter("comm.retransmits", rs); n != 0 {
		t.Errorf("%d frames resent, want 0: no link was cut", n)
	}
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
