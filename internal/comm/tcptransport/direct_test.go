package tcptransport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestDirectWriteNeverBlocks: toward a peer that accepts and never reads,
// Send keeps returning at once after the kernel buffers fill. The direct
// write is one non-blocking attempt, so a full socket sends the frame to the
// outbox, and a full outbox drops it (ErrBackpressure); neither waits for
// the writer, which sits in its own blocking write. The buffers fill either
// through the direct writes, until one ends short and hands its remainder to
// the writer, or behind the transport's back before the first Send (which
// also leaves a lapsed write deadline on the connection).
func TestDirectWriteNeverBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefil bool
	}{{"filled-by-sends", false}, {"full-before-the-first-send", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := sinkTransport(t)
			p := tr.peers[1]
			f := make([]byte, 4096)
			if tc.prefil {
				p.wmu.Lock()
				c := p.current()
				c.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
				c.Write(make([]byte, 64<<20)) // stops when the buffers are full
				p.wmu.Unlock()
			}
			type result struct {
				slowest     time.Duration
				taken, full int
			}
			res := make(chan result, 1)
			go func() { // a parked Send fails the test by timeout, not by hanging it
				var r result
				for i := 0; i < 1<<15 && r.full < 200; i++ { // 128 MiB offered, far beyond any socket buffer
					start := time.Now()
					err := tr.Send(1, f)
					r.slowest = max(r.slowest, time.Since(start))
					if errors.Is(err, ErrBackpressure) {
						r.full++
					} else {
						r.taken++
					}
				}
				res <- r
			}()
			var r result
			select {
			case r = <-res:
			case <-time.After(10 * time.Second):
				t.Fatalf("Send toward a peer that does not read parked for 10s")
			}
			t.Logf("slowest Send %v; %d frames taken, then %d back-pressure drops", r.slowest, r.taken, r.full)
			if r.full < 200 {
				t.Fatalf("the outbox never filled: the sink's buffers swallowed everything")
			}
			if r.slowest > 100*time.Millisecond {
				t.Fatalf("a Send toward a peer that does not read took %v; Send must never park", r.slowest)
			}
		})
	}
}

// sinkTransport returns a started rank-0 transport whose only peer accepts
// its connection and never reads, with the connection up.
func sinkTransport(t *testing.T) *Transport {
	t.Helper()
	sink := listenLoopback(t)
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := sink.Accept(); err == nil {
			accepted <- c
		}
	}()
	tr, err := New(Config{
		Self: 0, Peers: []string{"127.0.0.1:0", sink.Addr().String()}, Listener: listenLoopback(t),
		OutboxLen: 16, WriteTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := tr.Start(func([]byte) {}, nil); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
		sink.Close()
		if !t.Failed() { // a parked Send may hold the writer up for good
			tr.Close()
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for tr.peers[1].current() == nil || tr.peers[1].queued.Load() != 0 { // the first frame dials
		if time.Now().After(deadline) {
			t.Fatalf("no connection to the sink")
		}
		tr.Send(1, []byte{0})
		time.Sleep(time.Millisecond)
	}
	return tr
}

// TestDirectAndQueuedFramesKeepOrder: senders race numbered frames toward
// one peer, mixing direct writes with queued ones (every 50th frame is too
// large to write directly, and a busy writer or a lost TryLock queues the
// rest). On a clean connection each sender's frames arrive in order, and
// none is lost.
func TestDirectAndQueuedFramesKeepOrder(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	sendUntil(t, p.a, p.bGot, 1, 5*time.Second) // connection up
	pa := p.a.peers[1]
	for pa.queued.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if !pa.tryDirect([]byte{0xff}) {
		t.Fatalf("an idle connection refused a direct write")
	}
	const senders, perSender = 4, 1500
	mk := func(s, seq int) []byte {
		n := 5
		if seq%50 == 49 {
			n = coalesceLimit
		}
		f := make([]byte, n)
		f[0] = byte(s)
		binary.LittleEndian.PutUint32(f[1:], uint32(seq))
		return f
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				for errors.Is(p.a.Send(1, mk(s, seq)), ErrBackpressure) {
					time.Sleep(100 * time.Microsecond) // dropped, not queued: resend keeps the order
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		next, got := make([]int, senders), 0
		for i, f := range p.bGot.all() {
			if len(f) != 5 && len(f) != coalesceLimit {
				continue // warm-up
			}
			s, seq := int(f[0]), int(binary.LittleEndian.Uint32(f[1:]))
			if s >= senders || seq != next[s] {
				t.Fatalf("frame %d: sender %d's frame %d arrived when %d was due", i, s, seq, next[s])
			}
			next[s]++
			got++
		}
		if got == senders*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived (dropped=%d)", got, senders*perSender, p.a.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
}
