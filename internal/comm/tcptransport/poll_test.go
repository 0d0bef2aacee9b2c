package tcptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// startPollers runs n goroutines that Poll tr back to back, as idle workers
// do, until the returned stop is called; stop joins them and returns how
// many frames they delivered. polled counts them as they go.
func startPollers(tr *Transport, n int) (stop func() int64, polled *atomic.Int64) {
	var quit atomic.Bool
	polled = new(atomic.Int64)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !quit.Load() {
				polled.Add(int64(tr.Poll()))
				runtime.Gosched()
			}
		}()
	}
	stop = func() int64 {
		quit.Store(true)
		wg.Wait()
		return polled.Load()
	}
	return stop, polled
}

// dialRaw opens a connection to tr's listener and sends the handshake of
// rank src, followed in the same write by extra.
func dialRaw(t *testing.T, tr *Transport, src int, extra []byte) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	var h [handshakeLen]byte
	binary.LittleEndian.PutUint32(h[0:], handshakeMagic)
	h[4] = handshakeVersion
	binary.LittleEndian.PutUint32(h[5:], uint32(src))
	if _, err := c.Write(append(h[:], extra...)); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return c
}

// lengthPrefixed encodes frames as they travel on a connection.
func lengthPrefixed(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPollersAndReaderDeliverExactlyOnce: two senders stream numbered frames
// to one receiver whose reader goroutines race two pollers. Every frame is
// delivered exactly once and in its sender's order, and one connection's
// frames never reach deliver concurrently. The senders go on past perSender
// frames until the pollers have delivered some.
func TestPollersAndReaderDeliverExactlyOnce(t *testing.T) {
	const n, perSender = 3, 5000
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		lns[i] = listenLoopback(t)
		peers[i] = lns[i].Addr().String()
	}
	var (
		mu       sync.Mutex
		next     [n]uint64
		busy     [n]atomic.Bool
		bad      []string
		received atomic.Int64
	)
	deliver := func(f []byte) {
		src := binary.LittleEndian.Uint64(f)
		if !busy[src].CompareAndSwap(false, true) {
			mu.Lock()
			bad = append(bad, "overlapping deliveries from one connection")
			mu.Unlock()
		}
		seq := binary.LittleEndian.Uint64(f[8:])
		mu.Lock()
		if seq != next[src] {
			bad = append(bad, "out of order or duplicate")
		}
		next[src] = seq + 1
		mu.Unlock()
		busy[src].Store(false)
		received.Add(1)
	}
	trs := make([]*Transport, n)
	for i := range trs {
		tr, err := New(Config{Self: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		if err := tr.Start(deliver, nil); err != nil {
			t.Fatalf("Start(%d): %v", i, err)
		}
		trs[i] = tr
		defer tr.Close()
	}
	stop, polledSoFar := startPollers(trs[0], 2)
	var wg sync.WaitGroup
	var sent atomic.Int64
	giveUp := time.Now().Add(20 * time.Second)
	for src := 1; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for seq := uint64(0); seq < perSender || polledSoFar.Load() == 0 && time.Now().Before(giveUp); seq++ {
				f := make([]byte, 16)
				binary.LittleEndian.PutUint64(f, uint64(src))
				binary.LittleEndian.PutUint64(f[8:], seq)
				for trs[src].Send(0, f) != nil { // not connected yet, or a full outbox
					time.Sleep(time.Millisecond)
				}
				sent.Add(1)
				if seq%64 == 0 {
					time.Sleep(50 * time.Microsecond) // let some frames go out alone
				}
			}
		}(src)
	}
	wg.Wait()
	waitFor(t, 30*time.Second, "every frame", func() bool { return received.Load() >= sent.Load() })
	polled := stop()
	mu.Lock()
	defer mu.Unlock()
	if len(bad) != 0 {
		t.Fatalf("%d bad deliveries, first: %s", len(bad), bad[0])
	}
	if got := received.Load(); got != sent.Load() {
		t.Fatalf("delivered %d frames, want %d", got, sent.Load())
	}
	if polled == 0 {
		t.Fatalf("the pollers delivered none of %d frames", received.Load())
	}
	t.Logf("pollers delivered %d of %d frames", polled, received.Load())
}

// TestPollReturnsAtOnceWhenEmpty: on a transport with no connection, and on
// an established connection with nothing in flight, Poll delivers nothing
// and returns without waiting for bytes.
func TestPollReturnsAtOnceWhenEmpty(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	if n := p.b.Poll(); n != 0 {
		t.Fatalf("Poll before any connection delivered %d frames", n)
	}
	sendUntil(t, p.a, p.bGot, 1, 5*time.Second)
	waitFor(t, 5*time.Second, "the reader to settle", func() bool { return p.b.Poll() == 0 })
	returned := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for i := 0; i < 100; i++ {
			if n := p.b.Poll(); n != 0 {
				t.Errorf("Poll on an idle connection delivered %d frames", n)
			}
		}
		returned <- time.Since(start)
	}()
	select {
	case d := <-returned:
		t.Logf("100 empty polls took %v", d)
	case <-time.After(5 * time.Second):
		t.Fatal("Poll waited on an empty socket")
	}
}

// TestPollRacingKillsAndClose: pollers run while the sender's injected
// connection kills make the receiver's readers close their connections, and
// on through the receiver's Close. Every frame delivered is intact, and
// Close returns. Under -race this also checks the copy-on-write connection
// list that pollers read while readers replace it.
func TestPollRacingKillsAndClose(t *testing.T) {
	p := newPair(t, &FaultConfig{Seed: 11, ConnKillProb: 0.02}, nil, nil)
	stop, _ := startPollers(p.b, 2)
	sendUntil(t, p.a, p.bGot, 300, 20*time.Second)
	if p.a.Reconnects() == 0 {
		t.Fatal("the injected kills never closed a connection")
	}
	closed := make(chan struct{})
	go func() {
		p.b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return under polling")
	}
	time.Sleep(10 * time.Millisecond) // the pollers keep going past Close
	stop()
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
}

// TestPollSkipsClosedDescriptor: a connection closed while it is still
// listed is not read by Poll, even once its descriptor number belongs to a
// fresh socket (Linux hands out the lowest free number): the bytes written
// both ways on the fresh connection all stay there.
func TestPollSkipsClosedDescriptor(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	ln := listenLoopback(t)
	defer ln.Close()
	stale, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := stale.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	ic := p.b.newInConn(stale)
	ic.rc = rc
	ic.up.Store(true)
	stale.Close()
	if c, err := ln.Accept(); err == nil {
		c.Close() // the stale dial's peer
	}
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	marker := []byte("fresh descriptor")
	out.Write(marker)
	in.Write(marker)
	time.Sleep(10 * time.Millisecond) // let the bytes land
	p.b.connMu.Lock()
	p.b.inbound.Store(&[]*inConn{ic})
	p.b.connMu.Unlock()
	for i := 0; i < 10; i++ {
		if n := p.b.Poll(); n != 0 {
			t.Fatalf("Poll delivered %d frames from a closed connection", n)
		}
	}
	for _, c := range []net.Conn{in, out} {
		got := make([]byte, len(marker))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, marker) {
			t.Fatalf("a fresh connection lost its bytes (%q, %v): Poll read a reused descriptor", got, err)
		}
	}
}

// TestFramesBehindHandshakeDelivered: frames written in the same segment as
// the handshake are delivered, whether the reader or a poller reads them.
func TestFramesBehindHandshakeDelivered(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	stop, _ := startPollers(p.b, 1)
	defer stop()
	dialRaw(t, p.b, 0, lengthPrefixed(frame(1), frame(2), frame(3)))
	waitFor(t, 5*time.Second, "the three frames", func() bool { return p.bGot.len() >= 3 })
	for i, f := range p.bGot.all() {
		checkFrame(t, f)
		if seq := binary.LittleEndian.Uint64(f); seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d", i, seq, i+1)
		}
	}
}

// TestSlowReadsWithPollers: the slow-read fault shortens every poller's and
// reader's read it hits, so frames arrive split across both; all of them
// are delivered intact and in order.
func TestSlowReadsWithPollers(t *testing.T) {
	p := newPair(t, nil, &FaultConfig{Seed: 5, SlowReadProb: 0.3, SlowReadMax: 200 * time.Microsecond}, nil)
	stop, _ := startPollers(p.b, 2)
	sendUntil(t, p.a, p.bGot, 200, 20*time.Second)
	polled := stop()
	for i, f := range p.bGot.all() {
		checkFrame(t, f)
		if seq := binary.LittleEndian.Uint64(f); seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: lost, duplicated or reordered", i, seq)
		}
	}
	t.Logf("pollers delivered %d of %d frames", polled, p.bGot.len())
}

// TestReadTimeoutWithPollers: Config.ReadTimeout closes a connection that
// stays silent, and does not close one whose frames the pollers keep
// taking before its reader sees them.
func TestReadTimeoutWithPollers(t *testing.T) {
	const rt = 100 * time.Millisecond
	ln := listenLoopback(t)
	got := &frameLog{}
	b, err := New(Config{Self: 1, Peers: []string{"127.0.0.1:1", ln.Addr().String()}, Listener: ln, ReadTimeout: rt})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.add, nil); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	stop, _ := startPollers(b, 2)
	defer stop()
	c := dialRaw(t, b, 0, nil)
	const frames = 50
	for i := 0; i < frames; i++ { // 5 × ReadTimeout of steady traffic
		if _, err := c.Write(lengthPrefixed(frame(uint64(i)))); err != nil {
			t.Fatalf("write %d: %v (the connection was closed while frames flowed)", i, err)
		}
		time.Sleep(rt / 10)
	}
	waitFor(t, 5*time.Second, "every frame", func() bool { return got.len() >= frames })
	c.SetReadDeadline(time.Now().Add(rt / 10))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on a busy connection: %v, want a timeout (it was closed while frames flowed)", err)
	}
	// Silence: the receiver must give up on the connection.
	c.SetReadDeadline(time.Now().Add(20 * rt))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a silent connection: %v, want EOF after ReadTimeout", err)
	}
}
