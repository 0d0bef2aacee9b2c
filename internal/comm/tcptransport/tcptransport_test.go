package tcptransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
)

// listenLoopback binds a fresh loopback port.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// pair builds two started transports wired at each other over loopback.
// deliver callbacks append into per-side frame logs.
type pair struct {
	a, b       *Transport
	aGot, bGot *frameLog
}

type frameLog struct {
	mu     sync.Mutex
	frames [][]byte
}

func (l *frameLog) add(f []byte) {
	cp := append([]byte(nil), f...)
	l.mu.Lock()
	l.frames = append(l.frames, cp)
	l.mu.Unlock()
}

func (l *frameLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

func (l *frameLog) all() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.frames))
	copy(out, l.frames)
	return out
}

func newPair(t *testing.T, faultA, faultB *FaultConfig, events func(side int, ev comm.PeerEvent)) *pair {
	t.Helper()
	lnA, lnB := listenLoopback(t), listenLoopback(t)
	peers := []string{lnA.Addr().String(), lnB.Addr().String()}
	mk := func(self int, ln net.Listener, f *FaultConfig) *Transport {
		tr, err := New(Config{
			Self: self, Peers: peers, Listener: ln,
			BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			Fault: f,
		})
		if err != nil {
			t.Fatalf("New(%d): %v", self, err)
		}
		return tr
	}
	p := &pair{a: mk(0, lnA, faultA), b: mk(1, lnB, faultB), aGot: &frameLog{}, bGot: &frameLog{}}
	evA := func(ev comm.PeerEvent) {
		if events != nil {
			events(0, ev)
		}
	}
	evB := func(ev comm.PeerEvent) {
		if events != nil {
			events(1, ev)
		}
	}
	if err := p.a.Start(p.aGot.add, evA); err != nil {
		t.Fatalf("start a: %v", err)
	}
	if err := p.b.Start(p.bGot.add, evB); err != nil {
		t.Fatalf("start b: %v", err)
	}
	t.Cleanup(func() { p.a.Close(); p.b.Close() })
	return p
}

// frame builds a recognizable test frame: [8B seq][payload pattern].
func frame(seq uint64) []byte {
	f := make([]byte, 8+32)
	binary.LittleEndian.PutUint64(f, seq)
	for i := range f[8:] {
		f[8+i] = byte(seq) ^ byte(i)
	}
	return f
}

func checkFrame(t *testing.T, f []byte) {
	t.Helper()
	if len(f) != 8+32 {
		t.Fatalf("delivered frame has length %d, want 40", len(f))
	}
	seq := binary.LittleEndian.Uint64(f)
	if want := frame(seq); !bytes.Equal(f, want) {
		t.Fatalf("frame %d corrupted on the wire:\n got %x\nwant %x", seq, f, want)
	}
}

// sendUntil keeps sending fresh frames from a to b until b has delivered at
// least want frames (the transport is best-effort; the caller tolerates
// drops) or the deadline passes.
func sendUntil(t *testing.T, tr *Transport, got *frameLog, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var seq uint64
	for got.len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered only %d/%d frames before timeout (dials=%d dropped=%d)",
				got.len(), want, tr.Dials(), tr.Dropped())
		}
		tr.Send(1, frame(seq))
		seq++
		time.Sleep(200 * time.Microsecond)
	}
}

func TestCleanDelivery(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	sendUntil(t, p.a, p.bGot, 50, 5*time.Second)
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
	if r := p.a.Reconnects(); r != 0 {
		t.Fatalf("clean wire reported %d reconnects", r)
	}
}

func TestDialBackoff(t *testing.T) {
	// Point rank 1's address at a port that refuses connections: bind and
	// immediately close a listener so the port is (momentarily) dead.
	dead := listenLoopback(t)
	deadAddr := dead.Addr().String()
	dead.Close()
	ln := listenLoopback(t)
	var attempts atomic.Int64
	var maxAttempt atomic.Int64
	tr, err := New(Config{
		Self: 0, Peers: []string{ln.Addr().String(), deadAddr}, Listener: ln,
		DialTimeout: 100 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := tr.Start(func([]byte) {}, func(ev comm.PeerEvent) {
		if ev.Kind == comm.PeerDialFailed {
			attempts.Add(1)
			for {
				cur := maxAttempt.Load()
				if int64(ev.Attempt) <= cur || maxAttempt.CompareAndSwap(cur, int64(ev.Attempt)) {
					break
				}
			}
		}
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	// Hammer sends for a while; backoff must pace dials well below the send
	// rate, and the Attempt counter must climb across consecutive failures.
	deadline := time.Now().Add(300 * time.Millisecond)
	sends := 0
	for time.Now().Before(deadline) {
		tr.Send(1, frame(uint64(sends)))
		sends++
		time.Sleep(100 * time.Microsecond)
	}
	if attempts.Load() < 2 {
		t.Fatalf("expected repeated dial failures, got %d", attempts.Load())
	}
	if maxAttempt.Load() < 2 {
		t.Fatalf("Attempt never climbed past %d; backoff state not tracked", maxAttempt.Load())
	}
	// With BackoffMax=10ms over ~300ms, a paced dialer cannot plausibly
	// exceed ~150 attempts even with jitter; a dialer with no backoff would
	// have attempted thousands.
	if d := tr.Dials(); d > int64(sends/4) {
		t.Fatalf("dial pacing broken: %d dials for %d sends", d, sends)
	}
	if dr := tr.Dropped(); dr == 0 {
		t.Fatalf("sends toward an unreachable peer must drop, got 0 drops for %d sends", sends)
	}
}

func TestReconnectAfterConnKill(t *testing.T) {
	var downs atomic.Int64
	p := newPair(t, &FaultConfig{Seed: 42, ConnKillProb: 0.05}, nil,
		func(side int, ev comm.PeerEvent) {
			if side == 0 && ev.Kind == comm.PeerDown {
				downs.Add(1)
			}
		})
	sendUntil(t, p.a, p.bGot, 200, 10*time.Second)
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
	if downs.Load() == 0 {
		t.Fatalf("ConnKillProb=0.05 over 200+ frames produced no PeerDown events")
	}
	if r := p.a.Reconnects(); r == 0 {
		t.Fatalf("connection kills did not produce reconnects (downs=%d)", downs.Load())
	}
}

func TestTornWritesResync(t *testing.T) {
	p := newPair(t, &FaultConfig{Seed: 7, TornWriteProb: 0.05}, nil, nil)
	sendUntil(t, p.a, p.bGot, 200, 10*time.Second)
	// Every frame that made it through must be intact: torn writes may drop
	// frames but can never deliver a corrupted one.
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
	if r := p.a.Reconnects(); r == 0 {
		t.Fatalf("torn writes did not force a reconnect")
	}
}

func TestPartitionHealsAndReconnects(t *testing.T) {
	p := newPair(t, &FaultConfig{Seed: 99, PartitionProb: 0.01, PartitionFor: 10 * time.Millisecond}, nil, nil)
	sendUntil(t, p.a, p.bGot, 300, 15*time.Second)
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
	if r := p.a.Reconnects(); r == 0 {
		t.Fatalf("partition episodes did not force a reconnect")
	}
}

func TestSlowFragmentedReads(t *testing.T) {
	p := newPair(t, nil, &FaultConfig{Seed: 3, SlowReadProb: 0.5, SlowReadMax: 200 * time.Microsecond}, nil)
	sendUntil(t, p.a, p.bGot, 100, 10*time.Second)
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
	}
}

func TestMarkDeadStopsPursuit(t *testing.T) {
	var gaveUp atomic.Bool
	p := newPair(t, nil, nil, func(side int, ev comm.PeerEvent) {
		if side == 0 && ev.Kind == comm.PeerGaveUp {
			gaveUp.Store(true)
		}
	})
	sendUntil(t, p.a, p.bGot, 10, 5*time.Second)
	p.a.MarkDead(1)
	if !gaveUp.Load() {
		t.Fatalf("MarkDead did not emit PeerGaveUp")
	}
	if err := p.a.Send(1, frame(0)); err != ErrPeerDead {
		t.Fatalf("Send after MarkDead: got %v, want ErrPeerDead", err)
	}
	dialsBefore := p.a.Dials()
	time.Sleep(20 * time.Millisecond)
	if d := p.a.Dials(); d != dialsBefore {
		t.Fatalf("transport kept dialing a dead peer: %d -> %d", dialsBefore, d)
	}
}

func TestBadHandshakeRejected(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	// Connect directly and send garbage; the transport must drop the
	// connection without delivering anything or crashing.
	c, err := net.Dial("tcp", p.b.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	c.Close()
	sendUntil(t, p.a, p.bGot, 10, 5*time.Second) // still healthy afterwards
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: 2, Peers: []string{"a", "b"}}); err == nil {
		t.Fatalf("out-of-range self accepted")
	}
	if _, err := New(Config{Self: 0, Peers: nil}); err == nil {
		t.Fatalf("empty peer list accepted")
	}
}

func TestSendValidation(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	if err := p.a.Send(0, frame(0)); err == nil {
		t.Fatalf("send to self accepted")
	}
	if err := p.a.Send(9, frame(0)); err == nil {
		t.Fatalf("send to out-of-range rank accepted")
	}
	p.a.Close()
	if err := p.a.Send(1, frame(0)); err != ErrClosed {
		t.Fatalf("send after close: got %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	sendUntil(t, p.a, p.bGot, 5, 5*time.Second)
	for i := 0; i < 3; i++ {
		if err := p.a.Close(); err != nil {
			t.Fatalf("close #%d: %v", i, err)
		}
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := newRng(12345), newRng(12345)
	for i := 0; i < 1000; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("seeded streams diverged at step %d: %x vs %x", i, x, y)
		}
	}
}

func TestManyFramesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	p := newPair(t, &FaultConfig{Seed: 1, ConnKillProb: 0.01, TornWriteProb: 0.01, SlowReadProb: 0.05, SlowReadMax: 100 * time.Microsecond}, nil, nil)
	sendUntil(t, p.a, p.bGot, 500, 20*time.Second)
	seen := map[uint64]int{}
	for _, f := range p.bGot.all() {
		checkFrame(t, f)
		seen[binary.LittleEndian.Uint64(f)]++
	}
	for seq, n := range seen {
		if n > 1 {
			t.Fatalf("frame %d delivered %d times; raw transport must not duplicate", seq, n)
		}
	}
	_ = fmt.Sprintf("dials=%d reconnects=%d", p.a.Dials(), p.a.Reconnects())
}

// TestQueuedBurstArrivesWholeAndInOrder: frames queued faster than the
// writer drains them are gathered into shared writes and come out of a
// shared read buffer; every one must still arrive intact, once, and in the
// order it was sent — from one byte up to a frame larger than the gather
// buffer and the read buffer.
func TestQueuedBurstArrivesWholeAndInOrder(t *testing.T) {
	p := newPair(t, nil, nil, nil)
	sendUntil(t, p.a, p.bGot, 1, 5*time.Second) // connection up

	sizes := []int{1, 3, 40, 4096, coalesceLimit - 4, coalesceLimit, 3*coalesceLimit + 7}
	const burst = 700
	mk := func(i int) []byte {
		f := make([]byte, sizes[i%len(sizes)])
		for j := range f {
			f[j] = byte(i + j)
		}
		return f
	}
	for i := 0; i < burst; i++ {
		for p.a.Send(1, mk(i)) != nil { // outbox full: let the writer catch up
			time.Sleep(100 * time.Microsecond)
		}
	}
	// sendUntil's probes may still be in flight when it returns, but on one
	// live connection every probe that arrives at all arrives before the
	// burst: the burst starts after the last probe delivered.
	var got [][]byte
	base := 0
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got = p.bGot.all()
		for i, f := range got {
			if len(f) >= 8 && bytes.Equal(f, frame(binary.LittleEndian.Uint64(f))) {
				base = i + 1
			}
		}
		if len(got)-base >= burst {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d frames of the burst (dropped=%d)", len(got)-base, burst, p.a.Dropped())
		}
	}
	if len(got)-base != burst {
		t.Fatalf("delivered %d frames after the last probe, want the %d of the burst", len(got)-base, burst)
	}
	for i, f := range got[base:] {
		if !bytes.Equal(f, mk(i)) {
			t.Fatalf("frame %d of the burst (len %d) arrived as %d other bytes", i, len(mk(i)), len(f))
		}
	}
	if r := p.a.Reconnects(); r != 0 {
		t.Fatalf("clean wire reported %d reconnects", r)
	}
}
