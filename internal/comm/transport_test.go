package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// hubTransport is an in-memory Transport: N transports share a hub that
// routes frames between them, optionally dropping or duplicating with a
// seeded stream. It exists to test the network world machinery (frame
// codec, NewNetWorld, reliable recovery over a lossy transport, peer
// events) without sockets; tcptransport has its own socket-level tests.
type netHub struct {
	mu      sync.Mutex
	deliver []func([]byte)
	loss    float64
	dup     float64
	state   uint64
}

func (h *netHub) rand() float64 {
	h.state += 0x9e3779b97f4a7c15
	z := h.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

type hubTransport struct {
	hub        *netHub
	self, size int
	closed     atomic.Bool
	dead       []atomic.Bool
	reconnects atomic.Int64
	events     func(PeerEvent)
}

func newNetHub(n int, loss, dup float64, seed uint64) *netHub {
	if seed == 0 {
		seed = 1
	}
	return &netHub{deliver: make([]func([]byte), n), loss: loss, dup: dup, state: seed}
}

func (h *netHub) transport(self int) *hubTransport {
	return &hubTransport{hub: h, self: self, size: len(h.deliver), dead: make([]atomic.Bool, len(h.deliver))}
}

func (t *hubTransport) Self() int { return t.self }
func (t *hubTransport) Size() int { return t.size }

func (t *hubTransport) Start(deliver func([]byte), events func(PeerEvent)) error {
	t.events = events
	t.hub.mu.Lock()
	t.hub.deliver[t.self] = deliver
	t.hub.mu.Unlock()
	return nil
}

func (t *hubTransport) Send(dst int, frame []byte) error {
	if t.closed.Load() || t.dead[dst].Load() {
		return nil // best-effort: silently dropped
	}
	h := t.hub
	h.mu.Lock()
	d := h.deliver[dst]
	drop := h.rand() < h.loss
	dup := h.rand() < h.dup
	h.mu.Unlock()
	if d == nil || drop {
		return nil
	}
	d(frame)
	if dup {
		d(frame)
	}
	return nil
}

func (t *hubTransport) MarkDead(peer int) { t.dead[peer].Store(true) }
func (t *hubTransport) Reconnects() int64 { return t.reconnects.Load() }
func (t *hubTransport) Close() error      { t.closed.Store(true); return nil }

var _ Transport = (*hubTransport)(nil)
var _ TransportStats = (*hubTransport)(nil)
var _ PeerMarker = (*hubTransport)(nil)

// netHarness is N network worlds (one materialized rank each) over a shared
// hub — the in-memory analogue of N OS processes.
type netHarness struct {
	hub    *netHub
	worlds []*World
	dets   []*termdet.Detector
	done   []chan struct{}
}

func newNetHarness(t *testing.T, n int, loss, dup float64, seed uint64) *netHarness {
	t.Helper()
	h := &netHarness{
		hub:    newNetHub(n, loss, dup, seed),
		worlds: make([]*World, n),
		dets:   make([]*termdet.Detector, n),
		done:   make([]chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		w, err := NewNetWorld(h.hub.transport(i))
		if err != nil {
			t.Fatalf("NewNetWorld(%d): %v", i, err)
		}
		h.worlds[i] = w
		h.dets[i] = termdet.New(1, false)
		h.done[i] = make(chan struct{})
	}
	return h
}

func (h *netHarness) proc(i int) *Proc { return h.worlds[i].Proc(i) }

func (h *netHarness) start() {
	for i := range h.worlds {
		i := i
		h.proc(i).Start(h.dets[i], func() { close(h.done[i]) })
		h.dets[i].EnterIdle(0)
	}
}

func (h *netHarness) waitAll(t *testing.T) {
	t.Helper()
	for i, d := range h.done {
		select {
		case <-d:
		case <-time.After(20 * time.Second):
			t.Fatalf("net rank %d never saw termination", i)
		}
	}
	for _, w := range h.worlds {
		w.Drain(5 * time.Second)
	}
	for _, w := range h.worlds {
		w.Shutdown()
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	msgs := []message{
		{src: 0, tag: 0, a: 1, b: 2, ep: 3, seq: 4},
		{src: 3, tag: -7, a: -1, b: 1 << 62, ep: 0, seq: 99, payload: []byte("hello")},
		{src: 63, tag: tagHeartbeat, a: -1 << 40},
		{src: 1, tag: 5, payload: make([]byte, 4096)},
	}
	for i, m := range msgs {
		frame := appendWireFrame(nil, m)
		got, err := decodeWireFrame(frame)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if got.src != m.src || got.tag != m.tag || got.a != m.a || got.b != m.b ||
			got.ep != m.ep || got.seq != m.seq || string(got.payload) != string(m.payload) {
			t.Fatalf("msg %d: round trip mismatch: sent %+v got %+v", i, m, got)
		}
	}
	if _, err := decodeWireFrame(make([]byte, wireFrameHdr-1)); err == nil {
		t.Fatalf("short frame decoded without error")
	}
}

func TestNetWorldValidation(t *testing.T) {
	hub := newNetHub(2, 0, 0, 1)
	bad := hub.transport(0)
	bad.self = 5 // out of range
	if _, err := NewNetWorld(bad); err == nil {
		t.Fatalf("out-of-range self accepted")
	}
}

func TestNetWorldRingRelay(t *testing.T) {
	const n = 4
	const hops = 100
	h := newNetHarness(t, n, 0, 0, 1)
	var handled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		h.proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			left := binary.LittleEndian.Uint32(payload)
			if left == 0 {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], left-1)
			h.proc(i).Send((i+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], hops)
	h.proc(0).Send(1, 0, buf[:])
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if got := handled.Load(); got != hops+1 {
		t.Fatalf("handled %d messages, want %d", got, hops+1)
	}
	if !h.worlds[0].NetBacked() {
		t.Fatalf("net world does not report NetBacked")
	}
}

func TestNetWorldLossyTransportRecovers(t *testing.T) {
	// 20% loss and 10% duplication at the transport; the reliable link layer
	// must deliver everything exactly once, in order, and terminate.
	const n = 3
	const hops = 60
	h := newNetHarness(t, n, 0.20, 0.10, 42)
	var handled atomic.Int64
	var outOfOrder atomic.Int64
	last := make([]int64, n)
	for i := range last {
		last[i] = int64(hops) + 1
	}
	for i := 0; i < n; i++ {
		i := i
		h.proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			left := int64(binary.LittleEndian.Uint32(payload))
			if left >= last[i] { // handler runs on the progress goroutine: no lock needed
				outOfOrder.Add(1)
			}
			last[i] = left
			if left == 0 {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(left-1))
			h.proc(i).Send((i+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], hops)
	h.proc(0).Send(1, 0, buf[:])
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if got := handled.Load(); got != hops+1 {
		t.Fatalf("handled %d messages over lossy transport, want exactly %d", got, hops+1)
	}
	if ooo := outOfOrder.Load(); ooo != 0 {
		t.Fatalf("%d messages dispatched out of order (dup/ordering leak through the link layer)", ooo)
	}
}

func TestNetWorldBatchedOverTransport(t *testing.T) {
	// Coalesced frames must survive the encode/decode path: entries appended
	// with BatchBegin/BatchEnd on one world arrive once each on the peer.
	const n = 2
	const entries = 200
	h := newNetHarness(t, n, 0.10, 0, 7)
	var got atomic.Int64
	h.proc(0).RegisterBatched(9, func(src int, entry []byte) {})
	h.proc(1).RegisterBatched(9, func(src int, entry []byte) {
		got.Add(1)
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	p := h.proc(0)
	for i := 0; i < entries; i++ {
		buf := p.BatchBegin(1)
		var e [8]byte
		binary.LittleEndian.PutUint64(e[:], uint64(i))
		p.BatchEnd(1, append(buf, e[:]...))
	}
	p.FlushBatches(FlushIdle)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if g := got.Load(); g != entries {
		t.Fatalf("batched entries over transport: got %d, want %d", g, entries)
	}
}

func TestNetWorldPeerEventHook(t *testing.T) {
	hub := newNetHub(2, 0, 0, 1)
	tr := hub.transport(0)
	w, err := NewNetWorld(tr)
	if err != nil {
		t.Fatalf("NewNetWorld: %v", err)
	}
	defer w.Shutdown()
	var seen atomic.Int64
	w.SetPeerEventHook(func(ev PeerEvent) {
		if ev.Peer == 1 && ev.Kind == PeerDown {
			seen.Add(1)
		}
	})
	tr.events(PeerEvent{Peer: 1, Kind: PeerDown})
	if seen.Load() != 1 {
		t.Fatalf("peer event hook not invoked")
	}
	if s := PeerDown.String(); s != "down" {
		t.Fatalf("PeerDown.String() = %q", s)
	}
}

// TestNetWorldSelfFenceOnGossip: a rank that receives a heartbeat whose
// gossiped dead mask includes itself must fence — silence its wire and run
// the kill hook — instead of running split-brained.
func TestNetWorldSelfFenceOnGossip(t *testing.T) {
	h := newNetHarness(t, 2, 0, 0, 1)
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
	}
	killed := make(chan struct{})
	var once sync.Once
	h.proc(1).SetOnKilled(func() { once.Do(func() { close(killed) }) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Forge rank 0's view: "rank 1 is dead" gossiped straight to rank 1.
	frame := appendWireFrame(nil, message{src: 0, tag: tagHeartbeat, a: 1 << 1})
	h.hub.mu.Lock()
	deliver := h.hub.deliver[1]
	h.hub.mu.Unlock()
	deliver(frame)
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatalf("rank 1 did not self-fence on seeing itself in a gossiped dead mask")
	}
	// The fenced rank's wire must be silent toward peers.
	deadline := time.Now().Add(time.Second)
	for !h.worlds[1].deadWire[1].Load() {
		if time.Now().After(deadline) {
			t.Fatalf("fenced rank's wire still up")
		}
		time.Sleep(time.Millisecond)
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	for _, w := range h.worlds {
		w.Shutdown()
	}
}

// TestNetWorldSelfFenceOnRankDead: same degradation when the membership
// announcement arrives as an explicit tagRankDead naming the receiver.
func TestNetWorldSelfFenceOnRankDead(t *testing.T) {
	h := newNetHarness(t, 2, 0, 0, 1)
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
	}
	killed := make(chan struct{})
	var once sync.Once
	h.proc(1).SetOnKilled(func() { once.Do(func() { close(killed) }) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Sequenced control message: seq 1 is the first the link expects.
	frame := appendWireFrame(nil, message{src: 0, tag: tagRankDead, a: 1, seq: 1})
	h.hub.mu.Lock()
	deliver := h.hub.deliver[1]
	h.hub.mu.Unlock()
	deliver(frame)
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatalf("rank 1 did not self-fence on a rankDead naming itself")
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	for _, w := range h.worlds {
		w.Shutdown()
	}
}

// TestNetWorldRankDeathEscalation: a confirmed remote death in a network
// world must mark the transport (MarkDead) so the reconnect loop stops.
func TestNetWorldRankDeathEscalation(t *testing.T) {
	const n = 3
	h := newNetHarness(t, n, 0, 0, 1)
	trs := make([]*hubTransport, n)
	for i := range trs {
		trs[i] = h.worlds[i].net.(*hubTransport)
	}
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: 50 * time.Millisecond})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Silence rank 2 by detaching its deliver hooks: peers stop hearing its
	// heartbeats and must confirm it dead.
	h.hub.mu.Lock()
	h.hub.deliver[2] = nil
	h.hub.mu.Unlock()
	trs[2].Close() // its own sends stop too
	deadline := time.Now().Add(10 * time.Second)
	for !trs[0].dead[2].Load() || !trs[1].dead[2].Load() {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never marked rank 2 dead on their transports (deaths=%d/%d)",
				h.worlds[0].Deaths(), h.worlds[1].Deaths())
		}
		time.Sleep(time.Millisecond)
	}
	if h.proc(0).Epoch() == 0 {
		t.Fatalf("rank 0 applied no epoch bump")
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	for _, w := range h.worlds {
		w.Shutdown()
	}
}

// TestNetWorldFaultInjectionRejected: in-process fault injection does not
// apply to network worlds.
func TestNetWorldFaultInjectionRejected(t *testing.T) {
	h := newNetHarness(t, 2, 0, 0, 1)
	defer func() {
		for _, w := range h.worlds {
			w.Shutdown()
		}
	}()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a network world did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetFaultPlan", func() { h.worlds[0].SetFaultPlan(FaultPlan{Drop: 0.5}) })
	mustPanic("SetDropFilter", func() { h.worlds[0].SetDropFilter(func(int, int, int) bool { return true }) })
	h.worlds[0].EnableFailureDetection(FDConfig{})
	mustPanic("KillRank", func() { h.worlds[0].KillRank(1) })
}

// TestShutdownConcurrent is the regression test for the Shutdown
// closed-flag race: Shutdown now atomically claims the flag (Swap) before
// the flush-and-drain sequence, so concurrent Shutdown calls and racing
// senders are safe. Run under -race.
func TestShutdownConcurrent(t *testing.T) {
	h := newHarness(4)
	h.world.Proc(1).Register(0, func(src int, payload []byte) {})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.dets[0].Completed(termdet.ExternalSlot)
	for i, d := range h.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never saw termination", i)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			h.world.Shutdown()
		}()
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 100; j++ {
				h.world.Proc(0).Send(1, 0, []byte{byte(i), byte(j)})
			}
		}(i)
	}
	close(start)
	wg.Wait()
	h.world.Shutdown() // still idempotent afterwards
}

// TestForgedRankDeadDropped: a rank-dead announcement naming a rank outside
// the world, or arriving at a rank that runs no failure detection, is remote
// garbage. It must be dropped and reported through the error hook; it must
// not take the progress goroutine down or move the membership epoch.
func TestForgedRankDeadDropped(t *testing.T) {
	for _, fd := range []bool{false, true} {
		t.Run(fmt.Sprintf("fd=%v", fd), func(t *testing.T) {
			hub := newNetHub(2, 0, 0, 1)
			w, err := NewNetWorld(hub.transport(1))
			if err != nil {
				t.Fatalf("NewNetWorld: %v", err)
			}
			defer w.Shutdown()
			if fd {
				w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
			}
			p := w.Proc(1)
			errs := make(chan error, 8)
			p.SetOnError(func(err error) { errs <- err })
			p.Start(termdet.New(1, false), func() {})
			victims := []int64{99, -1}
			if !fd {
				victims = append(victims, 0) // in range, but nobody tracks membership
			}
			for i, a := range victims {
				hub.deliver[1](appendWireFrame(nil, message{src: 0, tag: tagRankDead, a: a, seq: int64(i + 1)}))
			}
			for range victims {
				select {
				case <-errs:
				case <-time.After(5 * time.Second):
					t.Fatalf("forged rank-dead frame not reported through the error hook")
				}
			}
			if e := p.Epoch(); e != 0 {
				t.Fatalf("forged rank-dead frames moved the epoch to %d", e)
			}
		})
	}
}
