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

// netHarness runs rank i of an n-rank run on worlds[i]: one network world
// per rank (the in-memory analogue of N OS processes), or one World for all.
type netHarness struct {
	worlds []*World
	dets   []*termdet.Detector
	done   []chan struct{}
}

// newNetHarness builds one network world per transport.
func newNetHarness(t *testing.T, trs ...Transport) *netHarness {
	t.Helper()
	ws := make([]*World, len(trs))
	for i, tr := range trs {
		w, err := NewNetWorld(tr)
		if err != nil {
			t.Fatalf("NewNetWorld(%d): %v", i, err)
		}
		ws[i] = w
	}
	return harnessOf(ws)
}

// memHarness is newNetHarness over one in-memory network of n ranks.
func memHarness(t *testing.T, n int) *netHarness {
	t.Helper()
	trs := make([]Transport, n)
	for i, tr := range NewMemNetwork(n) {
		trs[i] = tr
	}
	return newNetHarness(t, trs...)
}

// harnessOf wraps worlds, worlds[i] running rank i.
func harnessOf(ws []*World) *netHarness {
	h := &netHarness{worlds: ws, dets: make([]*termdet.Detector, len(ws)), done: make([]chan struct{}, len(ws))}
	for i := range ws {
		h.dets[i] = termdet.New(1, false)
		h.done[i] = make(chan struct{})
	}
	return h
}

// deliverTo hands frame to the deliver callback attached to tr, as tr's
// delivery goroutine would after a peer's Send, but on the calling goroutine:
// the frame is dispatched before deliverTo returns.
func deliverTo(tr *MemTransport, frame []byte) {
	ep := tr.eps[tr.self]
	ep.mu.Lock()
	deliver := ep.deliver
	ep.mu.Unlock()
	deliver(frame)
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
	h.shutdown()
}

func (h *netHarness) shutdown() {
	for _, w := range h.worlds {
		w.Shutdown()
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	msgs := []message{
		{src: 0, tag: 0, a: 1, b: 2, ep: 3, seq: 4, ack: 5},
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
			got.ep != m.ep || got.seq != m.seq || got.ack != m.ack || string(got.payload) != string(m.payload) {
			t.Fatalf("msg %d: round trip mismatch: sent %+v got %+v", i, m, got)
		}
	}
	if _, err := decodeWireFrame(make([]byte, wireFrameHdr-1)); err == nil {
		t.Fatalf("short frame decoded without error")
	}
}

func TestNetWorldValidation(t *testing.T) {
	bad := NewMemNetwork(2)[0]
	bad.self = 5 // out of range
	if _, err := NewNetWorld(bad); err == nil {
		t.Fatalf("out-of-range self accepted")
	}
}

func TestNetWorldRingRelay(t *testing.T) {
	const n = 4
	const hops = 100
	h := memHarness(t, n)
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
}

func TestNetWorldLossyTransportRecovers(t *testing.T) {
	// A fifth of all frames cut their link on every network world's
	// transport (the fault decorator over memory); the link layer's resends
	// after the cuts must deliver everything exactly once, in order, and
	// terminate.
	const n = 3
	const hops = 60
	h := memHarness(t, n)
	for _, w := range h.worlds {
		w.SetFaultPlan(FaultPlan{Seed: 42, Drop: 0.20})
		w.EnableMetrics()
	}
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
			if left >= last[i] { // one rank's handlers never run concurrently: no lock needed
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
	var dropped, resent uint64
	for _, w := range h.worlds {
		c := w.MetricsSnapshot().Counters
		dropped += c["comm.fault.dropped"]
		resent += c["comm.retransmits"]
	}
	if dropped == 0 || resent == 0 {
		t.Fatalf("fault decorator dropped %d frames and the links resent %d, want both > 0", dropped, resent)
	}
}

func TestNetWorldBatchedOverTransport(t *testing.T) {
	// Coalesced frames must survive the encode/decode path: entries appended
	// with BatchBegin/BatchEnd on one world arrive once each on the peer.
	const entries = 200
	h := memHarness(t, 2)
	for _, w := range h.worlds {
		w.SetFaultPlan(FaultPlan{Seed: 7, Drop: 0.10})
	}
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

// eventTransport keeps the peer-event callback its world passes to Start, so
// a test can play the transport reporting a connection transition.
type eventTransport struct {
	*MemTransport
	events func(PeerEvent)
}

func (e *eventTransport) Start(deliver func([]byte), events func(PeerEvent)) error {
	e.events = events
	return e.MemTransport.Start(deliver, events)
}

func TestNetWorldPeerEventHook(t *testing.T) {
	tr := &eventTransport{MemTransport: NewMemNetwork(2)[0]}
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
	trs := NewMemNetwork(2)
	h := newNetHarness(t, trs[0], trs[1])
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
	}
	killed := make(chan struct{})
	var once sync.Once
	h.proc(1).SetOnKilled(func() { once.Do(func() { close(killed) }) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Forge rank 0's view: "rank 1 is dead" gossiped straight to rank 1.
	deliverTo(trs[1], appendWireFrame(nil, message{src: 0, tag: tagHeartbeat, a: 1 << 1}))
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
	h.shutdown()
}

// TestNetWorldSelfFenceOnRankDead: same degradation when the membership
// announcement arrives as an explicit tagRankDead naming the receiver.
func TestNetWorldSelfFenceOnRankDead(t *testing.T) {
	trs := NewMemNetwork(2)
	h := newNetHarness(t, trs[0], trs[1])
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: time.Hour})
	}
	killed := make(chan struct{})
	var once sync.Once
	h.proc(1).SetOnKilled(func() { once.Do(func() { close(killed) }) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Sequenced control message: seq 1 is the first the link expects.
	deliverTo(trs[1], appendWireFrame(nil, message{src: 0, tag: tagRankDead, a: 1, seq: 1}))
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatalf("rank 1 did not self-fence on a rankDead naming itself")
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.shutdown()
}

// markingTransport records which peers its world told it to stop pursuing.
type markingTransport struct {
	*MemTransport
	dead []atomic.Bool
}

func (m *markingTransport) MarkDead(peer int) { m.dead[peer].Store(true) }

// TestNetWorldRankDeathEscalation: a confirmed remote death in a network
// world must mark the transport (MarkDead) so the reconnect loop stops.
func TestNetWorldRankDeathEscalation(t *testing.T) {
	const n = 3
	trs := make([]*markingTransport, n)
	ts := make([]Transport, n)
	for i, tr := range NewMemNetwork(n) {
		trs[i] = &markingTransport{MemTransport: tr, dead: make([]atomic.Bool, n)}
		ts[i] = trs[i]
	}
	h := newNetHarness(t, ts...)
	for _, w := range h.worlds {
		w.EnableFailureDetection(FDConfig{Heartbeat: time.Millisecond, SuspectAfter: 50 * time.Millisecond})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	// Rank 2's process goes away: peers stop hearing its heartbeats and must
	// confirm it dead.
	h.worlds[2].Shutdown()
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
	h.shutdown()
}

// TestNetWorldFaultInjection: a network world takes the fault decorator on
// its transport (the drop filter and the plan share one), and KillRank
// fences only a rank the world runs.
func TestNetWorldFaultInjection(t *testing.T) {
	h := memHarness(t, 2)
	defer h.shutdown()
	w := h.worlds[0]
	w.SetDropFilter(func(int, int, int) bool { return false })
	w.SetFaultPlan(FaultPlan{Drop: 0.5})
	if f, ok := w.Proc(0).tr.(*faultWire); !ok || f.drop == nil || f.plan.Drop != 0.5 || f.plan.Seed != 1 {
		t.Fatalf("fault decorator not installed once with both settings: %#v", w.Proc(0).tr)
	}
	w.EnableFailureDetection(FDConfig{})
	defer func() {
		if recover() == nil {
			t.Fatalf("KillRank of a rank in another process did not panic")
		}
	}()
	w.KillRank(1)
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
// not take the rank down or move the membership epoch.
func TestForgedRankDeadDropped(t *testing.T) {
	for _, fd := range []bool{false, true} {
		t.Run(fmt.Sprintf("fd=%v", fd), func(t *testing.T) {
			trs := NewMemNetwork(2)
			w, err := NewNetWorld(trs[1])
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
				deliverTo(trs[1], appendWireFrame(nil, message{src: 0, tag: tagRankDead, a: a, seq: int64(i + 1)}))
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
