// The wire: every cross-rank message is encoded as one frame and handed to a
// Transport, the byte-moving substrate under a rank.
//
// There is one delivery path. Each local rank owns one transport endpoint;
// transmit encodes a message into a 48-byte-header frame and Sends it, and the
// endpoint's deliver callback (deliverFrame) decodes each inbound frame and
// dispatches it at once, under the rank's receive lock, on the goroutine that
// delivered it: the transport's own, or an idle worker's that polled for it
// (Transport.Poll, Proc.Poll). NewWorld runs n local ranks over one in-memory
// network (MemTransport); NewNetWorld runs one local rank over any Transport —
// internal/comm/tcptransport is the real network backend (TCP with dial
// backoff, deadlines, reconnect and socket fault injection). Only self-sends
// skip the transport: they are queued for the receive lock's holder
// (enqueue), as are the frames that arrive before the rank starts.
//
// The contract every transport meets (Transport): each sender's frames stay
// in order, a frame is lost only at a connection cut, and the transport
// reports the cut with PeerDown (or PeerDialFailed) and then PeerUp, or the
// peer is marked dead. World.SetFaultPlan layers seeded cuts and delays over
// any transport within that contract. So the sequence-number + cumulative-ack
// link layer above (link.go) recovers loss in one place: on the PeerUp that
// ends a cut it resends every unacked frame, and the receiver drops
// duplicates and frames past a gap — across reconnects too, because the
// per-link sequence state lives in the Proc, not the connection.
package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Transport moves framed wire bytes between ranks. The contract: frames
// from one sender to one receiver are delivered in the order sent, at most
// once each, and a frame is lost only at a cut — a connection lost, torn
// down, or never made. The transport reports the cut to the events callback
// as PeerDown (or PeerDialFailed) toward the peer, after the loss or at it,
// and then PeerUp once frames flow again; or it is told the peer is dead
// (MarkDead). The link layer resends on that PeerUp (link.go), so no frame
// may be lost after the PeerUp that follows its cut unless another cut is
// reported. Frames sent before Start reaches the receiver wait for it; only
// a closed or dead endpoint drops them. Send, Poll and the callbacks must be
// safe for concurrent use; ownership of a frame passes with the call (the
// sender must not reuse a sent frame, the transport hands each delivered
// frame to the receiver for keeps).
//
// deliver dispatches the frame in place, under the receiving rank's receive
// lock, and the handlers it runs Send. Two rules follow. A transport never
// calls deliver from within Send: the sender holds a link lock across Send,
// and the receive lock's holder may be waiting for that link lock. And Send
// never parks: workers call it, and so does whichever goroutine holds the
// receive lock. A transport delivers from goroutines of its own — one per
// connection, or one per endpoint as MemTransport does — and on the
// goroutines that call Poll; it reports events from its own goroutines,
// never from within Send.
type Transport interface {
	// Self returns the local rank this transport is bound to.
	Self() int
	// Size returns the world size (number of ranks).
	Size() int
	// Start begins delivery: inbound frames are handed to deliver (possibly
	// concurrently from several peer connections, never from within Send),
	// and per-peer connection lifecycle transitions are reported through
	// events (may be nil).
	Start(deliver func(frame []byte), events func(PeerEvent)) error
	// Send hands one frame over for delivery to rank dst. It never parks and
	// never calls deliver or events. An error means the frame was dropped,
	// and the drop is a cut the transport reports like any other.
	Send(dst int, frame []byte) error
	// Poll lets an idle worker fetch inbound frames itself, so a frame that
	// lands while a worker spins is dispatched by that worker instead of
	// waking a transport goroutine that then wakes a parked worker. Poll
	// never parks: it reads what has already arrived, and returns 0 at once
	// when nothing has or another goroutine is reading it. It delivers on
	// the caller's goroutine, through the deliver callback Start was given,
	// and returns how many frames it delivered. Together with the
	// transport's own goroutines, which keep delivering the frames that
	// arrive while no worker polls, it keeps per-connection order and hands
	// each frame to deliver exactly once. It is never called from inside
	// deliver (a handler polling would take the receive lock it holds).
	Poll() int
	// MarkDead stops pursuing a peer the failure detector confirmed dead:
	// reconnect attempts toward it are pointless noise.
	MarkDead(peer int)
	// Reconnects counts re-established outbound connections: successful
	// dials after a previously working connection to that peer was lost
	// (comm.reconnects).
	Reconnects() int64
	// Close tears down all connections and background goroutines.
	Close() error
}

// PeerEventKind labels a per-peer connection lifecycle transition.
type PeerEventKind uint8

const (
	// PeerDialFailed: one dial attempt toward the peer failed; the transport
	// backs off and will retry.
	PeerDialFailed PeerEventKind = iota
	// PeerUp: frames toward the peer flow again after a cut the events
	// before it reported (a connection re-established). A transport's first
	// connection, which ends no cut, is not reported.
	PeerUp
	// PeerDown: the connection to the peer was cut: lost, torn down by
	// either side, or abandoned for a dropped frame. Frames sent toward the
	// peer before it may be lost.
	PeerDown
	// PeerGaveUp: the transport stopped pursuing the peer (marked dead or
	// transport closed).
	PeerGaveUp
)

var peerEventNames = [...]string{PeerDialFailed: "dial-failed", PeerUp: "up", PeerDown: "down", PeerGaveUp: "gave-up"}

// String returns the event kind's label.
func (k PeerEventKind) String() string {
	if int(k) < len(peerEventNames) {
		return peerEventNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PeerEvent is one per-peer connection lifecycle transition.
type PeerEvent struct {
	Peer    int
	Kind    PeerEventKind
	Attempt int   // dial attempts in the current outage (PeerDialFailed/PeerUp)
	Err     error // the triggering error (PeerDialFailed/PeerDown), if any
}

// MemTransport is one rank's endpoint of an in-memory network
// (NewMemNetwork). Send queues the frame on the destination endpoint, whose
// delivery goroutine — or an idle worker's Poll — hands it to the deliver
// callback: the in-memory analogue of a socket's reader. It never loses,
// duplicates or reorders a frame, so all it adds to a message is the frame
// encoding and at most one goroutine hand-off. A frame toward an endpoint
// that is not started yet waits in its queue for Start; one toward a closed
// endpoint is dropped, as toward a process that is gone. There are no
// connections, hence no cuts and no events: MarkDead does nothing and
// Reconnects is 0.
type MemTransport struct {
	eps  []*memEndpoint // shared by the network's endpoints, by rank
	self int
}

// memEndpoint is one endpoint's inbound side: an unbounded MPSC frame queue
// with a wakeup channel, drained by the delivery goroutine Start launches
// and Close joins, and by Poll.
type memEndpoint struct {
	mu      sync.Mutex
	queue   [][]byte
	live    bool // started and not closed
	closed  bool // Send drops
	deliver func([]byte)
	note    chan struct{}
	quit    chan struct{}
	done    chan struct{}

	// delivering is held by whoever drains the queue — the delivery
	// goroutine or a poller — across its swap and its deliveries, so each
	// frame is delivered once and in arrival order. spare, private to its
	// holder, is the drained buffer, swapped in as the next queue.
	delivering sync.Mutex
	spare      [][]byte
}

// NewMemNetwork returns the n endpoints of one in-memory network, endpoint r
// bound to rank r. Give each to its own NewNetWorld (or use NewWorld, which
// runs all n ranks in one World).
func NewMemNetwork(n int) []*MemTransport {
	eps := make([]*memEndpoint, n)
	for i := range eps {
		eps[i] = &memEndpoint{note: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	}
	trs := make([]*MemTransport, n)
	for i := range trs {
		trs[i] = &MemTransport{eps: eps, self: i}
	}
	return trs
}

// Self returns the rank this endpoint is bound to.
func (t *MemTransport) Self() int { return t.self }

// Size returns the number of endpoints in the network.
func (t *MemTransport) Size() int { return len(t.eps) }

// Start attaches deliver and launches the endpoint's delivery goroutine,
// which first delivers the frames that were sent before. There are no
// connections, hence no peer events.
func (t *MemTransport) Start(deliver func([]byte), _ func(PeerEvent)) error {
	ep := t.eps[t.self]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.live || ep.closed {
		return fmt.Errorf("comm: memory endpoint %d started twice", t.self)
	}
	ep.deliver, ep.live = deliver, true
	go ep.run()
	return nil
}

// Send queues frame on dst's endpoint for its delivery goroutine, which
// takes it when dst is started.
func (t *MemTransport) Send(dst int, frame []byte) error {
	ep := t.eps[dst]
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.queue = append(ep.queue, frame)
	ep.mu.Unlock()
	select {
	case ep.note <- struct{}{}:
	default:
	}
	return nil
}

// Poll delivers the endpoint's queued frames on the calling goroutine,
// unless the delivery goroutine or another poller is delivering them.
func (t *MemTransport) Poll() int {
	ep := t.eps[t.self]
	if !ep.delivering.TryLock() {
		return 0
	}
	defer ep.delivering.Unlock()
	return ep.drain()
}

// MarkDead does nothing: memory has no connection to give up.
func (t *MemTransport) MarkDead(int) {}

// Reconnects is 0: memory has no connection to re-establish.
func (t *MemTransport) Reconnects() int64 { return 0 }

// drain swaps out the queue and delivers it in arrival order, returning how
// many frames it delivered; before Start it leaves the queue alone. The
// caller holds delivering.
func (ep *memEndpoint) drain() int {
	ep.mu.Lock()
	buf := ep.queue
	if len(buf) == 0 || !ep.live {
		ep.mu.Unlock()
		return 0
	}
	ep.queue = ep.spare[:0]
	ep.mu.Unlock()
	for _, f := range buf {
		ep.deliver(f)
	}
	clear(buf) // the receiver owns the frames now
	ep.spare = buf
	return len(buf)
}

// run delivers queued frames, those sent before Start first, until Close.
func (ep *memEndpoint) run() {
	defer close(ep.done)
	for {
		ep.delivering.Lock()
		ep.drain()
		ep.delivering.Unlock()
		select {
		case <-ep.quit:
			return
		case <-ep.note:
		}
	}
}

// Close detaches the endpoint — frames sent to it are dropped from now on —
// joins its delivery goroutine and waits out a poller still delivering, so
// no delivery outlives it. Idempotent.
func (t *MemTransport) Close() error {
	ep := t.eps[t.self]
	ep.mu.Lock()
	started, first := ep.live, !ep.closed
	ep.live, ep.closed, ep.queue = false, true, nil
	ep.mu.Unlock()
	if first {
		close(ep.quit)
		if started {
			<-ep.done
		}
	}
	ep.delivering.Lock()
	ep.delivering.Unlock()
	return nil
}

// wireFrameHdr is the fixed header of an encoded wire frame:
//
//	[4B src][4B tag][8B a][8B b][8B ep][8B seq][8B ack][payload...]   (little-endian)
//
// ack is the cumulative ack of the reverse link: the sender has dispatched
// (or is dispatching) every sequenced frame the destination sent it up to
// that sequence number. transmit stamps it on every frame — originals,
// resent frames, control frames, heartbeats and standalone acks alike — so
// a frame that crosses a link carries the acks the other direction owes
// (link.go). The destination is implicit (the transport routes the frame);
// the payload runs to the end of the frame. Length framing — and everything
// below it — is the transport's concern.
const wireFrameHdr = 48

// appendWireFrame encodes m after buf.
func appendWireFrame(buf []byte, m message) []byte {
	var h [wireFrameHdr]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(int32(m.src)))
	binary.LittleEndian.PutUint32(h[4:], uint32(int32(m.tag)))
	binary.LittleEndian.PutUint64(h[8:], uint64(m.a))
	binary.LittleEndian.PutUint64(h[16:], uint64(m.b))
	binary.LittleEndian.PutUint64(h[24:], uint64(m.ep))
	binary.LittleEndian.PutUint64(h[32:], uint64(m.seq))
	binary.LittleEndian.PutUint64(h[40:], uint64(m.ack))
	buf = append(buf, h[:]...)
	return append(buf, m.payload...)
}

// decodeWireFrame decodes one frame. The payload aliases the frame (the
// transport passed ownership with the deliver call).
func decodeWireFrame(frame []byte) (message, error) {
	if len(frame) < wireFrameHdr {
		return message{}, fmt.Errorf("comm: wire frame too short (%d bytes)", len(frame))
	}
	m := message{
		src: int(int32(binary.LittleEndian.Uint32(frame[0:]))),
		tag: int(int32(binary.LittleEndian.Uint32(frame[4:]))),
		a:   int64(binary.LittleEndian.Uint64(frame[8:])),
		b:   int64(binary.LittleEndian.Uint64(frame[16:])),
		ep:  int64(binary.LittleEndian.Uint64(frame[24:])),
		seq: int64(binary.LittleEndian.Uint64(frame[32:])),
		ack: int64(binary.LittleEndian.Uint64(frame[40:])),
	}
	if len(frame) > wireFrameHdr {
		m.payload = frame[wireFrameHdr:]
	}
	return m, nil
}

// NewNetWorld creates a world whose only local rank is tr.Self(): the other
// ranks live behind tr (in other processes, or other Worlds of this one).
// The transport is started immediately so peers can connect while the graph
// is still being built — inbound frames wait until the rank starts.
func NewNetWorld(tr Transport) (*World, error) {
	n, self := tr.Size(), tr.Self()
	if n < 1 {
		return nil, fmt.Errorf("comm: transport world size %d < 1", n)
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("comm: transport self rank %d out of [0,%d)", self, n)
	}
	w := newWorld(n)
	if err := w.attach(tr); err != nil {
		return nil, fmt.Errorf("comm: transport start: %w", err)
	}
	return w, nil
}

// attach materializes the local rank tr is bound to and starts tr.
func (w *World) attach(tr Transport) error {
	p := newProc(w, tr)
	w.procs[p.rank] = p
	w.local = append(w.local, p)
	return tr.Start(p.deliverFrame, p.peerEvent)
}

// transmit puts one message on the wire toward dst: a self-send is queued
// for the receive lock's holder, anything else is stamped with the ack the
// link from dst is owed, encoded and handed to the transport (a frame lost
// in a cut is resent when the cut ends, link.go). Called for originals,
// resent frames, and acks. After Shutdown, and to or from a fail-stopped
// rank, the wire is down and the message is discarded. It returns the
// transport's error: the frame was dropped in a cut.
func (p *Proc) transmit(dst int, m message) error {
	w := p.world
	if w.closed.Load() {
		return nil
	}
	if dst == p.rank {
		p.enqueue(m)
		return nil
	}
	if w.wireDead(p.rank, dst) {
		return nil
	}
	m.ack = p.recvLinks[dst].stamp()
	p.framesMu.Lock()
	frame := p.frames.Make(wireFrameHdr + len(m.payload))
	p.framesMu.Unlock()
	return p.tr.Send(dst, appendWireFrame(frame[:0], m))
}

// FrameAlloc hands out wire frame buffers without an allocation per frame:
// a frame of up to 1 KiB — an ack, a small batch — is carved out of a shared
// 8 KiB chunk, a larger one gets its own. A carved frame is a 3-index slice
// no other frame overlaps, so ownership still passes with it as Transport
// requires; a chunk is never reused, and the GC frees it with the last
// frame carved from it. The zero value is ready; not safe for concurrent
// use.
type FrameAlloc struct{ chunk []byte }

const (
	frameChunkSize = 8 << 10
	frameChunkMax  = 1 << 10
)

// Make returns a frame buffer of length n.
func (a *FrameAlloc) Make(n int) []byte {
	if n > frameChunkMax {
		return make([]byte, n)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, frameChunkSize)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	return a.chunk[off : off+n : off+n]
}

// deliverFrame is the transport's inbound callback: decode the frame and run
// it through the link layer and its handler right here, under the receive
// lock, on the goroutine that delivered it. A frame that arrives before Start
// is queued until Start. Malformed or misaddressed frames are dropped —
// remote bytes must never be able to take a rank down — and so is anything
// arriving after Shutdown or touching a fail-stopped rank.
func (p *Proc) deliverFrame(frame []byte) {
	m, err := decodeWireFrame(frame)
	w := p.world
	if err != nil || m.src < 0 || m.src >= len(w.procs) || m.src == p.rank ||
		w.closed.Load() || w.wireDead(m.src, p.rank) {
		return
	}
	if !p.launched.Load() {
		p.enqueue(m) // for Start to dispatch
		return
	}
	p.rx.Lock()
	p.receive(m)
	p.unlockRx()
}

// SetPeerEventHook installs an observer for transport peer lifecycle events
// (events may arrive on any transport goroutine). Safe to call at any time.
func (w *World) SetPeerEventHook(f func(PeerEvent)) { w.peerHook.Store(&f) }

// Reconnects reports how many times the local transports re-established a
// lost peer connection (comm.reconnects; 0 over memory).
func (w *World) Reconnects() int64 {
	var n int64
	for _, p := range w.local {
		n += p.tr.Reconnects()
	}
	return n
}
