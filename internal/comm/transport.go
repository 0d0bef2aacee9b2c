// The wire: every cross-rank message is encoded as one frame and handed to a
// Transport, the byte-moving substrate under a rank.
//
// There is one delivery path. Each local rank owns one transport endpoint;
// transmit encodes a message into a 40-byte-header frame and Sends it, and the
// endpoint's deliver callback (deliverFrame) decodes inbound frames into the
// rank's mailbox. NewWorld runs n local ranks over one in-memory network
// (MemTransport); NewNetWorld runs one local rank over any Transport —
// internal/comm/tcptransport is the real network backend (TCP with dial
// backoff, deadlines, reconnect and socket fault injection). Only self-sends
// skip the transport.
//
// Transports are best-effort (a frame queued while a connection is down is
// simply dropped, and World.SetFaultPlan layers seeded frame faults over any
// of them), so every World runs the sequence-number + cumulative-ack +
// retransmit link layer above: it recovers losses, deduplicates, and restores
// order — including across transparent reconnects, because the per-link
// sequence state lives in the Proc, not the connection.
package comm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Transport moves framed wire bytes between ranks. Implementations are
// best-effort: frames may be lost, duplicated, or reordered; the reliable
// link layer above recovers. Send and the deliver callback must be safe for
// concurrent use; ownership of a frame passes with the call (the sender must
// not reuse a sent frame, the transport hands each delivered frame to the
// receiver for keeps).
type Transport interface {
	// Self returns the local rank this transport is bound to.
	Self() int
	// Size returns the world size (number of ranks).
	Size() int
	// Start begins delivery: inbound frames are handed to deliver (possibly
	// concurrently from several peer connections), and per-peer connection
	// lifecycle transitions are reported through events (may be nil).
	Start(deliver func(frame []byte), events func(PeerEvent)) error
	// Send queues one frame for best-effort delivery to rank dst.
	Send(dst int, frame []byte) error
	// Close tears down all connections and background goroutines.
	Close() error
}

// TransportStats is optionally implemented by transports that track
// connection-lifecycle statistics (surfaced as comm.reconnects).
type TransportStats interface {
	// Reconnects counts re-established outbound connections: successful
	// dials after a previously working connection to that peer was lost.
	Reconnects() int64
}

// PeerMarker is optionally implemented by transports that can stop pursuing
// a peer: once a rank is confirmed dead by the failure detector, reconnect
// attempts toward it are pointless noise.
type PeerMarker interface {
	MarkDead(peer int)
}

// PeerEventKind labels a per-peer connection lifecycle transition.
type PeerEventKind uint8

const (
	// PeerDialFailed: one dial attempt toward the peer failed; the transport
	// backs off and will retry.
	PeerDialFailed PeerEventKind = iota
	// PeerUp: an outbound connection to the peer was established.
	PeerUp
	// PeerDown: an established connection to the peer was lost.
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
// (NewMemNetwork). Send hands the frame to the destination endpoint's deliver
// callback on the sending goroutine: it never loses, duplicates or reorders a
// frame, so the only thing it adds to a message is the frame encoding. A
// frame toward an endpoint that is not started, or already closed, is
// dropped, as a socket toward a process that is not up would drop it.
type MemTransport struct {
	deliver []atomic.Pointer[func([]byte)] // shared by the network's endpoints, by rank
	self    int
}

// NewMemNetwork returns the n endpoints of one in-memory network, endpoint r
// bound to rank r. Give each to its own NewNetWorld (or use NewWorld, which
// runs all n ranks in one World).
func NewMemNetwork(n int) []*MemTransport {
	deliver := make([]atomic.Pointer[func([]byte)], n)
	trs := make([]*MemTransport, n)
	for i := range trs {
		trs[i] = &MemTransport{deliver: deliver, self: i}
	}
	return trs
}

// Self returns the rank this endpoint is bound to.
func (t *MemTransport) Self() int { return t.self }

// Size returns the number of endpoints in the network.
func (t *MemTransport) Size() int { return len(t.deliver) }

// Start attaches deliver: frames sent to this endpoint from now on reach it.
// There are no connections, hence no peer events.
func (t *MemTransport) Start(deliver func([]byte), _ func(PeerEvent)) error {
	t.deliver[t.self].Store(&deliver)
	return nil
}

// Send delivers frame to dst's deliver callback before returning.
func (t *MemTransport) Send(dst int, frame []byte) error {
	if d := t.deliver[dst].Load(); d != nil {
		(*d)(frame)
	}
	return nil
}

// Close detaches the endpoint: frames sent to it are dropped from now on.
func (t *MemTransport) Close() error {
	t.deliver[t.self].Store(nil)
	return nil
}

// wireFrameHdr is the fixed header of an encoded wire frame:
//
//	[4B src][4B tag][8B a][8B b][8B ep][8B seq][payload...]   (little-endian)
//
// The destination is implicit (the transport routes the frame); the payload
// runs to the end of the frame. Length framing — and everything below it —
// is the transport's concern.
const wireFrameHdr = 40

// appendWireFrame encodes m after buf.
func appendWireFrame(buf []byte, m message) []byte {
	var h [wireFrameHdr]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(int32(m.src)))
	binary.LittleEndian.PutUint32(h[4:], uint32(int32(m.tag)))
	binary.LittleEndian.PutUint64(h[8:], uint64(m.a))
	binary.LittleEndian.PutUint64(h[16:], uint64(m.b))
	binary.LittleEndian.PutUint64(h[24:], uint64(m.ep))
	binary.LittleEndian.PutUint64(h[32:], uint64(m.seq))
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
	}
	if len(frame) > wireFrameHdr {
		m.payload = frame[wireFrameHdr:]
	}
	return m, nil
}

// NewNetWorld creates a world whose only local rank is tr.Self(): the other
// ranks live behind tr (in other processes, or other Worlds of this one).
// The transport is started immediately so peers can connect while the graph
// is still being built — inbound frames buffer in the mailbox until the rank
// starts.
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
	return tr.Start(p.deliverFrame, w.peerEvent)
}

// transmit puts one message on the wire toward dst: a self-send lands in this
// rank's mailbox, anything else is encoded and handed to the transport (best
// effort: the link layer retransmits). Called for originals,
// retransmissions, and acks. After Shutdown, and to or from a fail-stopped
// rank, the wire is down and the message is discarded.
func (p *Proc) transmit(dst int, m message) {
	w := p.world
	if w.closed.Load() {
		return
	}
	if dst == p.rank {
		p.mbox.push(m)
		return
	}
	if w.wireDead(p.rank, dst) {
		return
	}
	_ = p.tr.Send(dst, appendWireFrame(make([]byte, 0, wireFrameHdr+len(m.payload)), m))
}

// deliverFrame is the transport's inbound callback: decode and enqueue into
// this rank's mailbox. Malformed or misaddressed frames are dropped — remote
// bytes must never be able to take the progress goroutine down — and so is
// anything arriving after Shutdown or touching a fail-stopped rank.
func (p *Proc) deliverFrame(frame []byte) {
	m, err := decodeWireFrame(frame)
	w := p.world
	if err != nil || m.src < 0 || m.src >= len(w.procs) || m.src == p.rank ||
		w.closed.Load() || w.wireDead(m.src, p.rank) {
		return
	}
	p.mbox.push(m)
}

// SetPeerEventHook installs an observer for transport peer lifecycle events
// (events may arrive on any transport goroutine). Safe to call at any time.
func (w *World) SetPeerEventHook(f func(PeerEvent)) { w.peerHook.Store(&f) }

func (w *World) peerEvent(ev PeerEvent) {
	if f := w.peerHook.Load(); f != nil && *f != nil {
		(*f)(ev)
	}
}

// Reconnects reports how many times the local transports re-established a
// lost peer connection (comm.reconnects; 0 over memory).
func (w *World) Reconnects() int64 {
	var n int64
	for _, p := range w.local {
		if s, ok := p.tr.(TransportStats); ok {
			n += s.Reconnects()
		}
	}
	return n
}
