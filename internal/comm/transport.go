// Transport extraction: the byte-moving substrate under a World.
//
// A World built with NewWorld moves message values directly between
// in-process mailboxes (the historical wire, zero-copy, fault-injectable via
// FaultPlan). A World built with NewNetWorld materializes exactly one local
// rank and hands every cross-rank transmission — encoded as a framed byte
// slice — to a Transport implementation, so ranks can be separate OS
// processes on separate machines. internal/comm/tcptransport is the real
// network backend (TCP with dial backoff, deadlines, reconnect, and socket
// fault injection).
//
// Reliability layering is unchanged: a network transport is best-effort (a
// frame queued while a connection is down is simply dropped), and the
// sequence-number + cumulative-ack + retransmit link layer above recovers
// losses, deduplicates, and restores order — including across transparent
// reconnects, because the per-link sequence state lives in the Proc, not the
// connection. Network worlds therefore always run with the reliable layer on.
package comm

import (
	"encoding/binary"
	"fmt"
	"time"
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

// NewNetWorld creates a network-backed world: only the local rank (tr.Self())
// is materialized in this process; every cross-rank transmission is encoded
// and handed to tr, and inbound frames are decoded into the local mailbox.
// The reliable link layer is always engaged (a real network is lossy by
// definition), and the transport is started immediately so peers can connect
// while the graph is still being built — inbound frames buffer in the
// mailbox until the rank starts.
//
// In-process fault injection (SetFaultPlan, SetDropFilter, KillRank) does not
// apply to network worlds: inject faults at the socket level instead (see
// tcptransport.FaultConfig) and kill ranks by killing their OS processes.
func NewNetWorld(tr Transport) (*World, error) {
	n := tr.Size()
	self := tr.Self()
	if n < 1 {
		return nil, fmt.Errorf("comm: transport world size %d < 1", n)
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("comm: transport self rank %d out of [0,%d)", self, n)
	}
	w := &World{
		procs:    make([]*Proc, n),
		rto:      2 * time.Millisecond,
		net:      tr,
		self:     self,
		reliable: true,
	}
	w.procs[self] = newProc(w, self)
	if err := tr.Start(w.deliverFrame, w.peerEvent); err != nil {
		return nil, fmt.Errorf("comm: transport start: %w", err)
	}
	return w, nil
}

// NetBacked reports whether this world runs over a network Transport.
func (w *World) NetBacked() bool { return w.net != nil }

// SelfRank returns the local rank of a network-backed world (0 for
// in-process worlds, where every rank is local).
func (w *World) SelfRank() int { return w.self }

// netTransmit serializes one outbound message onto the network transport.
// Outbound traffic toward a confirmed-dead peer is suppressed here (the
// in-process wire models this with deadWire; over a real network the same
// check stops retransmissions and heartbeats spamming a corpse's address).
func (w *World) netTransmit(dst int, m message) {
	if dst == w.self {
		w.procs[dst].mbox.push(m)
		return
	}
	if w.wireDead(m.src, dst) {
		return
	}
	frame := appendWireFrame(make([]byte, 0, wireFrameHdr+len(m.payload)), m)
	_ = w.net.Send(dst, frame) // best-effort: the link layer retransmits
}

// deliverFrame is the transport's inbound callback: decode and enqueue into
// the local rank's mailbox. Malformed or misaddressed frames are dropped —
// remote bytes must never be able to take the progress goroutine down.
func (w *World) deliverFrame(frame []byte) {
	m, err := decodeWireFrame(frame)
	if err != nil {
		return
	}
	if m.src < 0 || m.src >= len(w.procs) || m.src == w.self {
		return
	}
	if w.closed.Load() {
		return
	}
	w.procs[w.self].mbox.push(m)
}

// SetPeerEventHook installs an observer for transport peer lifecycle events
// (network worlds only; events may arrive on any transport goroutine). Safe
// to call at any time.
func (w *World) SetPeerEventHook(f func(PeerEvent)) { w.peerHook.Store(&f) }

func (w *World) peerEvent(ev PeerEvent) {
	if f := w.peerHook.Load(); f != nil && *f != nil {
		(*f)(ev)
	}
}

// Reconnects reports how many times the transport re-established a lost
// peer connection (comm.reconnects; 0 for in-process worlds).
func (w *World) Reconnects() int64 {
	if s, ok := w.net.(TransportStats); ok {
		return s.Reconnects()
	}
	return 0
}
