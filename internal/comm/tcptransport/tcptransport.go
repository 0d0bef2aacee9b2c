// Package tcptransport implements comm.Transport over real TCP sockets, so
// each rank of a world can be a separate OS process (on the same host over
// loopback, or on separate machines).
//
// Connection topology: every rank listens on its own address and maintains
// one simplex outbound connection per peer, used only for that direction's
// traffic (rank i dials rank j for i→j frames, and accepts j's connection
// for j→i frames). A connection opens with a 9-byte handshake
// [4B magic][1B version][4B src rank]; after that the stream is a sequence
// of length-prefixed frames [4B len][frame bytes]. A frame toward an idle
// connection is written by the sending goroutine itself, in one
// non-blocking attempt; anything else goes through the peer's writer
// goroutine. Inbound, each connection's reader goroutine waits for bytes
// and hands every complete frame to the deliver callback, which dispatches
// it on that goroutine. Idle workers can read the same connections without
// blocking (Poll, as comm.Transport requires), so a frame that lands while one
// spins is dispatched by it and wakes no goroutine. Both go through one
// read path: a connection's bytes are read by one caller at a time, until
// the socket is empty.
//
// Robustness, and the comm.Transport contract: frames toward a peer travel
// in order on one connection at a time, and are lost only at a cut. Every
// place a frame can be lost is a cut: a failed or torn write, an injected
// connection kill or partition, and the receiver tearing the connection
// down (its read timeout or a framing error), which a blocked read on the
// outbound connection notices while the sender is idle. The writer reports
// each cut as PeerDown (a failed dial as PeerDialFailed), then redials on
// its own backoff timer — capped exponential with seeded jitter — and
// reports PeerUp, on which the comm link layer resends what the cut lost. A
// frame dropped on a full outbox is a cut too, which the writer reports as
// PeerDown and PeerUp at once: the connection stays up and in order. The
// link layer's resend after a cut restores what it lost (its per-link sequence state survives the reconnect, so
// delivery resumes exactly-once and in order). Writes and reads carry
// deadlines. A peer the failure detector confirms dead is marked via
// MarkDead, which stops the reconnect loop. For fault-tolerance testing, a
// seeded socket-level fault injector (FaultConfig) tears connections down,
// writes torn frames, partitions peers for a window, and slows reads — all
// without touching the protocol layers above.
package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gottg/internal/comm"
)

const (
	handshakeMagic   = 0x67545447 // "GTTG"
	handshakeVersion = 1
	handshakeLen     = 9

	// maxFrameLen bounds one frame so a corrupted or hostile length prefix
	// cannot make the reader allocate unboundedly.
	maxFrameLen = 64 << 20

	// coalesceLimit is how many bytes of queued frames a writer gathers
	// into one Write, and the size of a reader's buffer: frames that are
	// queued together cost one system call on each side, not two apiece.
	coalesceLimit = 64 << 10
)

// Errors returned by Send. Each means the frame was dropped; a full outbox
// is reported as a cut (Send), so the comm link layer resends the frame,
// and callers may ignore the error.
var (
	ErrClosed       = errors.New("tcptransport: transport closed")
	ErrPeerDead     = errors.New("tcptransport: peer marked dead")
	ErrBackpressure = errors.New("tcptransport: outbox full, frame dropped")
)

// Config parameterizes a transport. Self and Peers are required; everything
// else has defaults.
type Config struct {
	// Self is the local rank; Peers[Self] is this process's listen address.
	Self int
	// Peers maps rank -> "host:port".
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Self]
	// (tests bind :0 first to learn the port); when nil, New binds it.
	Listener net.Listener

	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// BackoffBase is the first re-dial delay after a failure; it doubles per
	// consecutive failure up to BackoffMax, plus seeded jitter of up to half
	// the current backoff. Defaults 5ms / 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WriteTimeout is the per-frame write deadline: a peer that stops
	// draining its socket fails the write and triggers a reconnect instead
	// of wedging the sender forever. Default 10s.
	WriteTimeout time.Duration
	// ReadTimeout, when positive, is the per-read deadline on inbound
	// connections. Leave zero for workloads with legitimately idle links;
	// with heartbeat failure detection on, a few seconds is safe and bounds
	// how long a half-open connection can linger. Default 0 (none).
	ReadTimeout time.Duration
	// OutboxLen bounds the per-peer send queue; a full outbox drops the
	// frame, and the writer reports the drop as a cut, so the link layer
	// resends it. Default 4096.
	OutboxLen int

	// Fault optionally injects seeded socket-level faults (see fault.go).
	Fault *FaultConfig

	// Logf, when set, receives debug-level connection lifecycle logging.
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if c.Self < 0 || c.Self >= len(c.Peers) {
		return fmt.Errorf("tcptransport: self rank %d out of range for %d peers", c.Self, len(c.Peers))
	}
	if len(c.Peers) < 1 {
		return errors.New("tcptransport: no peers")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.OutboxLen <= 0 {
		c.OutboxLen = 4096
	}
	return nil
}

// Transport is a TCP-backed comm.Transport. Create with New, pass to
// comm.NewNetWorld (which calls Start), Close via comm.World.Shutdown.
type Transport struct {
	cfg     Config
	ln      net.Listener
	inj     *injector
	jitter  *rng
	peers   []*peer // outbound connections, indexed by rank; nil at Self
	deliver func([]byte)
	events  func(comm.PeerEvent)

	closed   atomic.Bool
	wg       sync.WaitGroup // accept + read loops
	writerWg sync.WaitGroup // per-peer writers (joined first in Close)

	// inbound lists the accepted connections, for Close and Poll. A list is
	// never written once published: connMu serializes its replacements, and
	// Poll reads it without a lock.
	connMu   sync.Mutex
	inbound  atomic.Pointer[[]*inConn]
	pollNext atomic.Uint32 // Poll's round-robin cursor over inbound

	reconnects atomic.Int64
	dials      atomic.Int64
	dropped    atomic.Int64
}

var _ comm.Transport = (*Transport)(nil)

// New binds the local listener and prepares (but does not start) the
// transport.
func New(cfg Config) (*Transport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &Transport{
		cfg:   cfg,
		ln:    cfg.Listener,
		peers: make([]*peer, len(cfg.Peers)),
	}
	t.inbound.Store(&[]*inConn{})
	if cfg.Fault != nil {
		t.inj = newInjector(*cfg.Fault)
	}
	// Backoff jitter is seeded per rank so multi-process runs are
	// reproducible yet ranks don't thunder in lockstep.
	seed := uint64(cfg.Self)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	if cfg.Fault != nil && cfg.Fault.Seed != 0 {
		seed ^= cfg.Fault.Seed
	}
	t.jitter = newRng(seed)
	if t.ln == nil {
		ln, err := net.Listen("tcp", cfg.Peers[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Peers[cfg.Self], err)
		}
		t.ln = ln
	}
	for r, addr := range cfg.Peers {
		if r == cfg.Self {
			continue
		}
		p := &peer{
			t:      t,
			rank:   r,
			addr:   addr,
			outbox: make(chan []byte, cfg.OutboxLen),
			kick:   make(chan struct{}, 1),
			quit:   make(chan struct{}),
		}
		p.rawFn = p.writeRaw
		t.peers[r] = p
	}
	return t, nil
}

// Self returns the local rank.
func (t *Transport) Self() int { return t.cfg.Self }

// Size returns the world size.
func (t *Transport) Size() int { return len(t.cfg.Peers) }

// Addr returns the local listener's bound address.
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// Start launches the accept loop and one writer goroutine per peer.
func (t *Transport) Start(deliver func(frame []byte), events func(comm.PeerEvent)) error {
	if deliver == nil {
		return errors.New("tcptransport: nil deliver callback")
	}
	t.deliver = deliver
	t.events = events
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.writerWg.Add(1)
		go p.writeLoop()
	}
	return nil
}

// Send hands one frame to rank dst without ever parking. When nothing is
// queued toward dst and no writer is mid-write, it writes the frame itself,
// in one non-blocking attempt (tryDirect); otherwise, and always under
// Config.Fault, it queues the frame for the peer's writer goroutine. A full
// outbox drops the frame and has the writer report the drop as a cut
// (overflow); a dead peer or a closed transport drops it too.
func (t *Transport) Send(dst int, frame []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if dst < 0 || dst >= len(t.peers) {
		return fmt.Errorf("tcptransport: rank %d out of range", dst)
	}
	p := t.peers[dst]
	if p == nil {
		return errors.New("tcptransport: send to self")
	}
	if p.dead.Load() {
		return ErrPeerDead
	}
	if t.inj == nil && len(frame) < coalesceLimit && p.queued.Load() == 0 && p.tryDirect(frame) {
		return nil
	}
	p.queued.Add(1)
	select {
	case p.outbox <- frame:
		return nil
	default:
		p.queued.Add(-1)
		t.dropped.Add(1)
		p.overflow.Store(true)
		p.kickWriter()
		return ErrBackpressure
	}
}

// MarkDead stops pursuing a peer: its writer drains and drops, its
// connection closes, and no further dials happen.
func (t *Transport) MarkDead(rank int) {
	if rank < 0 || rank >= len(t.peers) {
		return
	}
	p := t.peers[rank]
	if p == nil || p.dead.Swap(true) {
		return
	}
	p.closeConn(nil)
	t.event(comm.PeerEvent{Peer: rank, Kind: comm.PeerGaveUp})
}

// Close tears down the listener, all connections, and all goroutines.
// Writers first flush any frames still queued in their outboxes (briefly,
// best-effort) before the connections come down: the last frames a rank
// sends before exiting are typically the acks its peers need to drain, and
// dropping them would leave peers waiting for them until their drain
// timeout. Idempotent.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		close(p.quit)
	}
	t.writerWg.Wait() // writers flush residual frames, then exit
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.closeConn(nil)
	}
	t.connMu.Lock()
	conns := *t.inbound.Load() // complete: acceptLoop adds none once closed is set
	t.connMu.Unlock()
	for _, ic := range conns {
		ic.c.Close()
	}
	t.wg.Wait()
	return nil
}

// Reconnects counts outbound connections re-established after a loss.
func (t *Transport) Reconnects() int64 { return t.reconnects.Load() }

// Dials counts dial attempts (successful or not).
func (t *Transport) Dials() int64 { return t.dials.Load() }

// Dropped counts outbound frames dropped (outbox full, write failed, or
// fault-injected).
func (t *Transport) Dropped() int64 { return t.dropped.Load() }

func (t *Transport) event(ev comm.PeerEvent) {
	if f := t.events; f != nil {
		f(ev)
	}
}

func (t *Transport) logf(format string, args ...any) {
	if f := t.cfg.Logf; f != nil {
		f(format, args...)
	}
}

// ---------------------------------------------------------------- outbound

// peer is one outbound simplex connection with reconnect state. Only the
// writer goroutine sets conn, dials, and reports PeerUp and PeerDown. Other
// goroutines may close the connection — Close and MarkDead to interrupt a
// blocked write, the connection's watcher when the receiver tore it down
// — or ask the writer to report a dropped frame (overflow); either wakes the
// writer, which reports the cut before it dials again (connect).
type peer struct {
	t      *Transport
	rank   int
	addr   string
	outbox chan []byte
	kick   chan struct{} // wakes the writer: a direct write's remainder, a cut to report, a redial due
	quit   chan struct{}

	dead     atomic.Bool
	overflow atomic.Bool // Send dropped a frame on a full outbox: the writer reports a cut

	mu   sync.Mutex
	conn net.Conn

	// Direct writes (tryDirect). wmu is held by whoever writes to the
	// connection: a sender's one non-blocking attempt, or the writer
	// goroutine. queued counts the frames the writer owns and has not yet
	// written or dropped — in the outbox, gathered, or a direct write's
	// remainder. A sender writes directly only while it is zero, so a frame
	// never passes one queued before it.
	wmu    sync.Mutex
	queued atomic.Int64

	// Under wmu: the length-prefixed direct frame (reused), the part of it
	// a short write left over and the connection that part belongs to, and
	// the cached raw connection with its write callback and result.
	dbuf     []byte
	rest     []byte // aliases dbuf; no direct write runs until it is written
	restConn net.Conn
	rawConn  net.Conn
	raw      syscall.RawConn
	rawFn    func(fd uintptr) bool // p.writeRaw, bound once
	rawN     int
	rawErr   error

	// Writer-private reconnect state. outage is set from the report of a
	// cut or a failed dial until the next PeerUp.
	everUp     bool
	outage     bool
	attempts   int
	backoff    time.Duration
	nextDialAt time.Time
}

// closeConn closes c if it is the connection (any connection when c is
// nil), clears it, and reports whether it closed one.
func (p *peer) closeConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil || c != nil && p.conn != c {
		return false
	}
	p.conn.Close()
	p.conn = nil
	return true
}

// kickWriter wakes the writer goroutine.
func (p *peer) kickWriter() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (p *peer) current() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// frameBuf gathers small length-prefixed frames for one Write. The buffer is
// reused from write to write; frames of coalesceLimit bytes or more never
// enter it (writeFrame sends those without copying them).
type frameBuf struct {
	b []byte
	n int64 // frames in b
}

func (f *frameBuf) add(frame []byte) {
	f.b = binary.LittleEndian.AppendUint32(f.b, uint32(len(frame)))
	f.b = append(f.b, frame...)
	f.n++
}

func (f *frameBuf) full() bool { return len(f.b) >= coalesceLimit }

// writeTo writes the gathered frames to c under one deadline and empties
// the buffer, reporting how many frames it held.
func (f *frameBuf) writeTo(c net.Conn, deadline time.Time) (int64, error) {
	c.SetWriteDeadline(deadline)
	_, err := c.Write(f.b)
	n := f.n
	f.b, f.n = f.b[:0], 0
	return n, err
}

// tryDirect is Send's direct write, for a frame of less than coalesceLimit
// bytes: one non-blocking write attempt (a RawConn callback that never asks
// to wait), from the reused dbuf. It reports whether the frame is taken care
// of — written whole, or written in part with the remainder handed to the
// writer goroutine, which writes it before any frame queued after it. It
// reports false, and the caller queues the frame, when the writer holds the
// connection, anything is queued, there is no connection, or nothing could
// be written (a full socket buffer, or an error the writer will meet too):
// dialing, waiting and failure handling stay in writeLoop.
func (p *peer) tryDirect(frame []byte) bool {
	if !p.wmu.TryLock() {
		return false
	}
	defer p.wmu.Unlock()
	c := p.current()
	if p.queued.Load() != 0 || c == nil {
		return false
	}
	if c != p.rawConn {
		sc, ok := c.(syscall.Conn)
		if !ok {
			return false
		}
		rc, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		p.rawConn, p.raw = c, rc
	}
	p.dbuf = binary.LittleEndian.AppendUint32(p.dbuf[:0], uint32(len(frame)))
	p.dbuf = append(p.dbuf, frame...)
	n := p.writeOnce()
	if n <= 0 {
		return false
	}
	if n < len(p.dbuf) {
		p.rest, p.restConn = p.dbuf[n:], c
		p.queued.Add(1)
		p.kickWriter()
	}
	return true
}

// writeOnce makes the single write attempt of dbuf and returns the bytes
// written (0 when none were). The writer's blocking writes leave a deadline
// on the connection that RawConn.Write honors; one that lapsed is cleared
// (it guards only those writes) and the attempt made once more.
func (p *peer) writeOnce() int {
	p.rawN, p.rawErr = 0, nil
	err := p.raw.Write(p.rawFn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		p.rawConn.SetWriteDeadline(time.Time{})
		err = p.raw.Write(p.rawFn)
	}
	if err != nil || p.rawErr != nil {
		return 0
	}
	return p.rawN
}

// writeRaw is the RawConn write callback: one write, and done whatever it
// wrote, so the runtime never parks the sender to wait for buffer space.
func (p *peer) writeRaw(fd uintptr) bool {
	p.rawN, p.rawErr = rawWrite(fd, p.dbuf)
	return true
}

// writeRest writes what a short direct write left over, ahead of anything
// queued after it. The caller holds wmu (the writer goroutine).
func (p *peer) writeRest() {
	if p.rest == nil {
		return
	}
	c := p.restConn
	c.SetWriteDeadline(time.Now().Add(p.t.cfg.WriteTimeout))
	_, err := c.Write(p.rest)
	p.rest, p.restConn = nil, nil
	p.queued.Add(-1)
	if err != nil {
		p.t.dropped.Add(1)
		p.cut(err)
	}
}

// writeFrame writes the length prefix for a frame of size bytes and then
// body in one writev, straight from the caller's slice. body is the whole
// frame, or its first half for an injected torn write.
func writeFrame(c net.Conn, size int, body []byte, deadline time.Time) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(size))
	c.SetWriteDeadline(deadline)
	bufs := net.Buffers{prefix[:], body}
	_, err := bufs.WriteTo(c)
	return err
}

// writeLoop drains the outbox onto the connection. It dials the first
// connection for the first frame, and after a cut redials on its own backoff
// timer (capped exponential, with jitter), whether or not frames wait: an
// idle sender whose frames died in a cut still reconnects, and its PeerUp
// has the link layer resend them. It never blocks on backoff: while
// disconnected and inside the backoff window, frames are dropped fast; they
// are lost in the cut the writer reported.
//
// Frames are gathered into one buffer and written when the outbox runs
// empty or the buffer reaches coalesceLimit, so a queued burst costs one
// Write for all of it. A frame of coalesceLimit bytes or more is not copied:
// what was gathered goes out first, then its prefix and body in one writev.
// Every write holds wmu and first finishes a direct write's remainder. Every
// frame still passes the fault injector on its own; a fault first writes
// what was gathered ahead of it, keeping frame order.
func (p *peer) writeLoop() {
	defer p.t.writerWg.Done()
	var w writer
	w.p = p
	for {
		var frame []byte
		if w.fb.n == 0 {
			select {
			case <-p.quit:
				p.flushResidual(&w.fb)
				return
			case <-p.kick:
				// A direct write's remainder, an overflow to report, or
				// a connection to redial after a cut.
				p.wmu.Lock()
				p.writeRest()
				p.wmu.Unlock()
				p.reportOverflow()
				if p.outage || p.everUp {
					w.connect()
				}
				continue
			case frame = <-p.outbox:
			}
		} else {
			select {
			case frame = <-p.outbox:
			default:
				w.flush()
				continue
			}
		}
		if !w.take(frame) {
			p.queued.Add(-1) // written or dropped
		}
	}
}

// writer is writeLoop's state: the frames gathered so far and the
// connection they were gathered for.
type writer struct {
	p    *peer
	fb   frameBuf
	conn net.Conn
}

// flush writes the gathered frames, reporting whether they went out.
func (w *writer) flush() bool {
	if w.fb.n == 0 {
		return true
	}
	p, t := w.p, w.p.t
	p.wmu.Lock()
	p.writeRest()
	n, err := w.fb.writeTo(w.conn, time.Now().Add(t.cfg.WriteTimeout))
	p.queued.Add(-n)
	p.wmu.Unlock()
	if err != nil {
		t.dropped.Add(n)
		p.cut(err)
		return false
	}
	return true
}

// take routes one queued frame: it drops it, writes it on its own, or
// gathers it for the next flush, and reports true only in the last case.
func (w *writer) take(frame []byte) bool {
	p, t := w.p, w.p.t
	if p.dead.Load() || t.closed.Load() {
		return false // drain and drop
	}
	p.reportOverflow()
	if t.inj != nil && t.inj.partitioned(p.rank) {
		// Partition episode: this direction is black-holed. The episode is
		// a cut: any established connection goes down, and the writer
		// redials once it ends.
		w.flush()
		p.cut(errInjectedPartition)
		t.dropped.Add(1)
		return false
	}
	c := w.connect()
	if c != w.conn {
		w.flush() // the old connection is gone (MarkDead, Close): fails fast
		w.conn = c
	}
	if c == nil {
		t.dropped.Add(1)
		return false
	}
	// Seeded write faults: tear the connection down, or write a torn
	// (truncated) frame first so the receiver exercises its resync path.
	// (No direct write runs under Config.Fault, so there is no remainder.)
	if t.inj != nil {
		switch t.inj.writeFault() {
		case faultConnKill:
			w.flush()
			t.dropped.Add(1)
			p.cut(errInjectedConnKill)
			return false
		case faultTornWrite:
			w.flush()
			p.wmu.Lock()
			writeFrame(c, len(frame), frame[:len(frame)/2], time.Now().Add(t.cfg.WriteTimeout))
			p.wmu.Unlock()
			t.dropped.Add(1)
			p.cut(errInjectedTornWrite)
			return false
		}
	}
	if len(frame) >= coalesceLimit {
		if !w.flush() {
			t.dropped.Add(1) // the connection went down under the frames ahead
			return false
		}
		p.wmu.Lock()
		p.writeRest()
		err := writeFrame(c, len(frame), frame, time.Now().Add(t.cfg.WriteTimeout))
		p.wmu.Unlock()
		if err != nil {
			t.dropped.Add(1)
			p.cut(err)
			return false
		}
		return false
	}
	w.fb.add(frame)
	if w.fb.full() {
		w.flush()
	}
	return true
}

// flushResidual best-effort-writes whatever is still queued in the outbox
// onto the established connection before shutdown tears it down. Frames
// queued here are typically the final acks peers need to drain their links;
// the whole flush shares one short deadline so a wedged peer cannot stall
// Close. No dialing: with no connection the residue is dropped.
func (p *peer) flushResidual(fb *frameBuf) {
	c := p.current()
	if c == nil || p.dead.Load() {
		return
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.writeRest()
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		select {
		case frame := <-p.outbox:
			if len(frame) >= coalesceLimit {
				if fb.n != 0 {
					if _, err := fb.writeTo(c, deadline); err != nil {
						return
					}
				}
				if writeFrame(c, len(frame), frame, deadline) != nil {
					return
				}
				continue
			}
			fb.add(frame)
			if !fb.full() {
				continue
			}
		default:
			if fb.n == 0 {
				return
			}
		}
		if _, err := fb.writeTo(c, deadline); err != nil {
			return
		}
	}
}

// cut reports that frames toward the peer were, or may have been, lost, on
// the writer goroutine: it closes the connection, reports PeerDown unless
// the outage is reported already, and arms the redial. The PeerUp that ends
// the outage has the link layer resend.
func (p *peer) cut(err error) {
	p.closeConn(nil)
	if p.dead.Load() || p.t.closed.Load() {
		return // no reconnect to report a cut to
	}
	if !p.outage {
		p.outage = true
		p.t.logf("tcptransport: rank %d -> %d: connection cut: %v", p.t.cfg.Self, p.rank, err)
		p.t.event(comm.PeerEvent{Peer: p.rank, Kind: comm.PeerDown, Err: err})
	}
	p.scheduleRedial()
}

// reportOverflow reports a frame Send dropped on a full outbox as a cut that
// ends at once, PeerDown then PeerUp: the frames queued around it go out in
// order on the connection, and the link layer resends from its oldest
// unacked frame. During an outage the PeerUp of the redial does that.
func (p *peer) reportOverflow() {
	if !p.overflow.Load() || !p.overflow.Swap(false) || p.outage {
		return
	}
	p.t.event(comm.PeerEvent{Peer: p.rank, Kind: comm.PeerDown, Err: ErrBackpressure})
	p.t.event(comm.PeerEvent{Peer: p.rank, Kind: comm.PeerUp})
}

// scheduleRedial kicks the writer when the next dial is due.
func (p *peer) scheduleRedial() {
	time.AfterFunc(time.Until(p.nextDialAt), p.kickWriter)
}

// watch blocks on the read side of the outbound connection c, which the
// receiver never writes to, so the read returns only when c ends: closed
// here, or torn down by the receiver (its read timeout, a framing error, its
// Close). In the second case c is still the connection: watch closes it and
// wakes the writer, which may be idle, to report the cut (connect).
func (p *peer) watch(c net.Conn) {
	defer p.t.wg.Done()
	c.Read(make([]byte, 1))
	if p.closeConn(c) {
		p.kickWriter()
	}
}

// errPeerClosed reports a cut the receiver made.
var errPeerClosed = errors.New("tcptransport: peer closed the connection")

// connect returns the established connection, dialing when there is none
// and neither the backoff window nor a partition forbids it; it returns nil
// when it does not dial, or the dial fails, and arms the redial then.
//
// Before a dial, the writer finishes with the old connection: the frames it
// gathered and a direct write's remainder fail on it, and a cut made outside
// the writer (watch) is reported. So every frame lost in a cut is lost
// before the PeerDown that precedes the next PeerUp.
func (w *writer) connect() net.Conn {
	p, t := w.p, w.p.t
	if c := p.current(); c != nil {
		return c
	}
	w.flush()
	p.wmu.Lock()
	p.writeRest()
	p.wmu.Unlock()
	if p.everUp && !p.outage {
		p.cut(errPeerClosed) // by the receiver (watch), or at Close or MarkDead, which cut ignores
	}
	if p.dead.Load() || t.closed.Load() {
		return nil
	}
	now := time.Now()
	if t.inj != nil {
		if end := t.inj.partitionEnd(p.rank); end.After(p.nextDialAt) {
			p.nextDialAt = end
		}
	}
	if now.Before(p.nextDialAt) {
		p.scheduleRedial()
		return nil
	}
	t.dials.Add(1)
	p.attempts++
	c, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
	if err == nil {
		err = p.handshake(c)
	}
	if err != nil {
		if c != nil {
			c.Close()
		}
		// Capped exponential backoff with seeded jitter: double per
		// consecutive failure, plus up to half the current backoff.
		p.backoff = min(max(2*p.backoff, t.cfg.BackoffBase), t.cfg.BackoffMax)
		wait := p.backoff + time.Duration(t.jitter.n(uint64(p.backoff)/2))
		p.nextDialAt = now.Add(wait)
		p.outage = true
		t.logf("tcptransport: rank %d -> %d: dial %s failed (attempt %d, retry in %v): %v",
			t.cfg.Self, p.rank, p.addr, p.attempts, wait, err)
		t.event(comm.PeerEvent{Peer: p.rank, Kind: comm.PeerDialFailed, Attempt: p.attempts, Err: err})
		p.scheduleRedial()
		return nil
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
	t.wg.Add(1)
	go p.watch(c)
	if p.everUp {
		t.reconnects.Add(1)
	}
	if p.outage { // the first connection ends no cut: nothing to resend
		t.event(comm.PeerEvent{Peer: p.rank, Kind: comm.PeerUp, Attempt: p.attempts})
	}
	t.logf("tcptransport: rank %d -> %d: connected to %s (attempt %d, reconnect=%v)",
		t.cfg.Self, p.rank, p.addr, p.attempts, p.everUp)
	p.everUp = true
	p.outage = false
	p.attempts = 0
	p.backoff = 0
	p.nextDialAt = time.Time{}
	return c
}

// handshake identifies the local rank to the accepting side.
func (p *peer) handshake(c net.Conn) error {
	var h [handshakeLen]byte
	binary.LittleEndian.PutUint32(h[0:], handshakeMagic)
	h[4] = handshakeVersion
	binary.LittleEndian.PutUint32(h[5:], uint32(p.t.cfg.Self))
	c.SetWriteDeadline(time.Now().Add(p.t.cfg.WriteTimeout))
	_, err := c.Write(h[:])
	return err
}

// ---------------------------------------------------------------- inbound

// errBadFrame tears down a connection whose length prefix is zero or above
// maxFrameLen.
var errBadFrame = errors.New("tcptransport: bad frame length")

// inConn is one accepted connection's inbound side. Its bytes are read in one
// place, pump, by whoever holds mu: the connection's reader goroutine, or a
// poller (Poll). Each reads without blocking until the socket is empty, so
// the next one continues the stream where the last stopped, and every frame
// is handed to deliver once, in stream order. mu is held across deliver: a
// frame read by one caller must be dispatched before the next caller reads.
type inConn struct {
	t   *Transport
	c   net.Conn
	rc  syscall.RawConn // nil when reads go through c, by the reader alone
	src int             // the peer rank the handshake named
	up  atomic.Bool     // handshake done, rc and src set: pollers may read

	// The reader's RawConn.Read callback and the pollers' RawConn.Control
	// callback, bound once.
	readFn func(fd uintptr) bool
	pollFn func(fd uintptr)

	mu     sync.Mutex
	buf    []byte // coalesceLimit bytes; buf[:end] is read and not yet delivered
	end    int
	big    []byte // a frame too large for buf, read in place; big[:bigN] is filled
	bigN   int
	frames comm.FrameAlloc // the link layer keeps each frame
	n      int64           // frames delivered
	polled int             // frames the current poll delivered
	err    error           // why the connection is finished; sticky
}

func (t *Transport) newInConn(c net.Conn) *inConn {
	ic := &inConn{t: t, c: c, buf: make([]byte, coalesceLimit)}
	ic.readFn = func(fd uintptr) bool {
		ic.mu.Lock()
		k := ic.pump(fd, true)
		// A finished connection ends the Read, and so does a delivered frame
		// when ReadTimeout wants its deadline re-armed.
		done := ic.err != nil || (k > 0 && t.cfg.ReadTimeout > 0)
		ic.mu.Unlock()
		return done
	}
	ic.pollFn = func(fd uintptr) { ic.polled = ic.pump(fd, false) }
	return ic
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			// Transient accept failure (e.g. EMFILE): back off briefly.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		ic := t.newInConn(c)
		t.connMu.Lock()
		if t.closed.Load() { // lost the race with Close
			t.connMu.Unlock()
			c.Close()
			return
		}
		conns := append(slices.Clip(*t.inbound.Load()), ic)
		t.inbound.Store(&conns)
		t.connMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(ic)
	}
}

// forget unlists a connection whose reader is done and closes it. The list
// is replaced, never written, so a poller may still hold the old one.
func (t *Transport) forget(ic *inConn) {
	t.connMu.Lock()
	conns := slices.DeleteFunc(slices.Clone(*t.inbound.Load()), func(x *inConn) bool { return x == ic })
	t.inbound.Store(&conns)
	t.connMu.Unlock()
	ic.c.Close()
}

// readLoop consumes one inbound connection: the handshake, then pumps
// whenever the socket turns readable. Any framing violation or read error
// tears the connection down; the peer re-dials and the link layer recovers
// whatever was in flight.
func (t *Transport) readLoop(ic *inConn) {
	defer t.wg.Done()
	defer t.forget(ic)
	if !ic.handshake() {
		return
	}
	rt := t.cfg.ReadTimeout
	var seen int64 // frames delivered when the deadline was last armed
	for {
		if rt > 0 {
			ic.c.SetReadDeadline(time.Now().Add(rt))
		}
		var err error
		if ic.rc != nil {
			// Every attempt follows the Read's prepareRead, and the Read
			// waits on the netpoller between attempts: bytes that arrive
			// after an attempt (ours or a poller's) found the socket empty
			// wake this goroutine.
			err = ic.rc.Read(ic.readFn)
		} else {
			for !ic.readFn(0) {
			}
		}
		ic.mu.Lock()
		failed, n := ic.err != nil, ic.n
		ic.mu.Unlock()
		if failed || t.closed.Load() {
			return
		}
		if err != nil && (n == seen || !errors.Is(err, os.ErrDeadlineExceeded)) {
			return // a lapsed deadline is silence only if no poller delivered either
		}
		seen = n
	}
}

// handshake reads and checks the 9-byte handshake, straight from the
// connection so that frames sent right behind it stay in the socket for
// pump, then makes the connection pollable.
func (ic *inConn) handshake() bool {
	t, c := ic.t, ic.c
	var h [handshakeLen]byte
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout + t.cfg.WriteTimeout))
	if _, err := io.ReadFull(c, h[:]); err != nil {
		return false
	}
	if binary.LittleEndian.Uint32(h[0:]) != handshakeMagic || h[4] != handshakeVersion {
		t.logf("tcptransport: rank %d: rejecting connection from %s: bad handshake", t.cfg.Self, c.RemoteAddr())
		return false
	}
	src := int(int32(binary.LittleEndian.Uint32(h[5:])))
	if src < 0 || src >= len(t.cfg.Peers) || src == t.cfg.Self {
		t.logf("tcptransport: rank %d: rejecting connection claiming rank %d", t.cfg.Self, src)
		return false
	}
	t.logf("tcptransport: rank %d: accepted connection from rank %d (%s)", t.cfg.Self, src, c.RemoteAddr())
	c.SetReadDeadline(time.Time{})
	if sc, ok := c.(syscall.Conn); ok && rawReads {
		if rc, err := sc.SyscallConn(); err == nil {
			ic.rc = rc
		}
	}
	ic.src = src
	ic.up.Store(true)
	return true
}

// Poll reads one inbound connection, round-robin, without blocking, and
// delivers every complete frame it holds on the calling goroutine. It
// returns how many it delivered: none when the socket is empty, and none at
// once when the connection's reader or another poller is reading it. The
// read runs inside RawConn.Control, which holds a reference on the
// descriptor, so a Close racing the poll waits for it: a poller never reads
// a closed or reused descriptor.
func (t *Transport) Poll() int {
	conns := *t.inbound.Load()
	if len(conns) == 0 || t.closed.Load() {
		return 0
	}
	ic := conns[t.pollNext.Add(1)%uint32(len(conns))]
	if !ic.up.Load() || ic.rc == nil || !ic.mu.TryLock() {
		return 0
	}
	if ic.err != nil {
		ic.mu.Unlock()
		return 0
	}
	ic.polled = 0
	ic.rc.Control(ic.pollFn)
	n, failed := ic.polled, ic.err != nil
	ic.mu.Unlock()
	if failed {
		// Wake the reader, which tears the connection down.
		ic.c.SetReadDeadline(time.Unix(1, 0))
	}
	return n
}

// pump reads until the socket is empty or the connection fails, delivering
// every frame the bytes complete, and returns how many it delivered. The
// caller holds mu; fd is the raw descriptor when rc is set. Only the reader
// goroutine may wait: a poller's slowed read is shortened but not delayed.
func (ic *inConn) pump(fd uintptr, wait bool) int {
	k := 0
	for ic.err == nil {
		var b []byte
		if ic.big != nil {
			b = ic.big[ic.bigN:]
		} else {
			b = ic.buf[ic.end:]
		}
		if inj := ic.t.inj; inj != nil {
			if d, slow := inj.slowRead(); slow {
				if wait {
					time.Sleep(d)
				}
				b = b[:min(len(b), 3)]
			}
		}
		var n int
		var err error
		if ic.rc != nil {
			n, err = rawRead(fd, b)
		} else {
			n, err = ic.c.Read(b)
		}
		if n > 0 {
			k += ic.consume(n)
			if n < len(b) {
				return k // the read emptied the socket
			}
			continue
		}
		if wouldBlock(err) {
			return k
		}
		if err == nil {
			err = io.EOF
		}
		ic.err = err
	}
	return k
}

// consume takes the n bytes a read just added and delivers every frame they
// complete, in order, returning how many. A frame too large for buf is read
// in place into its own buffer; a partial one moves to the front of buf.
func (ic *inConn) consume(n int) int {
	if ic.big != nil {
		if ic.bigN += n; ic.bigN < len(ic.big) {
			return 0
		}
		f := ic.big
		ic.big = nil
		return ic.deliver(f)
	}
	ic.end += n
	k, off := 0, 0
	for ic.err == nil && ic.end-off >= 4 {
		size := int(binary.LittleEndian.Uint32(ic.buf[off:]))
		if size == 0 || size > maxFrameLen {
			ic.t.logf("tcptransport: rank %d: bad frame length %d from rank %d", ic.t.cfg.Self, size, ic.src)
			ic.err = errBadFrame
			break
		}
		body := ic.buf[off+4 : ic.end]
		if len(body) < size {
			if 4+size > len(ic.buf) {
				ic.big = ic.frames.Make(size)
				ic.bigN = copy(ic.big, body)
				off = ic.end
			}
			break
		}
		f := ic.frames.Make(size)
		copy(f, body)
		off += 4 + size
		k += ic.deliver(f)
	}
	if off > 0 {
		ic.end = copy(ic.buf, ic.buf[off:ic.end])
	}
	return k
}

// deliver hands one frame to the deliver callback, unless the transport is
// closing.
func (ic *inConn) deliver(f []byte) int {
	if ic.t.closed.Load() {
		ic.err = ErrClosed
		return 0
	}
	ic.n++
	ic.t.deliver(f)
	return 1
}
