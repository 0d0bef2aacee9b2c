package comm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The reliable link layer: per-link sequence numbers, cumulative acks, a
// resend after each connection cut, in-order deduplicated release to
// dispatch, and the stall watchdog. Every World runs it under every
// sequenced cross-rank message, whatever the transport; only self-sends
// bypass it.
//
// Loss only at a cut. A transport keeps each sender's frames in order and
// loses a frame only at a cut, which it reports as PeerDown (or
// PeerDialFailed) before the PeerUp that ends it (Transport). So there is no
// retransmission timer: each link keeps its unacked frames, and on the
// PeerUp that ends a cut toward dst it sends them all again, in sequence
// order, and restates its cumulative ack for dst (resend). The receiver
// dispatches only the frame it expects next and drops any other: a
// duplicate, or a frame past a gap that the cut left. Both are safe to drop
// because the resend makes each connection's stream contiguous from at or
// below the expected frame.
//
// Acks ride on frames. Every frame's header carries the cumulative ack of
// the reverse link (transport.go), stamped when the frame is transmitted, and
// receive applies it after the frame's own dispatch, so a batch that the ack
// ships already carries the ack for the frame just dispatched. A standalone
// ack frame (tagAck) is sent only when nothing else carries the ack. An
// in-order delivery leaves an ack debt, which the first of these pays:
//   - any frame to that peer (transmit stamps the ack);
//   - the next Proc.Poll round of the rank's workers;
//   - termination, World.Drain and World.Shutdown;
//   - the link timer, within ackDelay.
// The debt is paid at once whenever no worker of the rank is awake to poll
// or send (every worker parked, or no runtime reports, as in a bare comm
// world; oweAck), and after termination.

// ackDelay is the longest an owed ack waits for a frame to carry it before
// the link timer sends it alone, and the link timer's period while it
// watches for a stall.
const ackDelay = time.Millisecond

// SetStallHandler installs a watchdog: when a rank's send stays unacked for
// `after`, f fires once (per stall episode) with that rank's PendingSummary —
// surfacing a diagnostic instead of hanging silently. Must be called before
// any Proc is started.
func (w *World) SetStallHandler(after time.Duration, f func(rank int, summary string)) {
	w.beforeStart("SetStallHandler")
	w.stallAfter = after
	w.onStall = f
}

// sendLink is the reliable link layer's per-destination sender state.
type sendLink struct {
	mu      sync.Mutex
	nextSeq int64
	unacked []pendingSend // in seq order: a cumulative ack releases a prefix

	// busy mirrors len(unacked) != 0 and full mirrors len(unacked) >=
	// sendWindow, both written under mu. Batch appends read full without the
	// lock (batch.go, "Flush rule"); the link timer's re-check (armLinks) and
	// Drain read busy.
	busy atomic.Bool
	full atomic.Bool

	// resend is set by the PeerUp that ends a cut toward the peer, for the
	// link timer to serve (peerEvent).
	resend atomic.Bool
}

// sendWindow is how many unacked frames a link holds before batch appends
// toward it gather instead of leaving (batch.go, "Flush rule").
const sendWindow = 2

type pendingSend struct {
	msg  message
	born time.Time // first transmission (stall detection)
}

// recvLink is the per-source receiver state. expected is rx-private; the
// acks are read by any goroutine that transmits toward the source.
type recvLink struct {
	expected int64 // next in-order sequence number wanted

	// through is expected-1, published before each in-order dispatch: the
	// cumulative ack every frame toward the source carries. told is the
	// highest ack stamped on a frame handed to the wire. owed is the ack
	// point an in-order delivery left owed (oweAck): the debt is owed >
	// told. through can run ahead of owed while a frame is dispatched.
	through atomic.Int64
	told    atomic.Int64
	owed    atomic.Int64
}

// stamp returns the ack to carry on a frame toward the link's source and
// records it as told. Safe from any goroutine.
func (l *recvLink) stamp() int64 {
	a := l.through.Load()
	for {
		t := l.told.Load()
		if t >= a || l.told.CompareAndSwap(t, a) {
			return a
		}
	}
}

// initLinks allocates the link state toward and from each of n ranks.
func (p *Proc) initLinks(n int) {
	p.sendLinks = make([]sendLink, n)
	p.recvLinks = make([]recvLink, n)
	for i := range p.recvLinks {
		p.recvLinks[i].expected = 1
	}
}

// post is the wire entry point for all sequenced outbound messages: it
// sequences the message and hands it to the wire, and with a stall handler
// installed the link going busy arms the link timer. Self-sends bypass the
// link layer.
//
// The link lock is held across transmit, here and in resend, for two
// reasons: transmit copies a batch frame's slab into the wire frame, and the
// ack that returns the slab to the pool (handleAck) takes the lock too, so no
// copy reads a slab already reused; and frames leave in sequence order.
func (p *Proc) post(dst int, m message) {
	if dst == p.rank {
		p.enqueue(m)
		return
	}
	l := &p.sendLinks[dst]
	l.mu.Lock()
	l.nextSeq++
	m.seq = l.nextSeq
	l.unacked = append(l.unacked, pendingSend{msg: m, born: time.Now()})
	if !l.busy.Load() {
		l.busy.Store(true) // before armLinks tests armed
		if p.world.onStall != nil {
			p.armLinks()
		}
	}
	if len(l.unacked) == sendWindow {
		l.full.Store(true)
	}
	p.transmit(dst, m)
	l.mu.Unlock()
}

// receive runs the inbound half of the link layer: sequenced messages are
// released to dispatch strictly in order per link, everything else goes
// straight through, and the ack every frame carries is applied after the
// frame's own dispatch.
func (p *Proc) receive(m message) {
	if p.mem.dead != nil && m.src != p.rank {
		if p.mem.dead[m.src] {
			// A confirmed-dead rank's leftover traffic is dropped unacked and
			// uncounted; its data is regenerated by recovery re-execution.
			return
		}
		p.mem.lastHeard[m.src] = time.Now()
	}
	if m.seq == 0 { // unsequenced: self-send, ack, heartbeat or telemetry
		p.dispatch(m)
		p.handleAck(m.src, m.ack)
		return
	}
	l := &p.recvLinks[m.src]
	if m.seq != l.expected {
		// A duplicate, or a frame past a gap a cut left: drop it. The
		// sender's resend after the cut restates every frame from its
		// oldest unacked one, in order, so nothing dropped here is missed.
		p.handleAck(m.src, m.ack)
		return
	}
	// In-order delivery is the only inbound event that counts as forward
	// progress; it re-arms the stall latch so a *second* stall episode is
	// reported too. The ack point moves before the dispatch, so whatever the
	// handler sends back carries the ack of the frame it handles.
	p.stalled = false
	l.through.Store(l.expected)
	l.expected++
	p.dispatch(m)
	p.handleAck(m.src, m.ack)
	p.oweAck(m.src)
}

// oweAck settles the ack of an in-order delivery from src, under rx. A frame
// sent to src meanwhile already carried it. Otherwise, while a worker is
// awake (SetAwake) and before termination, it stays owed: the worker polls
// or sends before long, and the link timer pays it within ackDelay at the
// latest. With every worker parked, none reporting, or after termination,
// it is sent at once.
func (p *Proc) oweAck(src int) {
	l := &p.recvLinks[src]
	if l.through.Load() <= l.told.Load() {
		return
	}
	if p.terminated || p.awake == nil || !p.awake() {
		p.sendAck(src)
		return
	}
	l.owed.Store(l.through.Load())
	p.ackOwed.Store(true) // after owed: see payAcks
	p.armLinks()
}

// sendAck sends src a standalone ack frame; transmit stamps the ack on it.
// Safe from any goroutine.
func (p *Proc) sendAck(src int) {
	if mx := p.world.mx; mx != nil {
		mx.acks.Inc(p.rank)
	}
	p.emit(src, tagAck, 0, 0, 0, nil)
}

// payAcks sends a standalone ack on every link that still owes one, and
// with all set, also on every link whose frames were dispatched further
// than any frame toward its source told: termination, Drain and Shutdown
// leave no ack behind, the ack of a frame being dispatched included. The
// flag is cleared before the links are read, and oweAck sets owed before the
// flag, so an ack left owed meanwhile is paid here or keeps the flag set.
// Safe from any goroutine.
func (p *Proc) payAcks(all bool) {
	p.ackOwed.Store(false)
	for src := range p.recvLinks {
		l := &p.recvLinks[src]
		due := l.owed.Load()
		if all {
			due = l.through.Load()
		}
		if due > l.told.Load() {
			p.sendAck(src)
		}
	}
}

// handleAck releases the pending sends toward src up to the cumulative ack
// point, a prefix of the seq-ordered queue. The stall latch only clears when
// the ack made progress — the same ack point streams in on every frame, and
// re-acks stream in constantly on a dead link, so neither may reset it. An
// ack that takes the link below sendWindow unacked frames ships the batch
// that gathered behind it (batch.go, "Flush rule").
func (p *Proc) handleAck(src int, ack int64) {
	if ack <= 0 { // a self-send, or nothing from src dispatched yet
		return
	}
	l := &p.sendLinks[src]
	l.mu.Lock()
	if len(l.unacked) == 0 || l.unacked[0].msg.seq > ack {
		l.mu.Unlock()
		return
	}
	k := 0
	for ; k < len(l.unacked) && l.unacked[k].msg.seq <= ack; k++ {
		if ps := &l.unacked[k]; ps.msg.slab {
			// Acked ⇒ the receiver holds the frame in order, and any
			// duplicate still in flight is dropped by sequence number; the
			// wire carried copies made under l.mu, so the slab is safely
			// reusable. Lock order l.mu → slabMu is acyclic.
			p.slabPut(ps.msg.payload)
		}
	}
	n := copy(l.unacked, l.unacked[k:])
	clear(l.unacked[n:]) // drop the released payload references
	l.unacked = l.unacked[:n]
	l.busy.Store(n != 0)
	l.full.Store(n >= sendWindow)
	l.mu.Unlock()
	p.stalled = false
	if n >= sendWindow {
		return
	}
	p.flushBatch(src, FlushIdle)
	if l.busy.Load() {
		return // the flush (or another sender) put the link back to work
	}
	p.world.linkDrained()
	// A quiescent rank that deferred its prune notices behind this link's
	// unacked sends gets no further quiescence notification.
	if p.det.Quiescent() {
		p.maybePrune()
	}
}

// peerEvent is the transport's event callback for this rank (Start). A
// PeerUp ends a cut, so it has the link timer resend — not the transport
// goroutine that reports, so Send is never re-entered from it. Every event
// then goes to the world's observer (SetPeerEventHook).
func (p *Proc) peerEvent(ev PeerEvent) {
	if ev.Kind == PeerUp && ev.Peer >= 0 && ev.Peer < len(p.sendLinks) && ev.Peer != p.rank {
		p.sendLinks[ev.Peer].resend.Store(true) // before the timer runs: see onLinkTimer
		p.armed.Store(true)
		p.linkTimer.Reset(0)
	}
	if f := p.world.peerHook.Load(); f != nil && *f != nil {
		(*f)(ev)
	}
}

// resend sends every unacked frame toward dst again, in sequence order, after
// a cut on the link: the frames lost in it are among them. It stops at a
// frame the transport refuses, which cuts the link again: the PeerUp that
// ends that cut resends from the oldest unacked frame anyway. With nothing
// unacked it restates the cumulative ack for dst instead, since an ack frame
// lost in the cut has no other carrier. Under rx, on the link timer.
func (p *Proc) resend(dst int) {
	l := &p.sendLinks[dst]
	l.mu.Lock()
	n := 0
	for n < len(l.unacked) && p.transmit(dst, l.unacked[n].msg) == nil { // under l.mu: see post
		n++
	}
	idle := len(l.unacked) == 0
	l.mu.Unlock()
	if idle && p.recvLinks[dst].through.Load() > 0 {
		p.sendAck(dst)
	}
	if mx := p.world.mx; mx != nil && n > 0 {
		mx.retrans.Add(p.rank, uint64(n))
	}
}

// resetLink forgets both directions of the link to a dead peer: its
// unacked queue (nobody will ever ack it) and any inbound state, so
// stray state cannot leak. A batch still buffered toward the peer stays
// where it is: its activations are excluded from the wave with the peer's
// counts, and the sender's replay log re-homes them under fault tolerance.
func (p *Proc) resetLink(peer int) {
	l := &p.sendLinks[peer]
	l.mu.Lock()
	clear(l.unacked)
	l.unacked = l.unacked[:0]
	l.busy.Store(false)
	l.full.Store(false)
	l.mu.Unlock()
	p.world.linkDrained()
	r := &p.recvLinks[peer]
	r.expected = 1
	r.through.Store(0)
	r.told.Store(0)
	r.owed.Store(0)
}

// hasUnacked reports whether any outbound message awaits an ack. Safe from
// any goroutine.
func (p *Proc) hasUnacked() bool {
	for i := range p.sendLinks {
		if p.sendLinks[i].busy.Load() {
			return true
		}
	}
	return false
}

// armLinks arms the link timer unless it is pending already. post calls it
// after it sets busy, and onLinkTimer clears armed before it re-checks the
// links: with sequentially consistent atomics one of the two sees the
// other's write, so a busy link watched for a stall never waits without a
// timer. oweAck calls it under rx, as the callback runs, so an owed ack
// never waits without one either.
func (p *Proc) armLinks() {
	if !p.armed.Load() && !p.armed.Swap(true) {
		p.linkTimer.Reset(ackDelay)
	}
}

// onLinkTimer is the link timer's callback. It resends on the links whose
// cut ended (peerEvent fires it at once for that), pays the owed acks, and,
// with a stall handler installed, runs the stall check and re-arms while a
// link holds unacked frames. After Shutdown, or once this rank fail-stopped,
// it does nothing and stays disarmed.
func (p *Proc) onLinkTimer() {
	p.rx.Lock()
	p.armed.Store(false) // before the re-check: see armLinks
	if !p.world.closed.Load() && !p.halted.Load() {
		for dst := range p.sendLinks {
			if p.sendLinks[dst].resend.Swap(false) {
				p.resend(dst)
			}
		}
		if p.ackOwed.Load() {
			p.payAcks(false)
		}
		if p.world.onStall != nil {
			p.checkStall()
			if p.hasUnacked() {
				p.armLinks()
			}
		}
	}
	p.unlockRx()
}

// stopTimers stops this rank's timers (Shutdown, failStop). A callback that
// raced the stop finds the wire closed or the rank halted and does nothing.
func (p *Proc) stopTimers() {
	p.linkTimer.Stop()
	if p.launched.Load() && p.beat != nil {
		p.beat.Stop()
	}
}

// checkStall runs on the link timer, under the receive lock, while a stall
// handler is installed and a link holds unacked frames — the only state a
// stall can be in. A stall is a lack of *progress*, not of traffic: a send
// that has stayed unacked past the threshold since it was first posted.
func (p *Proc) checkStall() {
	w := p.world
	if w.stallAfter <= 0 || p.terminated || p.stalled {
		return
	}
	now := time.Now()
	stuck := false
	for i := range p.sendLinks {
		l := &p.sendLinks[i]
		l.mu.Lock()
		// The queue is in post order, so its head is the oldest send.
		stuck = stuck || len(l.unacked) > 0 && now.Sub(l.unacked[0].born) >= w.stallAfter
		l.mu.Unlock()
	}
	if !stuck {
		return
	}
	p.stalled = true // latched until an ack or in-order delivery arrives
	w.onStall(p.rank, p.PendingSummary())
}

// PendingSummary describes this rank's link-layer and detector state for
// hang diagnosis: per-link unacked sends and the termination counters. Intended to be read from the stall handler (it
// runs under the rank's receive lock) or after Shutdown; concurrent use
// while the rank is live may observe torn receiver state.
func (p *Proc) PendingSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rank %d:", p.rank)
	if p.det != nil {
		fmt.Fprintf(&b, " %s;", p.det.DebugString())
	}
	if p.dropped > 0 {
		fmt.Fprintf(&b, " dropped %d malformed or unroutable message(s);", p.dropped)
	}
	clean := true
	for dst := range p.sendLinks {
		l := &p.sendLinks[dst]
		l.mu.Lock()
		n := len(l.unacked)
		var age time.Duration
		if n > 0 {
			age = time.Since(l.unacked[0].born)
		}
		l.mu.Unlock()
		if n > 0 {
			clean = false
			fmt.Fprintf(&b, "\n  ->%d: %d unacked send(s), oldest posted %v ago", dst, n, age.Round(time.Microsecond))
		}
	}
	if clean {
		b.WriteString(" all links clean")
	}
	return b.String()
}

// Drain blocks until every sequenced outbound message from this world's
// local ranks has been cumulatively acked by its peer, or until timeout;
// it reports whether the links drained clean. Multi-process runs call this
// between Wait and Shutdown so a process does not tear its sockets down
// while a peer still needs a resend (e.g. of the termination broadcast). Links toward confirmed-dead ranks are already cleared by the
// membership protocol and do not block draining. Drain does not poll: it
// sleeps until a link's unacked queue empties (linkDrained) or the
// timeout expires. It first pays the acks the local ranks owe, which the
// peers' own Drain may be waiting for.
func (w *World) Drain(timeout time.Duration) bool {
	for _, p := range w.local {
		p.payAcks(true)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		// Register before checking: a link that empties after the check
		// finds the channel and closes it (linkDrained), one that emptied
		// before the registration is seen by the check.
		w.drainMu.Lock()
		if w.drainWait == nil {
			w.drainWait = make(chan struct{})
		}
		emptied := w.drainWait
		w.drainMu.Unlock()
		if !w.hasUnacked() {
			return true
		}
		select {
		case <-emptied:
		case <-deadline.C:
			return false
		}
	}
}

// hasUnacked reports whether any launched local rank still awaits an ack. A
// fenced rank's wire is silent for good, so it has nothing left to drain.
func (w *World) hasUnacked() bool {
	for _, p := range w.local {
		if p.launched.Load() && !p.DeadView(p.rank) && p.hasUnacked() {
			return true
		}
	}
	return false
}

// linkDrained wakes every waiting Drain: a send link's unacked queue
// just emptied (its last pending send was acked, or its peer was confirmed
// dead). Costs one uncontended lock when nobody is draining.
func (w *World) linkDrained() {
	w.drainMu.Lock()
	if w.drainWait != nil {
		close(w.drainWait)
		w.drainWait = nil
	}
	w.drainMu.Unlock()
}
