package comm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The reliable link layer: per-link sequence numbers, cumulative acks,
// adaptive retransmission, in-order deduplicated release to dispatch, and
// the stall watchdog. Every World runs it under every sequenced cross-rank
// message, whatever the transport; only self-sends bypass it.

// SetRetransmitTimeout adjusts the link layer's retransmission timeout
// (default 2ms). The link timer fires at half of it while a link holds
// unacked or out-of-order frames. Must be called before any Proc is started.
func (w *World) SetRetransmitTimeout(d time.Duration) {
	w.beforeStart("SetRetransmitTimeout")
	if d <= 0 {
		panic("comm: retransmit timeout must be positive")
	}
	w.rto = d
}

// SetStallHandler installs a watchdog: when a rank sees no inbound traffic
// for `after` while still holding undelivered or unacked messages, f fires
// once (per stall episode) with that rank's PendingSummary — surfacing a
// diagnostic instead of hanging silently. Must be called before any Proc is
// started.
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

	// busy mirrors len(unacked) != 0, written under mu. Batch appends read
	// it without the lock (batch.go, "Flush rule"), and so does the link
	// timer's re-check (armLinks).
	busy atomic.Bool

	// Adaptive retransmission timeout (Jacobson/Karels, RFC 6298 shape):
	// smoothed RTT and variance in nanoseconds, fed by ack latencies of
	// never-retransmitted sends (Karn). Zero until the first sample. Guarded
	// by mu.
	srtt   int64
	rttvar int64
}

// maxLinkRTO caps the adaptive retransmission timeout so a burst of delayed
// acks cannot park a link for good.
const maxLinkRTO = time.Second

// observeRTT folds one ack-latency sample into the link's RTT estimate.
// Caller holds l.mu.
func (l *sendLink) observeRTT(sample time.Duration) {
	s := int64(sample)
	if s <= 0 {
		return
	}
	if l.srtt == 0 {
		l.srtt = s
		l.rttvar = s / 2
		return
	}
	d := l.srtt - s
	if d < 0 {
		d = -d
	}
	l.rttvar += (d - l.rttvar) / 4
	l.srtt += (s - l.srtt) / 8
}

// rto returns the link's current retransmission timeout: SRTT + 4·RTTVAR,
// floored at the world's configured timeout (so a fast wire keeps today's
// behavior exactly) and capped at maxLinkRTO. Caller holds l.mu.
func (l *sendLink) rto(floor time.Duration) time.Duration {
	if l.srtt == 0 {
		return floor
	}
	rto := time.Duration(l.srtt + 4*l.rttvar)
	if rto < floor {
		return floor
	}
	if rto > maxLinkRTO {
		return maxLinkRTO
	}
	return rto
}

type pendingSend struct {
	msg   message
	born  time.Time // first transmission (stall detection)
	last  time.Time // last transmission attempt
	tries int
}

// recvLink is the per-source receiver state (rx-private).
type recvLink struct {
	expected int64 // next in-order sequence number wanted
	ooo      map[int64]message
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
// sequences the message and hands it to the wire, and the link going busy
// arms the link timer. Self-sends bypass the link layer.
//
// The link lock is held across transmit, here and in retransmit, for two
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
	now := time.Now()
	l.unacked = append(l.unacked, pendingSend{msg: m, born: now, last: now})
	if !l.busy.Load() {
		l.busy.Store(true) // before armLinks tests armed
		p.armLinks()
	}
	p.transmit(dst, m)
	l.mu.Unlock()
}

// receive runs the inbound half of the link layer: acks are consumed,
// sequenced messages are deduplicated and released to dispatch strictly
// in-order per link, and everything else goes straight through.
func (p *Proc) receive(m message) {
	if p.mem.dead != nil && m.src != p.rank {
		if p.mem.dead[m.src] {
			// A confirmed-dead rank's leftover traffic is dropped unacked and
			// uncounted; its data is regenerated by recovery re-execution.
			return
		}
		p.mem.lastHeard[m.src] = time.Now()
	}
	if m.tag == tagAck {
		p.handleAck(m)
		return
	}
	if m.seq == 0 { // unsequenced: self-send, heartbeat or telemetry
		p.dispatch(m)
		return
	}
	p.lastActivity = time.Now()
	l := &p.recvLinks[m.src]
	switch {
	case m.seq < l.expected:
		// Duplicate (retransmit whose original arrived, or a wire dup):
		// drop, but re-ack so the sender stops retransmitting.
	case m.seq > l.expected:
		// Gap: hold out-of-order arrivals, ack the contiguous prefix; the
		// link timer watches the hold for a stall.
		if l.ooo == nil {
			l.ooo = map[int64]message{}
		}
		l.ooo[m.seq] = m
		p.armLinks()
	default:
		// In-order delivery is the only inbound event that counts as forward
		// progress; it re-arms the stall latch so a *second* stall episode is
		// reported too. Duplicates and out-of-order holds above deliberately
		// do not — they stream in constantly on a half-dead link.
		p.stalled = false
		p.dispatch(m)
		l.expected++
		for {
			nxt, ok := l.ooo[l.expected]
			if !ok {
				break
			}
			delete(l.ooo, l.expected)
			p.dispatch(nxt)
			l.expected++
		}
	}
	// Cumulative ack of everything up to the contiguous prefix. Acks are
	// unsequenced and cross the faulty wire like any other message; a lost
	// ack is recovered by the sender's retransmit provoking a re-ack.
	if mx := p.world.mx; mx != nil {
		mx.acks.Inc(p.rank)
	}
	p.emit(m.src, tagAck, l.expected-1, 0, 0, nil)
}

// handleAck releases the pending sends up to the cumulative ack point m.a, a
// prefix of the seq-ordered queue. The stall latch only clears when the ack
// made progress — empty prefix re-acks stream in constantly on a dead link
// and must not reset it. An ack that empties the link ships the batch that
// gathered behind it (batch.go, "Flush rule").
//
// Each released send that was never retransmitted contributes an RTT sample
// to the link's adaptive retransmission timeout (Karn's algorithm: a
// retransmitted message's ack is ambiguous and must not be sampled).
func (p *Proc) handleAck(m message) {
	now := time.Now()
	p.lastActivity = now
	l := &p.sendLinks[m.src]
	l.mu.Lock()
	k := 0
	for ; k < len(l.unacked) && l.unacked[k].msg.seq <= m.a; k++ {
		ps := &l.unacked[k]
		if ps.tries == 0 {
			l.observeRTT(now.Sub(ps.born))
		}
		if ps.msg.slab {
			// Acked ⇒ the receiver dispatched the frame (acks follow
			// dispatch); any duplicate still in flight is dropped by
			// sequence number without reading the payload, so the slab is
			// safely reusable. Lock order l.mu → slabMu is acyclic.
			p.slabPut(ps.msg.payload)
		}
	}
	n := copy(l.unacked, l.unacked[k:])
	clear(l.unacked[n:]) // drop the released payload references
	l.unacked = l.unacked[:n]
	l.busy.Store(n != 0)
	l.mu.Unlock()
	if k == 0 {
		return
	}
	p.stalled = false
	if n != 0 {
		return
	}
	p.flushBatch(m.src, FlushIdle)
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

// retransmit resends every unacked message older than the link's adaptive
// RTO (SRTT + 4·RTTVAR from observed ack latencies, floored at the world's
// configured timeout — see sendLink.rto).
func (p *Proc) retransmit() {
	now := time.Now()
	floor := p.world.rto
	for dst := range p.sendLinks { // self-sends never enter a link
		l := &p.sendLinks[dst]
		resent := 0
		l.mu.Lock()
		rto := l.rto(floor)
		for i := range l.unacked {
			if ps := &l.unacked[i]; now.Sub(ps.last) >= rto {
				ps.last = now
				ps.tries++
				resent++
				p.transmit(dst, ps.msg) // under l.mu: see post
			}
		}
		l.mu.Unlock()
		if mx := p.world.mx; mx != nil && resent > 0 {
			mx.retrans.Add(p.rank, uint64(resent))
		}
	}
}

// resetLink forgets both directions of the link to a dead peer: its
// retransmit queue (nobody will ever ack it) and any inbound state, so
// stray state cannot leak. A batch still buffered toward the peer stays
// where it is: its activations are excluded from the wave with the peer's
// counts, and the sender's replay log re-homes them under fault tolerance.
func (p *Proc) resetLink(peer int) {
	l := &p.sendLinks[peer]
	l.mu.Lock()
	clear(l.unacked)
	l.unacked = l.unacked[:0]
	l.busy.Store(false)
	l.mu.Unlock()
	p.world.linkDrained()
	p.recvLinks[peer] = recvLink{expected: 1}
}

// LinkRTO reports the current (adaptive) retransmission timeout of this
// rank's link toward dst — the configured floor until the link has observed
// ack latencies. Safe from any goroutine.
func (p *Proc) LinkRTO(dst int) time.Duration {
	l := &p.sendLinks[dst]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rto(p.world.rto)
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

// linksPending reports whether a link holds unacked or out-of-order frames:
// what the link timer runs for. Under rx.
func (p *Proc) linksPending() bool {
	for i := range p.recvLinks {
		if len(p.recvLinks[i].ooo) > 0 || p.sendLinks[i].busy.Load() {
			return true
		}
	}
	return false
}

// armLinks arms the link timer unless it is pending already. post calls it
// after it sets busy, and onLinkTimer clears armed before it re-checks the
// links: with sequentially consistent atomics one of the two sees the
// other's write, so a busy link never waits without a timer.
func (p *Proc) armLinks() {
	if !p.armed.Load() && !p.armed.Swap(true) {
		p.linkTimer.Reset(p.world.rto / 2)
	}
}

// onLinkTimer is the link timer's callback, every rto/2 while armed: it
// retransmits, runs the stall check, and re-arms while a link still holds
// unacked or out-of-order frames — after termination too, since Drain and a
// peer whose ack was lost depend on it. After Shutdown, or once this rank
// fail-stopped, it does nothing and stays disarmed.
func (p *Proc) onLinkTimer() {
	p.rx.Lock()
	p.armed.Store(false) // before the re-check: see armLinks
	if !p.world.closed.Load() && !p.halted.Load() {
		p.retransmit()
		p.checkStall()
		if p.linksPending() {
			p.armLinks()
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

// checkStall runs on the link timer, under the receive lock, so only while
// a link holds unacked or out-of-order frames — the only state a stall can
// be in. A stall is a
// lack of *progress*, not of traffic: a dead link still exchanges
// retransmissions and prefix re-acks forever, so the primary signal is a
// send that has stayed unacked past the threshold since it was first posted.
// Receive-side silence while unacked sends or out-of-order messages sit
// buffered is the complementary signal.
func (p *Proc) checkStall() {
	w := p.world
	if w.onStall == nil || w.stallAfter <= 0 || p.terminated || p.stalled {
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
	if !stuck && now.Sub(p.lastActivity) >= w.stallAfter {
		stuck = p.linksPending()
	}
	if !stuck {
		return
	}
	p.stalled = true // latched until an ack or in-order delivery arrives
	w.onStall(p.rank, p.PendingSummary())
}

// PendingSummary describes this rank's link-layer and detector state for
// hang diagnosis: per-link unacked sends, out-of-order receive buffers, and
// the termination counters. Intended to be read from the stall handler (it
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
		var oldest int
		for i := range l.unacked {
			oldest = max(oldest, l.unacked[i].tries)
		}
		l.mu.Unlock()
		if n > 0 {
			clean = false
			fmt.Fprintf(&b, "\n  ->%d: %d unacked send(s), max %d attempt(s)", dst, n, oldest)
		}
	}
	for src := range p.recvLinks {
		l := &p.recvLinks[src]
		if len(l.ooo) > 0 {
			clean = false
			fmt.Fprintf(&b, "\n  <-%d: %d out-of-order message(s) buffered, waiting for seq %d", src, len(l.ooo), l.expected)
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
// while a peer still needs a retransmission (e.g. of the termination
// broadcast). Links toward confirmed-dead ranks are already cleared by the
// membership protocol and do not block draining. Drain does not poll: it
// sleeps until a link's retransmit queue empties (linkDrained) or the
// timeout expires.
func (w *World) Drain(timeout time.Duration) bool {
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

// linkDrained wakes every waiting Drain: a send link's retransmit queue
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
