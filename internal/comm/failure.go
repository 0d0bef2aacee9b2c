// Fail-stop rank failure: injection (KillRank), heartbeat-based detection,
// and epoch-stamped membership.
//
// The failure model is fail-stop with no network partitions: a killed rank
// stops executing and its wire goes silent in both directions, atomically and
// permanently. Detection runs on each rank's progress goroutine: every rank
// broadcasts unsequenced heartbeats, tracks when it last heard *anything*
// from each peer, and suspects peers silent past SuspectAfter. The lowest
// live non-suspect rank acts as coordinator: it confirms a suspect dead,
// bumps the membership epoch, and broadcasts tagRankDead over the reliable
// in-order links. Because the coordinator is also the (new) wave root, every
// survivor is guaranteed to process the membership change before any probe of
// the restarted wave arrives on the same link.
//
// On applying a death, each survivor: marks the rank dead (its subsequent
// traffic is dropped unacked), clears the retransmit queue toward it, resets
// wave state, and invokes the onRankDead hook from which the recovery layer
// (internal/core) re-homes keys and replays logged in-flight data.
package comm

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// FDConfig parameterizes heartbeat failure detection.
type FDConfig struct {
	// Heartbeat is the interval between liveness beacons. Defaults to 2ms.
	Heartbeat time.Duration
	// SuspectAfter is how long a peer may stay silent before it is suspected
	// and, if this rank coordinates, confirmed dead. It must cover many
	// heartbeat intervals so that message-level faults (drops, delays) and
	// scheduler hiccups cannot produce false positives. Defaults to 150ms.
	SuspectAfter time.Duration
}

// EnableFailureDetection turns on fail-stop failure detection for the whole
// world. It implies the reliable link layer (detection and recovery assume
// in-order deduplicated delivery). Must be called before any rank starts.
func (w *World) EnableFailureDetection(cfg FDConfig) {
	if w.started.Load() {
		panic("comm: EnableFailureDetection must precede Start")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 150 * time.Millisecond
	}
	if len(w.procs) > 64 {
		// The dead-set gossip piggybacked on heartbeats is a 64-bit mask.
		panic("comm: failure detection supports at most 64 ranks")
	}
	w.fd = &cfg
	w.reliable = true
	if w.deadWire == nil {
		w.deadWire = make([]atomic.Bool, len(w.procs))
	}
}

// FailureDetectionEnabled reports whether EnableFailureDetection was called.
func (w *World) FailureDetectionEnabled() bool { return w.fd != nil }

// FailureDetectionOn reports whether this endpoint's world runs heartbeat
// failure detection (the per-Proc view of FailureDetectionEnabled, for layers
// that only hold the endpoint).
func (p *Proc) FailureDetectionOn() bool { return p.world.fd != nil }

// KillRank fail-stops rank r: its wire goes silent in both directions and its
// progress goroutine is torn down. The rank's onKilled hook (if any) runs
// first so the local runtime can abort and drain. Survivors notice the
// silence via heartbeat timeouts and confirm the death through the epoch
// protocol. Safe from any goroutine; idempotent.
func (w *World) KillRank(r int) {
	if w.fd == nil {
		panic("comm: KillRank requires EnableFailureDetection")
	}
	if w.net != nil {
		panic("comm: KillRank is in-process only; fail-stop a network rank by killing its OS process")
	}
	if w.deadWire[r].Swap(true) {
		return // already dead
	}
	p := w.procs[r]
	if f := p.onKilled; f != nil {
		f()
	}
	p.stopOnce.Do(func() { close(p.quit) })
}

// Deaths returns how many rank deaths have been confirmed (comm.rank_deaths).
func (w *World) Deaths() int64 { return w.deaths.Load() }

// WaveRestarts returns how many times a wave root re-initialized the
// termination reduction after a membership change (termdet.wave_restarts).
func (w *World) WaveRestarts() int64 { return w.waveRestarts.Load() }

// Epoch returns this rank's current membership epoch: the number of rank
// deaths it has applied. Safe from any goroutine.
func (p *Proc) Epoch() int64 { return p.epoch.Load() }

// DeadView reports whether this rank currently considers peer dead. Only
// meaningful with failure detection on; progress-goroutine view, so callers
// on other goroutines get an eventually consistent answer.
func (p *Proc) DeadView(peer int) bool {
	return p.world.deadWire != nil && p.world.deadWire[peer].Load()
}

// deadMask packs this rank's dead view into a bitmask for gossip.
func (p *Proc) deadMask() int64 {
	var mask int64
	for q, dead := range p.deadView {
		if dead {
			mask |= 1 << uint(q)
		}
	}
	return mask
}

// fdTick runs heartbeat emission and suspicion on the progress goroutine.
func (p *Proc) fdTick(now time.Time) {
	fd := p.world.fd
	if now.Sub(p.lastBeat) >= fd.Heartbeat {
		p.lastBeat = now
		mask := p.deadMask()
		for dst := range p.world.procs {
			if dst == p.rank || p.deadView[dst] {
				continue
			}
			// Heartbeats are unsequenced: they prove liveness, not order, and
			// must not occupy retransmit state. They gossip the sender's dead
			// set so a survivor that missed a rankDead broadcast (e.g. the
			// coordinator died mid-broadcast) still converges. b piggybacks
			// this rank's ready-depth load hint for the steal policy.
			p.world.transmit(dst, message{src: p.rank, tag: tagHeartbeat, a: mask, b: p.stealLoad()})
		}
	}
	// After global termination the run is semantically complete: peers that
	// finished and tore their wire down are not failures, and declaring
	// them dead would only generate noise (and spurious recovery) while
	// this rank drains its last acks. Keep emitting heartbeats (peers may
	// still be draining and must not suspect US) but stop suspecting.
	if p.terminated {
		return
	}
	anySuspect := false
	for q := range p.world.procs {
		p.suspected[q] = q != p.rank && !p.deadView[q] &&
			now.Sub(p.lastHeard[q]) >= fd.SuspectAfter
		anySuspect = anySuspect || p.suspected[q]
	}
	if !anySuspect {
		return
	}
	// The coordinator is the lowest live, non-suspect rank: if rank 0 died,
	// rank 1 (who suspects 0) takes over declaring deaths.
	for q := range p.world.procs {
		if !p.deadView[q] && !p.suspected[q] {
			if q != p.rank {
				return // someone lower coordinates
			}
			break
		}
	}
	for q := range p.world.procs {
		if p.suspected[q] {
			p.declareDead(q)
		}
	}
}

// declareDead confirms a suspect dead: epoch bump, broadcast, local apply.
// Runs only on the coordinator's progress goroutine.
func (p *Proc) declareDead(q int) {
	p.world.deaths.Add(1)
	// Broadcast BEFORE applying locally: applying triggers recovery, and
	// recovery's replayed application sends travel the same in-order links —
	// every survivor must see the membership change first.
	for dst := range p.world.procs {
		if dst == p.rank || p.deadView[dst] || dst == q {
			continue
		}
		p.post(dst, message{src: p.rank, tag: tagRankDead, a: int64(q)})
	}
	p.applyRankDead(q)
}

// applyGossip applies any deaths in a peer's gossiped dead mask that this
// rank has not seen yet.
func (p *Proc) applyGossip(mask int64) {
	if mask == 0 || p.deadView == nil {
		return
	}
	if mask&(1<<uint(p.rank)) != 0 {
		// A peer's dead set includes US: the membership moved on without this
		// rank (we were partitioned past the suspicion budget and later came
		// back). Our keys are already re-homed and our traffic is being
		// dropped; degrade to the fail-stop path instead of running split.
		p.selfFence()
		return
	}
	for q := range p.deadView {
		if mask&(1<<uint(q)) != 0 && !p.deadView[q] && q != p.rank {
			p.applyRankDead(q)
		}
	}
}

// selfFence escalates this rank into the fail-stop path after learning that
// the surviving membership has confirmed it dead: its wire goes silent
// (network mode) and the kill hook runs so the local runtime aborts and
// drains exactly as if the rank had been fail-stopped directly. Runs on the
// progress goroutine; idempotent.
func (p *Proc) selfFence() {
	if p.fenced {
		return
	}
	p.fenced = true
	w := p.world
	if w.net != nil && w.deadWire != nil {
		w.deadWire[p.rank].Store(true)
	}
	if f := p.onKilled; f != nil {
		f()
	}
}

// applyRankDead installs a confirmed death into this rank's membership view.
// Runs on the progress goroutine (coordinator locally, others via dispatch).
// The epoch is defined as the number of deaths applied, so every rank that
// has converged on the same membership agrees on the epoch regardless of the
// order in which it learned of the deaths.
func (p *Proc) applyRankDead(dead int) {
	if p.deadView[dead] {
		return // duplicate announcement
	}
	p.deadView[dead] = true
	epoch := int64(bits.OnesCount64(uint64(p.deadMask())))
	p.epoch.Store(epoch)
	if w := p.world; w.net != nil {
		// Over a real network the confirmed death must also silence the local
		// wire toward the corpse (retransmissions, heartbeats) and stop the
		// transport's reconnect loop from pursuing its address.
		if w.deadWire != nil {
			w.deadWire[dead].Store(true)
		}
		if pm, ok := w.net.(PeerMarker); ok {
			pm.MarkDead(dead)
		}
	}
	// Drop retransmit state toward the dead rank (nobody will ever ack it)
	// and reset the inbound link so stray state cannot leak.
	if p.sendLinks != nil {
		l := &p.sendLinks[dead]
		l.mu.Lock()
		for seq := range l.unacked {
			delete(l.unacked, seq)
		}
		l.mu.Unlock()
		p.world.linkDrained()
		p.recvLinks[dead] = recvLink{expected: 1}
	}
	// Restart the termination wave over the survivors: any in-flight round
	// is abandoned (its stamped replies will be discarded) and counters
	// contributed by the dead rank are forgotten via CountsExcluding.
	p.inRound = false
	p.havePrev = false
	p.owedStamp = 0
	if p.rank == p.root() {
		p.world.waveRestarts.Add(1)
	}
	// Clear thief-side steal state toward the corpse before the recovery
	// hook runs: a buffered donation from it is dropped (recovery re-homes
	// and re-executes the dead rank's work) and an unanswered request's
	// in-flight latch is released so this rank can steal elsewhere.
	p.stealOnPeerDead(dead)
	if f := p.onRankDead; f != nil {
		f(dead, int(epoch))
	}
	// Nudge the wave: this rank may already be quiescent.
	select {
	case p.qNotify <- struct{}{}:
	default:
	}
}

// maybePrune advertises per-sender dispatch counts when this rank is locally
// quiescent with an empty retransmit queue. At that instant every message it
// dispatched has been fully consumed by local task execution (no partially
// satisfied tasks exist at quiescence) and every resulting send has been
// acked, so the sender's replay-log prefix can never be needed again.
func (p *Proc) maybePrune() {
	if !p.pruneOn || p.hasUnacked() {
		return
	}
	for src := range p.world.procs {
		if src == p.rank || p.deadView != nil && p.deadView[src] {
			continue
		}
		if n := p.appDispatched[src]; n > p.pruneNotified[src] {
			p.pruneNotified[src] = n
			p.sendControl(src, tagPrune, n, 0, 0)
		}
	}
}

// hasUnacked reports whether any outbound message awaits an ack.
func (p *Proc) hasUnacked() bool {
	for dst := range p.sendLinks {
		if dst == p.rank {
			continue
		}
		l := &p.sendLinks[dst]
		l.mu.Lock()
		n := len(l.unacked)
		l.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}
