// Fail-stop rank failure: injection (KillRank), heartbeat-based detection,
// and epoch-stamped membership.
//
// The failure model is fail-stop with no network partitions: a killed rank
// stops executing and its wire goes silent in both directions, atomically and
// permanently. Detection runs under each rank's receive lock (heartbeats and
// suspicion on the heartbeat timer, which fires every FDConfig.Heartbeat and
// exists only with failure detection on; announcements on the goroutine that
// delivered them): every rank broadcasts unsequenced heartbeats, tracks when
// it last heard *anything* from each peer, and suspects peers silent past
// SuspectAfter. The lowest
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
//
// A fail-stopped rank (killed, or told by the membership that it was
// declared dead) leaves the wave: it stops its timers, and its first
// quiescence after the fence — its runtime drained — is its local
// termination.
package comm

import (
	"fmt"
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

// membership is one rank's failure-detection state. epoch is atomic so
// applications can read it from any goroutine (Epoch); everything else is
// rx-private. dead is this rank's view of confirmed-dead
// membership (nil without failure detection), lastHeard the per-peer
// liveness horizon.
type membership struct {
	epoch     atomic.Int64
	dead      []bool
	lastHeard []time.Time
}

// init sizes the view for n ranks; nobody is suspect for a grace period.
func (m *membership) init(n int) {
	m.dead = make([]bool, n)
	m.lastHeard = make([]time.Time, n)
	now := time.Now()
	for i := range m.lastHeard {
		m.lastHeard[i] = now
	}
}

// EnableFailureDetection turns on fail-stop failure detection for the whole
// world. Must be called before any rank starts.
func (w *World) EnableFailureDetection(cfg FDConfig) {
	w.beforeStart("EnableFailureDetection")
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
}

// FailureDetectionEnabled reports whether EnableFailureDetection was called.
func (w *World) FailureDetectionEnabled() bool { return w.fd != nil }

// FailureDetectionOn reports whether this endpoint's world runs heartbeat
// failure detection (the per-Proc view of FailureDetectionEnabled, for layers
// that only hold the endpoint).
func (p *Proc) FailureDetectionOn() bool { return p.world.fd != nil }

// SetOnRankDead installs a hook invoked under the rank's receive lock after this
// rank has confirmed a peer's death and updated its membership view (links to
// the dead rank reset, epoch bumped, wave state cleared). Recovery layers
// redirect logged in-flight data from here. Must be called before Start.
func (p *Proc) SetOnRankDead(f func(dead, epoch int)) { p.onRankDead = f }

// SetOnKilled installs a hook invoked when this rank itself is fail-stopped
// (World.KillRank, or the membership told it that it was declared dead),
// once its wire is silent.
// It may run on any goroutine. Must be called before Start.
func (p *Proc) SetOnKilled(f func()) { p.onKilled = f }

// KillRank fail-stops local rank r (failStop). Survivors notice the silence
// via heartbeat timeouts and confirm the death through the epoch protocol. A
// rank of another process is fail-stopped by killing that process. Safe from
// any goroutine; idempotent.
func (w *World) KillRank(r int) {
	p := w.procs[r]
	if w.fd == nil || p == nil {
		panic("comm: KillRank needs EnableFailureDetection and a local rank")
	}
	p.failStop()
}

// failStop is the fail-stop path, for KillRank and for a rank that learns
// the membership confirmed it dead: the fence a confirmed death puts up
// (fence) silences its wire in both directions, the kill hook runs so the
// local runtime aborts and drains, and its timers stop. Its first quiescence
// after the fence is its local termination, and it may be quiescent already,
// so that notification is owed at once. Safe under the receive lock and from
// any goroutine; idempotent.
//
// A rank that another rank of its process fenced (a false death confirmed
// in-process) has not fail-stopped: it keeps its timers, and like a rank cut
// off by a partition it suspects every peer and recovers their keys.
func (p *Proc) failStop() {
	if p.halted.Swap(true) {
		return // already halted
	}
	p.world.fence(p.rank)
	if f := p.onKilled; f != nil {
		f()
	}
	p.stopTimers()
	p.oweQuiescence()
}

// fence silences the wire to and from rank r in this world — every
// transmission and delivery touching it is dropped from now on — and tells
// each local transport to stop pursuing it. It reports whether r was live.
func (w *World) fence(r int) bool {
	if w.deadWire[r].Swap(true) {
		return false
	}
	for _, p := range w.local {
		if pm, ok := p.tr.(PeerMarker); ok {
			pm.MarkDead(r)
		}
	}
	return true
}

// wireDead reports whether a transmission between src and dst touches a
// fenced rank.
func (w *World) wireDead(src, dst int) bool {
	return w.deadWire[src].Load() || w.deadWire[dst].Load()
}

// Deaths returns how many rank deaths have been confirmed (comm.rank_deaths).
func (w *World) Deaths() int64 { return w.deaths.Load() }

// WaveRestarts returns how many times a wave root re-initialized the
// termination reduction after a membership change (termdet.wave_restarts).
func (w *World) WaveRestarts() int64 { return w.waveRestarts.Load() }

// Epoch returns this rank's current membership epoch: the number of rank
// deaths it has applied. Safe from any goroutine.
func (p *Proc) Epoch() int64 { return p.mem.epoch.Load() }

// DeadView reports whether this rank currently considers peer dead. Only
// meaningful with failure detection on; it reads the world's fence, so
// callers outside the receive lock get an eventually consistent answer.
func (p *Proc) DeadView(peer int) bool {
	return p.world.deadWire[peer].Load()
}

// deadMask packs this rank's dead view into a bitmask for gossip.
func (p *Proc) deadMask() int64 {
	var mask int64
	for q, dead := range p.mem.dead {
		if dead {
			mask |= 1 << uint(q)
		}
	}
	return mask
}

// fdTick is the heartbeat timer's callback, every FDConfig.Heartbeat until
// Shutdown or this rank's fence: under the receive lock, it emits a
// heartbeat, runs suspicion and re-arms.
func (p *Proc) fdTick() {
	p.rx.Lock()
	defer p.unlockRx()
	fd, mem, now := p.world.fd, &p.mem, time.Now()
	if p.world.closed.Load() || p.halted.Load() {
		return
	}
	p.beat.Reset(fd.Heartbeat)
	// Heartbeats prove liveness, not order, and occupy no retransmit state.
	// They gossip the sender's dead set so a survivor that missed a rankDead
	// broadcast (e.g. the coordinator died mid-broadcast) still converges; b
	// piggybacks this rank's ready-depth load hint for the steal policy.
	p.broadcast(mem.dead, -1, tagHeartbeat, p.deadMask(), p.stealLoad(), 0, nil)
	// After global termination the run is semantically complete: peers that
	// finished and tore their wire down are not failures, and declaring
	// them dead would only generate noise (and spurious recovery) while
	// this rank drains its last acks. Keep emitting heartbeats (peers may
	// still be draining and must not suspect US) but stop suspecting.
	if p.terminated {
		return
	}
	suspect := func(q int) bool {
		return q != p.rank && !mem.dead[q] && now.Sub(mem.lastHeard[q]) >= fd.SuspectAfter
	}
	// The coordinator is the lowest live, non-suspect rank: if rank 0 died,
	// rank 1 (who suspects 0) takes over declaring deaths.
	for q := range p.world.procs {
		if !mem.dead[q] && !suspect(q) {
			if q != p.rank {
				return // someone lower coordinates
			}
			break
		}
	}
	for q := range p.world.procs {
		if suspect(q) {
			p.declareDead(q)
		}
	}
}

// declareDead confirms a suspect dead: epoch bump, broadcast, local apply.
// Runs only on the coordinator, from its heartbeat timer.
func (p *Proc) declareDead(q int) {
	p.world.deaths.Add(1)
	// Broadcast BEFORE applying locally: applying triggers recovery, and
	// recovery's replayed application sends travel the same in-order links —
	// every survivor must see the membership change first.
	p.broadcast(p.mem.dead, q, tagRankDead, int64(q), 0, 0, nil)
	p.applyRankDead(q)
}

// handleHeartbeat: receive() already refreshed lastHeard. The dead set
// gossiped in a converges membership if a rankDead was missed; b carries
// the sender's load hint for the steal policy.
func (p *Proc) handleHeartbeat(m message) {
	p.noteLoadHint(m.src, m.b)
	p.applyGossip(m.a)
}

// handleRankDead applies a coordinator's death announcement. An announcement
// naming no rank of this world, or reaching a rank without failure
// detection, is remote garbage: it is dropped and reported, never indexed.
func (p *Proc) handleRankDead(m message) {
	if p.mem.dead == nil || m.a < 0 || m.a >= int64(len(p.mem.dead)) {
		p.reject(fmt.Errorf("comm: rank %d: dropped rank-dead message from rank %d naming rank %d", p.rank, m.src, m.a))
		return
	}
	if int(m.a) == p.rank {
		// The membership declared *us* dead (we were unreachable past the
		// suspicion budget, e.g. the wrong side of a long partition). The
		// survivors have already re-homed our keys; gracefully degrade to
		// the fail-stop path instead of fighting them.
		p.failStop()
		return
	}
	p.applyRankDead(int(m.a))
}

// applyGossip applies any deaths in a peer's gossiped dead mask that this
// rank has not seen yet.
func (p *Proc) applyGossip(mask int64) {
	if mask == 0 || p.mem.dead == nil {
		return
	}
	if mask&(1<<uint(p.rank)) != 0 {
		// A peer's dead set includes US: the membership moved on without this
		// rank (we were partitioned past the suspicion budget and later came
		// back). Our keys are already re-homed and our traffic is being
		// dropped; degrade to the fail-stop path instead of running split.
		p.failStop()
		return
	}
	for q := range p.mem.dead {
		if mask&(1<<uint(q)) != 0 && !p.mem.dead[q] && q != p.rank {
			p.applyRankDead(q)
		}
	}
}

// applyRankDead installs a confirmed death into this rank's membership view.
// Runs under the receive lock (coordinator from its heartbeat timer, others
// via dispatch).
// The epoch is defined as the number of deaths applied, so every rank that
// has converged on the same membership agrees on the epoch regardless of the
// order in which it learned of the deaths.
func (p *Proc) applyRankDead(dead int) {
	if p.mem.dead[dead] {
		return // duplicate announcement
	}
	p.mem.dead[dead] = true
	epoch := p.mem.epoch.Add(1)
	// The confirmed death silences the local wire toward the corpse
	// (retransmissions, heartbeats) and stops the transport's reconnect loop
	// from pursuing its address.
	p.world.fence(dead)
	p.resetLink(dead)
	p.restartWave()
	// Clear thief-side steal state toward the corpse before the recovery
	// hook runs: a buffered donation from it is dropped (recovery re-homes
	// and re-executes the dead rank's work) and an unanswered request's
	// in-flight latch is released so this rank can steal elsewhere.
	p.stealOnPeerDead(dead)
	if f := p.onRankDead; f != nil {
		f(dead, int(epoch))
	}
	p.oweQuiescence() // this rank may already be quiescent
}
