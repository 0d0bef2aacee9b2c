// Inter-rank work stealing: control messages, load hints, and the comm-side
// halves of the steal protocol. The policy (victim selection, donation
// bookkeeping, task serialization) lives in internal/core; this file moves
// the bytes and keeps the termination wave and membership protocol sound.
//
// Protocol (thief T, victim V):
//
//	T -> V  tagStealReq    a=max tasks wanted, ep=T's epoch
//	V -> T  tagStealResp   a=donation id (0 = nothing to give), b=V's load,
//	                       payload = serialized task records
//	T -> V  tagStealAccept a=id, b=1 accept / 0 decline   (two-phase only)
//	V -> T  tagStealCommit a=id                           (two-phase only)
//	V -> T  tagStealAbort  a=id                           (two-phase only)
//
// In one-phase mode (no failure detection, so neither party can die) the
// thief injects the donation as soon as the response arrives. In two-phase
// mode (fault tolerance on) the donation only changes owner at commit: the
// victim keeps the donation record and re-injects it locally if the steal
// aborts — because the epochs disagreed, the thief declined (it was
// draining), or the thief died — so a steal that straddles a membership
// change leaves the tasks home and exactly-once execution holds.
//
// Every steal tag is sequenced and counted in the protocol table
// (protocol.go), so the termination wave cannot terminate with a steal in
// flight: at every protocol boundary either a counted message is in flight or
// the receiving side has already re-discovered the tasks. Steal messages are
// NOT application messages — they never touch the prune counts, keeping the
// replay-prune protocol's activation counts aligned.
package comm

import (
	"encoding/binary"
	"sync/atomic"
	"time"
)

// loadHintTTL bounds how long a piggybacked load hint stays credible. Hints
// are sampled when traffic happens to flow — and batch frames mostly flush on
// the idle transition, when ReadyApprox is zero by construction — so a busy
// victim's advertised depth is systematically biased toward zero and, on a
// slow wire, never corrected: without expiry an idle rank that has heard
// "cold" from everyone stops probing forever (observed over loopback TCP,
// where the only spontaneous hint carrier is the 1ms-tick batch flush). A
// stale hint reverts to unknown, which the victim-selection policy treats as
// "probe at random under backoff"; the probe's response carries the victim's
// fresh depth and re-seeds the hint. 8ms spans several 2ms-default heartbeats
// (their hints stay credible between beats) while keeping rediscovery well
// under the steal backoff ceiling.
const loadHintTTL = 8 * time.Millisecond

// StealHooks is the policy interface the recovery/scheduling layer installs
// with SetStealHooks. All hooks except Load and Aborting run under the rank's
// receive lock, on the goroutine that delivered the frame (Tick: on the
// progress goroutine's tick); Load/Aborting must be safe from any goroutine.
type StealHooks struct {
	// TwoPhase selects the commit protocol (required when ranks can die).
	TwoPhase bool
	// Load returns this rank's approximate ready-task depth (the load hint
	// piggybacked on heartbeats and batch frames).
	Load func() int64
	// Aborting reports whether this rank is draining (abort or termination);
	// a draining thief declines donations so the tasks stay at the victim.
	Aborting func() bool
	// Fill extracts up to max ready tasks for donation to thief, returning
	// a victim-local donation id (0 when nothing was extracted) and the
	// serialized task records.
	Fill func(thief, max int) (id uint64, recs [][]byte)
	// Commit (two-phase) decides whether donation id to thief may commit
	// (same epoch, donation still live). On false the callee has already
	// re-queued the tasks locally or recorded the abort.
	Commit func(thief int, id uint64) bool
	// Cancel (two-phase) returns a declined donation to the local queues.
	Cancel func(thief int, id uint64)
	// Inject re-discovers donated task records on the thief.
	Inject func(victim int, recs [][]byte)
	// Done reports the end of the thief's in-flight steal attempt (ok =
	// tasks were injected), successful or not, so the policy can clear its
	// in-flight latch and adjust its backoff.
	Done func(victim int, ok bool)
	// Tick, when non-nil, is pumped from the progress goroutine's periodic
	// tick, under the receive lock: the runtime's idle hook only fires on the idle *transition*, so
	// retries after a failed probe need an external pulse.
	Tick func()
}

// stealState is one rank's work-stealing state. hooks is installed before
// Start; loadHints holds the last per-peer load hint (-1 = unknown) and
// actsFrom the per-peer delivered-activation counts (locality signal), both
// readable from any goroutine. pending buffers two-phase donations on the
// thief (rx-private); victim is the rank of this rank's
// outstanding steal request (-1 = none).
type stealState struct {
	hooks     *StealHooks
	loadHints []atomic.Int64
	hintAt    []atomic.Int64 // UnixNano of each hint; stale hints revert to unknown
	actsFrom  []atomic.Int64
	pending   map[stealKey][][]byte
	victim    atomic.Int64
}

// SetStealHooks installs the work-stealing policy on this rank and
// allocates the load-hint state. Must be called before this rank's Start
// (other ranks of an in-process world may already be running).
func (p *Proc) SetStealHooks(h *StealHooks) {
	if p.det != nil {
		panic("comm: SetStealHooks after Start")
	}
	st := &p.steal
	st.hooks = h
	n := len(p.world.procs)
	st.loadHints = make([]atomic.Int64, n)
	st.hintAt = make([]atomic.Int64, n)
	for i := range st.loadHints {
		st.loadHints[i].Store(-1) // unknown until a hint arrives
	}
	st.actsFrom = make([]atomic.Int64, n)
	st.pending = map[stealKey][][]byte{}
	st.victim.Store(-1)
}

// StealingEnabled reports whether SetStealHooks was called.
func (p *Proc) StealingEnabled() bool { return p.steal.hooks != nil }

// StealReqs reports how many steal requests local ranks issued
// (comm.steal_reqs). Safe from any goroutine.
func (w *World) StealReqs() int64 { return w.stealReqs.Load() }

// Steals reports how many steals completed with tasks injected at a local
// thief (comm.steals).
func (w *World) Steals() int64 { return w.steals.Load() }

// StealTasks reports how many tasks completed steals transferred to local
// thieves (comm.steal_tasks).
func (w *World) StealTasks() int64 { return w.stealTasks.Load() }

// StealAborts reports how many steals were aborted — thief declined, epoch
// straddle, or donation swept by a rank death (comm.steal_aborts).
func (w *World) StealAborts() int64 { return w.stealAborts.Load() }

// stealKey identifies one in-flight donation on the thief side: donation
// ids are victim-local, so the victim rank disambiguates.
type stealKey struct {
	victim int
	id     uint64
}

// stealLoad returns this rank's current load hint (0 without hooks).
func (p *Proc) stealLoad() int64 {
	if h := p.steal.hooks; h != nil && h.Load != nil {
		return h.Load()
	}
	return 0
}

// noteLoadHint records a peer's advertised ready depth. Any goroutine.
func (p *Proc) noteLoadHint(src int, load int64) {
	st := &p.steal
	if st.loadHints != nil && src != p.rank && src >= 0 && src < len(st.loadHints) {
		st.loadHints[src].Store(load)
		st.hintAt[src].Store(time.Now().UnixNano())
	}
}

// PeerLoad returns the last load hint heard from rank r, or -1 when none has
// arrived yet or the last one aged past loadHintTTL (stale hints revert to
// unknown so the steal policy resumes probing — see the TTL comment).
// Advisory and eventually consistent. Safe from any goroutine.
func (p *Proc) PeerLoad(r int) int64 {
	st := &p.steal
	if st.loadHints == nil {
		return -1
	}
	if time.Now().UnixNano()-st.hintAt[r].Load() > int64(loadHintTTL) {
		return -1
	}
	return st.loadHints[r].Load()
}

// PeerActivity returns how many batched activations this rank has received
// from rank r — the locality signal for victim selection (a rank we already
// exchange activations with likely owns neighbouring keys, so stolen tasks'
// outputs stay on warm links). Safe from any goroutine.
func (p *Proc) PeerActivity(r int) int64 {
	if p.steal.actsFrom == nil {
		return 0
	}
	return p.steal.actsFrom[r].Load()
}

// RequestSteal issues a steal request toward victim for up to max tasks.
// The caller (the policy's idle/tick trigger) must serialize its own
// attempts — at most one outstanding request per rank. Safe from any
// goroutine.
func (p *Proc) RequestSteal(victim, max int) {
	if p.world.closed.Load() || p.DeadView(victim) {
		p.stealDone(victim, false)
		return
	}
	p.steal.victim.Store(int64(victim))
	p.world.stealReqs.Add(1)
	p.emit(victim, tagStealReq, int64(max), 0, p.mem.epoch.Load(), nil)
}

// Donation payload framing: [4B count] ( [4B len][record] ) x count.

func encodeStealRecs(recs [][]byte) []byte {
	n := 4
	for _, r := range recs {
		n += 4 + len(r)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

func decodeStealRecs(pl []byte) ([][]byte, bool) {
	if len(pl) < 4 {
		return nil, false
	}
	count := int(int32(binary.LittleEndian.Uint32(pl)))
	if count < 0 || count > (len(pl)-4)/4 {
		// Every record carries a 4-byte length: a larger count is forged, and
		// trusting it would size the allocation below from remote bytes.
		return nil, false
	}
	off := 4
	recs := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(pl)-off < 4 {
			return nil, false
		}
		sz := int(int32(binary.LittleEndian.Uint32(pl[off:])))
		off += 4
		if sz < 0 || sz > len(pl)-off {
			return nil, false
		}
		recs = append(recs, pl[off:off+sz:off+sz])
		off += sz
	}
	if off != len(pl) {
		return nil, false
	}
	return recs, true
}

// handleStealReq runs on the victim, under its receive lock. The response is
// sent before the request's receipt is counted (by dispatch), so the wave
// stays unbalanced across the handoff.
func (p *Proc) handleStealReq(m message) {
	h := p.steal.hooks
	var id uint64
	var recs [][]byte
	// Epoch guard, victim side: a request stamped under a different
	// membership view gets an empty response — the thief's recovery (or
	// ours) is in flight and the tasks stay home.
	if h != nil && h.Fill != nil && !p.terminated && m.ep == p.mem.epoch.Load() {
		id, recs = h.Fill(m.src, int(m.a))
	}
	var payload []byte
	if id != 0 {
		payload = encodeStealRecs(recs)
	}
	p.emit(m.src, tagStealResp, int64(id), p.stealLoad(), p.mem.epoch.Load(), payload)
}

// handleStealResp runs on the thief, under its receive lock.
func (p *Proc) handleStealResp(m message) {
	h := p.steal.hooks
	// The response's b field is the victim's current depth — fresher than
	// any piggybacked hint, and an empty response zeroes the stale hint that
	// provoked the probe, so probing self-quenches.
	p.noteLoadHint(m.src, m.b)
	id := uint64(m.a)
	if h == nil {
		return
	}
	if id == 0 {
		p.stealDone(m.src, false)
		return
	}
	recs, ok := decodeStealRecs(m.payload)
	if !ok {
		// Corrupt donation: never inject. Two-phase declines so the victim
		// re-queues from its own (intact) record; one-phase cannot recover
		// the tasks, but the wire below the reliable layer is byte-exact, so
		// this is unreachable outside memory corruption.
		if h.TwoPhase {
			p.emit(m.src, tagStealAccept, int64(id), 0, p.mem.epoch.Load(), nil)
		}
		p.stealDone(m.src, false)
		return
	}
	if !h.TwoPhase {
		p.stealInject(m.src, recs)
		return
	}
	if h.Aborting != nil && h.Aborting() {
		// Draining thief: decline so the victim re-queues the tasks (they
		// must complete or be re-queued at the victim, never dropped).
		p.emit(m.src, tagStealAccept, int64(id), 0, p.mem.epoch.Load(), nil)
		p.stealDone(m.src, false)
		return
	}
	// Buffer until the victim confirms the ownership transfer.
	p.steal.pending[stealKey{m.src, id}] = recs
	p.emit(m.src, tagStealAccept, int64(id), 1, p.mem.epoch.Load(), nil)
}

// handleStealAccept runs on the victim, under its receive lock (two-phase).
func (p *Proc) handleStealAccept(m message) {
	h := p.steal.hooks
	id := uint64(m.a)
	if h == nil || id == 0 {
		return
	}
	if m.b == 0 { // thief declined: tasks go back into the local queues
		if h.Cancel != nil {
			h.Cancel(m.src, id)
		}
		p.world.stealAborts.Add(1)
		return
	}
	if h.Commit != nil && h.Commit(m.src, id) {
		p.emit(m.src, tagStealCommit, int64(id), 0, p.mem.epoch.Load(), nil)
		return
	}
	// Epoch changed or the donation was already swept: the tasks stayed (or
	// went back) home; tell the thief to drop its buffered copy.
	p.world.stealAborts.Add(1)
	p.emit(m.src, tagStealAbort, int64(id), 0, p.mem.epoch.Load(), nil)
}

// handleStealCommit runs on the thief, under its receive lock (two-phase). The
// commit is unconditional on the thief: the victim committed under its own
// epoch check, and from that point the thief owns the tasks — if the thief
// later dies, the victim's donation sweep re-injects them.
func (p *Proc) handleStealCommit(m message) {
	h := p.steal.hooks
	k := stealKey{m.src, uint64(m.a)}
	recs, ok := p.steal.pending[k]
	if !ok || h == nil {
		return
	}
	delete(p.steal.pending, k)
	p.stealInject(m.src, recs)
}

// handleStealAbort runs on the thief, under its receive lock (two-phase).
func (p *Proc) handleStealAbort(m message) {
	delete(p.steal.pending, stealKey{m.src, uint64(m.a)})
	p.stealDone(m.src, false)
}

// stealOnPeerDead clears thief-side steal state toward a now-confirmed-dead
// rank: a buffered donation from it must be dropped (the victim is gone; its
// own sweep cannot run, but the tasks were never committed to us — the
// dead rank's work is re-homed and re-executed by recovery), and an
// outstanding request toward it will never be answered. Under rx.
func (p *Proc) stealOnPeerDead(dead int) {
	if p.steal.hooks == nil {
		return
	}
	for k := range p.steal.pending {
		if k.victim == dead {
			delete(p.steal.pending, k)
		}
	}
	if p.steal.victim.Load() == int64(dead) {
		p.stealDone(dead, false)
	}
}

// stealInject hands a donation that now belongs to this thief to the policy.
func (p *Proc) stealInject(victim int, recs [][]byte) {
	p.steal.hooks.Inject(victim, recs)
	p.world.steals.Add(1)
	p.world.stealTasks.Add(int64(len(recs)))
	p.stealDone(victim, true)
}

// stealDone ends this thief's in-flight steal attempt toward victim (ok =
// tasks were injected): the latch is released and the policy told.
func (p *Proc) stealDone(victim int, ok bool) {
	p.steal.victim.Store(-1)
	if h := p.steal.hooks; h != nil && h.Done != nil {
		h.Done(victim, ok)
	}
}
