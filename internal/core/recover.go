package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gottg/internal/rt"
)

// ErrRankKilled is the abort reason recorded on a rank that was fail-stopped
// via comm.World.KillRank. Survivors complete the graph; the victim's Wait
// returns this.
var ErrRankKilled = errors.New("ttg: rank killed (fail-stop)")

// ftState is the per-rank fail-stop recovery state (EnableFaultTolerance).
//
// Recovery model: task bodies are deterministic functions of their inputs, so
// a dead rank's tasks can be re-executed on a survivor from the same inputs.
// Three structures make those inputs re-obtainable:
//
//   - RecoveryKeymap (route): route[r] is the rank currently owning the keys
//     that the static mapper assigns to r — r itself while alive, its closest
//     live successor in ring order after it dies. All deliveries resolve
//     through it, so re-homed tasks assemble on the successor.
//
//   - Replay log (logs): every cross-rank terminal send is retained, keyed by
//     the rank it was actually transmitted to, in transmission order. When
//     that rank dies, the entries are replayed toward the new owner — this
//     covers both data the dead rank had already consumed (its tasks are
//     re-executed from it) and data still in flight to it. The log is pruned
//     via tagPrune notices (EnableReplayPruning): once a receiver is locally
//     quiescent with an empty retransmit queue, everything it dispatched has
//     been fully consumed and the matching log prefix can be dropped.
//
//   - Seed log (seeds): Invoke* calls whose key maps to a remote rank are
//     retained (SPMD: every rank sees every seed), so the successor can
//     restart the dead rank's root tasks.
//
// Re-execution regenerates sends; the journal deduplicates them. Every
// cross-rank activation carries a deterministic id derived from (source task,
// send index, destination); a receiver delivers each id at most once, so
// re-delivered duplicates into surviving ranks are dropped while genuinely
// lost activations are re-applied.
//
// Activation coalescing (comm/batch.go) changes none of this: log entries are
// per-activation and appended in the exact order their bytes enter the
// destination's batch buffer (both happen under mu), so log order == wire
// order still holds and prune counts — which count dispatched activations,
// not frames — stay aligned.
type ftState struct {
	g *Graph

	// route is the RecoveryKeymap. Entries are atomic so the deliver hot
	// path reads them lock-free; a stale read can only misdirect toward a
	// just-dead rank, and send() re-resolves under mu before transmitting.
	route []atomic.Int32

	// anyDead flips on the first confirmed death; before that, local
	// deliveries from home-keyed tasks skip the journal entirely (a
	// survivor's own tasks are never re-executed elsewhere, so their
	// pre-death local sends cannot collide with recovery re-deliveries).
	// Work stealing voids that invariant for FOREIGN-keyed executions — a
	// stolen task's sends WILL be regenerated if its home rank dies — so
	// those journal unconditionally (ftSendCtx.foreign).
	anyDead atomic.Bool

	// mu guards dead/logs/base/seeds AND spans route-resolution + log-append
	// + transmit in send(), so a membership change cannot interleave and the
	// per-link log order always matches the wire order (required for prune
	// alignment).
	mu    sync.Mutex
	dead  []bool
	logs  [][]ftLogEntry // per current-destination rank, transmission order
	base  []int64        // entries already pruned per destination
	seeds []ftSeed

	jmu     sync.Mutex
	journal map[uint64]struct{} // activation ids delivered locally

	// srcCtx[htSlot] identifies the task currently executing on that worker
	// identity, for activation-id derivation. Worker-private by slot.
	srcCtx []ftSendCtx

	// encBuf[htSlot] is that worker identity's reusable encode scratch for
	// remoteSendFT; the logged entry copies out of it (logging inherently
	// retains one owned allocation per send).
	encBuf [][]byte

	reexec   atomic.Int64 // tasks created here for keys owned by a dead rank
	remapped atomic.Int64 // log + seed entries redirected on membership change
	pruned   atomic.Int64 // log entries dropped via tagPrune notices
}

// ftLogEntry is one logged cross-rank activation: the exact wire bytes plus
// the decoded routing fields, so it can be re-routed without re-parsing.
type ftLogEntry struct {
	id   uint64
	ttID uint32
	slot uint32
	key  uint64
	buf  []byte
}

// ftSeed is one logged remote-owned Invoke.
type ftSeed struct {
	tt        *TT
	slot      int
	key       uint64
	payload   []byte // self-contained codec bytes, nil for control-flow seeds
	hasVal    bool
	delivered bool
}

// ftSendCtx identifies the executing source task on one worker identity.
type ftSendCtx struct {
	active bool
	// foreign marks a task executing away from its static owner — a stolen
	// task on a thief, or a re-homed task after a death. Its local deliveries
	// must go through the journal even before any death: the static owner's
	// recovery cascade can regenerate exactly these sends, and an unjournaled
	// first application would let the regenerated copy be applied twice.
	foreign bool
	ttID    uint32
	key     uint64
	idx     uint32 // send counter within this execution
}

// mix64 is the splitmix64 finalizer, used to hash activation identities.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ftActID derives the deterministic identity of one activation: the idx-th
// send of the executing (srcTT, srcKey) task instance into (dstTT, dstSlot,
// dstKey). Deterministic bodies re-generate the same ids on re-execution,
// which is what lets the journal drop duplicates.
func ftActID(srcTT uint32, srcKey uint64, idx uint32, dstTT, dstSlot uint32, dstKey uint64) uint64 {
	h := mix64(uint64(srcTT)<<32 | uint64(idx))
	h = mix64(h ^ srcKey)
	h = mix64(h ^ (uint64(dstTT)<<40 | uint64(dstSlot)<<32))
	h = mix64(h ^ dstKey)
	if h == 0 {
		h = 1 // 0 means "no identity"
	}
	return h
}

// ftSeedID is the activation id of a seed (no source task).
func ftSeedID(dstTT, dstSlot uint32, dstKey uint64) uint64 {
	return ftActID(^uint32(0), dstKey, 0, dstTT, dstSlot, dstKey)
}

// EnableFaultTolerance switches on fail-stop rank recovery for this replica:
// key re-homing through the RecoveryKeymap, the cross-rank replay and seed
// logs, and journal-based duplicate suppression. Requires a distributed graph
// whose world has comm failure detection enabled, deterministic task bodies,
// and a mapper on every TT (checked in MakeExecutable). Must be called on
// every rank, before MakeExecutable.
func (g *Graph) EnableFaultTolerance() {
	g.mustBeOpen()
	if g.size <= 1 {
		panic("ttg: EnableFaultTolerance requires a distributed graph")
	}
	if g.ft != nil {
		return
	}
	ft := &ftState{
		g:       g,
		route:   make([]atomic.Int32, g.size),
		dead:    make([]bool, g.size),
		logs:    make([][]ftLogEntry, g.size),
		base:    make([]int64, g.size),
		journal: map[uint64]struct{}{},
		srcCtx:  make([]ftSendCtx, g.cfg.Workers+3),
		encBuf:  make([][]byte, g.cfg.Workers+3),
	}
	for i := range ft.route {
		ft.route[i].Store(int32(i))
	}
	g.ft = ft
	// The steal-donation sweep (steal.go) must run BEFORE key re-homing and
	// replay: re-injected donations are local re-discoveries, and the sweep
	// must not observe a half-recovered keymap. The closure checks g.steal at
	// call time — EnableWorkStealing may legally follow EnableFaultTolerance.
	g.proc.SetOnRankDead(func(dead, epoch int) {
		g.event("rank_dead", dead, epochDetail(epoch))
		if s := g.steal; s != nil {
			s.onRankDead(dead)
		}
		ft.onRankDead(dead, epoch)
	})
	g.proc.SetOnKilled(g.killLocal)
	g.proc.SetOnPrune(ft.onPrune)
}

// EnableReplayPruning bounds the replay log: this rank advertises its
// per-sender dispatch counts at quiescence (tagPrune) so peers drop the
// corresponding log prefix. Safe only when consumed activations' effects
// would survive this rank's own death — i.e. terminal results are written to
// storage outside the rank (or the application tolerates re-running from
// seeds). Requires EnableFaultTolerance; call on every rank before
// MakeExecutable.
func (g *Graph) EnableReplayPruning() {
	g.mustBeOpen()
	if g.ft == nil {
		panic("ttg: EnableReplayPruning requires EnableFaultTolerance")
	}
	g.proc.EnablePruneNotices()
}

// FaultTolerant reports whether fail-stop recovery is enabled.
func (g *Graph) FaultTolerant() bool { return g.ft != nil }

// RecoveryKeymap returns the current key-owner remapping: entry r is the
// rank that currently owns the keys statically mapped to rank r.
func (g *Graph) RecoveryKeymap() []int {
	if g.ft == nil {
		out := make([]int, g.size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, g.size)
	for i := range out {
		out[i] = int(g.ft.route[i].Load())
	}
	return out
}

// RecoveryStats reports recovery activity: tasks re-executed for dead ranks'
// keys, log/seed entries remapped, and replay-log entries pruned.
func (g *Graph) RecoveryStats() (reexecuted, remapped, pruned int64) {
	if g.ft == nil {
		return 0, 0, 0
	}
	return g.ft.reexec.Load(), g.ft.remapped.Load(), g.ft.pruned.Load()
}

// killLocal runs on the victim when World.KillRank fail-stops this rank (or
// the membership told it that it was declared dead): the runtime aborts and
// drains. No termination message reaches a fenced rank, so comm turns its
// first quiescence after the fence into the termination callback, and Wait
// returns.
func (g *Graph) killLocal() {
	g.event("killed", g.rank, "fail-stop")
	g.rtm.Abort(ErrRankKilled)
}

// seen reports whether id was already delivered locally (read-only).
func (ft *ftState) seen(id uint64) bool {
	if id == 0 {
		return false
	}
	ft.jmu.Lock()
	_, ok := ft.journal[id]
	ft.jmu.Unlock()
	return ok
}

// firstTime records id as delivered; false if it already was.
func (ft *ftState) firstTime(id uint64) bool {
	if id == 0 {
		return true // no identity: cannot dedup, deliver
	}
	ft.jmu.Lock()
	if _, ok := ft.journal[id]; ok {
		ft.jmu.Unlock()
		return false
	}
	ft.journal[id] = struct{}{}
	ft.jmu.Unlock()
	return true
}

// send resolves the current owner route for a statically-owned destination
// and either transmits the entry (logging it under the actual destination) or
// delivers it locally when this rank has inherited the keys. Route
// resolution, log append, and batch append happen under one critical section
// so the per-link log order matches the wire order exactly — the prune
// protocol counts activations, so the two must never diverge. (All FT sends
// serialize through mu, so the destination's batch buffer fills in exactly
// log order.)
func (ft *ftState) send(w *rt.Worker, origDst int, e ftLogEntry) {
	g := ft.g
	ft.mu.Lock()
	dst := int(ft.route[origDst].Load())
	if dst == g.rank {
		ft.mu.Unlock()
		g.replayLocal(w, e)
		return
	}
	ft.logs[dst] = append(ft.logs[dst], e)
	bb := g.proc.BatchBegin(dst)
	bb = append(bb, e.buf...)
	g.proc.BatchEnd(dst, bb)
	ft.mu.Unlock()
}

// replayLocal applies one logged/in-flight activation to this rank, with
// journal dedup: re-executed producers may have regenerated it already.
func (g *Graph) replayLocal(w *rt.Worker, e ftLogEntry) {
	if !g.ft.firstTime(e.id) {
		return
	}
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return
	}
	tt := g.tts[e.ttID]
	var c *rt.Copy
	if e.buf[0]&ftFlagPayload != 0 {
		v, err := decodeSelfContained(e.buf[ftHeaderLen:])
		if err != nil {
			g.rtm.Abort(fmt.Errorf("ttg: cannot deserialize replayed payload for %s: %v", tt.name, err))
			return
		}
		c = w.NewCopy(v)
	}
	g.deliverLocal(w, dest{tt: tt, slot: int(e.slot)}, e.key, c, true)
}

// onRankDead is the recovery orchestrator, invoked under the rank's receive
// lock, on the goroutine that delivered the frame (or on the heartbeat
// timer, for the coordinator), after the membership layer
// confirmed a death: re-home the dead
// rank's keys, then replay logged activations and seeds toward their new
// owners. Runs once per (rank, death) — comm dedups announcements.
func (ft *ftState) onRankDead(dead, epoch int) {
	g := ft.g
	if g.rtm.Terminated() {
		return
	}
	cw := g.rtm.ServiceWorker(1)
	ft.mu.Lock()
	ft.dead[dead] = true
	ft.anyDead.Store(true)
	// Recompute the RecoveryKeymap: each rank's keys go to the closest live
	// rank at or after it in ring order.
	for r := 0; r < g.size; r++ {
		cur := r
		for ft.dead[cur] {
			cur = (cur + 1) % g.size
		}
		ft.route[r].Store(int32(cur))
	}
	// Detach the dead rank's replay log; its entries are redirected below.
	entries := ft.logs[dead]
	ft.logs[dead] = nil
	ft.base[dead] = 0
	// Claim the seeds this rank now owns.
	var inherit []ftSeed
	for i := range ft.seeds {
		s := &ft.seeds[i]
		if s.delivered {
			continue
		}
		if int(ft.route[s.tt.mapFn(s.key)].Load()) == g.rank {
			s.delivered = true
			inherit = append(inherit, *s)
		}
	}
	ft.mu.Unlock()

	for _, e := range entries {
		ft.remapped.Add(1)
		owner := g.tts[e.ttID].mapFn(e.key)
		ft.send(cw, owner, e)
	}
	for _, s := range inherit {
		ft.remapped.Add(1)
		g.replaySeed(cw, s)
	}
}

// replaySeed re-delivers one inherited seed locally.
func (g *Graph) replaySeed(w *rt.Worker, s ftSeed) {
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return
	}
	var c *rt.Copy
	if s.hasVal {
		v, err := decodeSelfContained(s.payload)
		if err != nil {
			g.rtm.Abort(fmt.Errorf("ttg: cannot deserialize replayed seed for %s: %v", s.tt.name, err))
			return
		}
		c = w.NewCopy(v)
	}
	g.deliverLocal(w, dest{tt: s.tt, slot: s.slot}, s.key, c, true)
}

// onPrune drops the log prefix a receiver has durably consumed.
func (ft *ftState) onPrune(src int, n int64) {
	ft.mu.Lock()
	if drop := n - ft.base[src]; drop > 0 {
		if drop > int64(len(ft.logs[src])) {
			drop = int64(len(ft.logs[src]))
		}
		ft.logs[src] = append([]ftLogEntry(nil), ft.logs[src][drop:]...)
		ft.base[src] += drop
		ft.pruned.Add(drop)
	}
	ft.mu.Unlock()
}

// logSeed retains a remote-owned seed and, when the static owner is already
// dead and this rank holds its keys, applies it immediately. The route check
// and the append share ft.mu, so a concurrent death either sees the logged
// seed in its scan or the seed sees the updated route — never neither.
func (ft *ftState) logSeed(w *rt.Worker, tt *TT, slot int, key uint64, c *rt.Copy) {
	g := ft.g
	s := ftSeed{tt: tt, slot: slot, key: key}
	if c != nil {
		payload, err := encodeSelfContained(nil, c.Val)
		if err != nil {
			panic(fmt.Sprintf("ttg: cannot serialize seed for %s (did you RegisterPayload?): %v", tt.name, err))
		}
		s.payload = payload
		s.hasVal = true
		c.Release(w)
	}
	owner := tt.mapFn(key)
	ft.mu.Lock()
	deliverNow := int(ft.route[owner].Load()) == g.rank
	s.delivered = deliverNow
	ft.seeds = append(ft.seeds, s)
	ft.mu.Unlock()
	if deliverNow {
		ft.remapped.Add(1)
		g.replaySeed(w, s)
	}
}

// Wire format of fault-tolerant activations:
//
//	[1B flags][4B ttID][4B slot][8B key][8B id][1B codecID][payload...]
//
// FT payloads are always self-contained (fast-path codec or standalone gob,
// never the per-peer cached stream): logged bytes get replayed and re-routed
// to arbitrary ranks, where a mid-stream gob delta would be undecodable.
const (
	ftFlagPayload = 1 << 0
	ftHeaderLen   = 25
)

// remoteSendFT serializes an activation with its identity and hands it to
// the route-aware logged transmitter. Encoding goes through the worker's
// reusable scratch; the single exact-size copy per send is the replay log's
// retained entry.
func (g *Graph) remoteSendFT(w *rt.Worker, tt *TT, slot int, key uint64, c *rt.Copy, owned bool, id uint64) {
	ft := g.ft
	sl := w.HTSlot()
	buf := ft.encBuf[sl][:0]
	var hdr [ftHeaderLen]byte
	if c != nil {
		hdr[0] = ftFlagPayload
	}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(tt.id))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(slot))
	binary.LittleEndian.PutUint64(hdr[9:], key)
	binary.LittleEndian.PutUint64(hdr[17:], id)
	buf = append(buf, hdr[:]...)
	if c != nil {
		var err error
		buf, err = g.encodePayload(buf, c.Val, -1, sl) // dst -1: self-contained
		if err != nil {
			panic(fmt.Sprintf("ttg: cannot serialize payload for %s (did you RegisterPayload?): %v", tt.name, err))
		}
		if owned {
			c.Release(w)
		}
	}
	ft.encBuf[sl] = buf // keep the grown scratch
	wire := append(make([]byte, 0, len(buf)), buf...)
	g.ft.send(w, tt.mapFn(key), ftLogEntry{
		id: id, ttID: uint32(tt.id), slot: uint32(slot), key: key, buf: wire,
	})
}

// handleActivationFT is the fault-tolerant inbound path (under the rank's
// receive lock, on the goroutine that delivered the frame), called once per
// activation entry unpacked from a batch frame: journal dedup, re-route if
// the key's owner moved while the message was in flight, then local
// delivery. Malformed remote bytes abort the graph — they must never panic
// that goroutine.
func (g *Graph) handleActivationFT(src int, payload []byte) {
	ft := g.ft
	if len(payload) < ftHeaderLen {
		g.rtm.Abort(fmt.Errorf("ttg: malformed activation from rank %d: %d bytes", src, len(payload)))
		return
	}
	ttID := binary.LittleEndian.Uint32(payload[1:])
	slot := binary.LittleEndian.Uint32(payload[5:])
	key := binary.LittleEndian.Uint64(payload[9:])
	id := binary.LittleEndian.Uint64(payload[17:])
	if int(ttID) >= len(g.tts) {
		g.rtm.Abort(fmt.Errorf("ttg: activation from rank %d names unknown TT %d", src, ttID))
		return
	}
	tt := g.tts[ttID]
	if int(slot) >= tt.nIn {
		g.rtm.Abort(fmt.Errorf("ttg: activation from rank %d names invalid slot %d of %s", src, slot, tt.name))
		return
	}
	if ft.seen(id) {
		return // duplicate of an activation already applied here
	}
	cw := g.rtm.ServiceWorker(1)
	owner := tt.mapFn(key)
	if int(ft.route[owner].Load()) != g.rank {
		// The owner moved again while this was in flight: forward the bytes.
		// payload aliases the inbound frame slab (recycled after dispatch),
		// and the forwarded entry is retained in the replay log — copy.
		// Deliberately NOT journaled here — this rank did not apply the
		// activation, and poisoning the journal would drop it forever if the
		// keys later route back (chained deaths).
		fwd := append(make([]byte, 0, len(payload)), payload...)
		ft.send(cw, owner, ftLogEntry{id: id, ttID: ttID, slot: slot, key: key, buf: fwd})
		return
	}
	if !ft.firstTime(id) {
		return
	}
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return
	}
	var c *rt.Copy
	if payload[0]&ftFlagPayload != 0 {
		v, err := decodeSelfContained(payload[ftHeaderLen:])
		if err != nil {
			g.rtm.Abort(fmt.Errorf("ttg: cannot deserialize payload for %s from rank %d: %v", tt.name, src, err))
			return
		}
		c = cw.NewCopy(v)
	}
	g.deliverLocal(cw, dest{tt: tt, slot: int(slot)}, key, c, true)
}
