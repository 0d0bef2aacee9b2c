// Inter-rank work stealing: the policy half of the steal protocol (comm/steal.go
// moves the bytes). A rank that runs out of ready tasks picks a victim from the
// load hints piggybacked on heartbeats and batch frames, prefers victims it
// already exchanges activations with (stolen tasks' outputs then stay on warm
// links), and issues a steal request. The victim drains half of its ready —
// queued but not yet started — tasks, serializes them self-contained, and
// donates them.
//
// Interaction with fault tolerance (two-phase mode): the donation only changes
// owner at commit, and the victim keeps every donation record for the rest of
// the run. Donated tasks are invisible to the FT replay logs (their inputs were
// consumed at the victim; the activations that built them are journaled there),
// so the donation record IS their failure coverage: if the thief dies — before
// or after commit — the victim re-injects the recorded tasks locally and the
// journal deduplicates any sends the thief already performed. A steal that
// straddles a membership-epoch change is aborted and the tasks stay home.
// The memory cost is bounded by what was actually stolen (steals only happen
// when the thief is idle, and each donation is at most maxSteal serialized
// records); see docs/ROBUSTNESS.md.
package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gottg/internal/comm"
	"gottg/internal/rt"
)

// stealMaxTasks caps one donation, bounding the response frame and the
// retained donation record.
const stealMaxTasks = 256

// Steal backoff after a failed attempt (empty response, abort, dead victim):
// exponential between the two bounds, reset on success.
const (
	stealBackoffMin = 200 * time.Microsecond
	stealBackoffMax = 10 * time.Millisecond
)

// stealState is the per-rank work-stealing policy state.
type stealState struct {
	g *Graph

	// inflight latches at most one outstanding steal attempt per rank; set
	// by maybeSteal (CAS), cleared by stealDone — always last, so the next
	// attempt observes the backoff the failure installed.
	inflight  atomic.Bool
	nextProbe atomic.Int64 // UnixNano before which maybeSteal stays quiet
	backoff   atomic.Int64
	// retry re-runs maybeSteal when the backoff a failure installed expires
	// (bumpBackoff): parked workers make no idle transitions to try again.
	// Created once in installSteal, stopped at termination.
	retry *time.Timer

	// rng drives random probing of ranks whose load is unknown. Only touched
	// under the inflight latch (pickVictim), so it needs no lock.
	rng *rand.Rand

	// mu guards the victim-side donation table.
	mu        sync.Mutex
	nextID    uint64
	donations map[uint64]*stealDonation

	stolen  atomic.Int64 // tasks injected here as thief
	donated atomic.Int64 // tasks handed out here as victim
	rehomed atomic.Int64 // donated tasks re-injected here (abort or thief death)
}

// stealDonation is one victim-side donation record. Uncommitted records are
// swept back into the local queues on any membership change; committed ones
// are retained so a later thief death can re-inject them (see package doc).
type stealDonation struct {
	thief     int
	epoch     int64
	committed bool
	recs      [][]byte
}

// EnableWorkStealing turns on inter-rank work stealing for this replica:
// idle ranks pull ready tasks from loaded peers instead of waiting out the
// static key map. Requires a distributed graph and a mapper on every TT
// (stolen tasks' sends must still route); on a world with failure detection
// it additionally requires EnableFaultTolerance (checked in MakeExecutable),
// because only the two-phase commit keeps exactly-once execution across a
// steal racing a rank death. Must be called on every rank, before
// MakeExecutable.
func (g *Graph) EnableWorkStealing() {
	g.mustBeOpen()
	if g.size <= 1 {
		panic("ttg: EnableWorkStealing requires a distributed graph")
	}
	if g.steal != nil {
		return
	}
	g.steal = &stealState{
		g:         g,
		rng:       rand.New(rand.NewSource(int64(g.rank)*0x9e3779b97f4a7c + 1)),
		donations: map[uint64]*stealDonation{},
	}
}

// WorkStealing reports whether EnableWorkStealing was called.
func (g *Graph) WorkStealing() bool { return g.steal != nil }

// StealStats reports work-stealing activity on this rank: tasks injected
// here as a thief, tasks donated to other ranks as a victim, and donated
// tasks re-injected locally because the steal aborted or the thief died.
func (g *Graph) StealStats() (stolen, donated, rehomed int64) {
	if g.steal == nil {
		return 0, 0, 0
	}
	return g.steal.stolen.Load(), g.steal.donated.Load(), g.steal.rehomed.Load()
}

// installSteal wires the policy into the comm layer; called by
// MakeExecutable after topology validation, before the Proc starts.
func (g *Graph) installSteal() {
	for _, tt := range g.tts {
		if tt.mapFn == nil {
			panic(fmt.Sprintf(
				"ttg: EnableWorkStealing requires a mapper on every TT (%s has none): a stolen task's sends must still resolve an owner", tt.name))
		}
	}
	g.rtm.EnableLoadTracking()
	g.proc.SetStealHooks(&comm.StealHooks{
		TwoPhase: g.ft != nil,
		Load:     g.rtm.ReadyApprox,
		Aborting: func() bool { return g.rtm.Aborting() || g.rtm.Terminated() },
		Fill:     g.stealFill,
		Commit:   g.stealCommit,
		Cancel:   g.stealCancel,
		Inject:   g.stealInject,
		Done:     g.stealDone,
	})
	g.steal.retry = time.AfterFunc(time.Hour, g.maybeSteal)
	g.steal.retry.Stop()
}

// maybeSteal is the thief-side trigger, called from the runtime's idle hook
// (a worker just ran out of local work) and from the retry timer once a
// failed attempt's backoff expires. Safe from any goroutine and cheap when
// there is nothing to do; at most one attempt is in flight.
func (g *Graph) maybeSteal() {
	s := g.steal
	if s == nil || g.rtm.Aborting() || g.rtm.Terminated() {
		return
	}
	if g.rtm.ReadyApprox() > 0 {
		return // local work exists; stealing would only shuffle it
	}
	if time.Now().UnixNano() < s.nextProbe.Load() {
		return
	}
	if !s.inflight.CompareAndSwap(false, true) {
		return
	}
	victim, want := s.pickVictim()
	if victim < 0 {
		s.bumpBackoff()
		s.inflight.Store(false)
		return
	}
	g.proc.RequestSteal(victim, want)
}

// pickVictim selects a steal target from the piggybacked load hints:
// locality first (a loaded rank this rank already receives activations from),
// then the most loaded rank regardless, then a random probe of a rank whose
// load is unknown. Returns (-1, 0) when no candidate exists. Runs under the
// inflight latch.
func (s *stealState) pickVictim() (victim, want int) {
	g := s.g
	bestLocal, bestLocalLoad := -1, int64(1) // require depth >= 2: leave singletons home
	bestAny, bestAnyLoad := -1, int64(1)
	var unknown []int
	for r := 0; r < g.size; r++ {
		if r == g.rank || g.proc.DeadView(r) {
			continue
		}
		load := g.proc.PeerLoad(r)
		if load < 0 {
			unknown = append(unknown, r)
			continue
		}
		if load > bestAnyLoad {
			bestAny, bestAnyLoad = r, load
		}
		if load > bestLocalLoad && g.proc.PeerActivity(r) > 0 {
			bestLocal, bestLocalLoad = r, load
		}
	}
	pick, load := bestLocal, bestLocalLoad
	if pick < 0 {
		pick, load = bestAny, bestAnyLoad
	}
	if pick >= 0 {
		want = int(load / 2)
		if want < 1 {
			want = 1
		}
		if want > stealMaxTasks {
			want = stealMaxTasks
		}
		return pick, want
	}
	if len(unknown) > 0 {
		// No hints yet (quiet start, or every hint went stale and zeroed):
		// probe someone at random. The empty response refreshes the hint, so
		// probing self-quenches.
		return unknown[s.rng.Intn(len(unknown))], stealMaxTasks
	}
	return -1, 0
}

// stealDone clears the in-flight latch after an attempt concludes; failed
// attempts back off exponentially so an idle rank cannot saturate the wire
// with probes, successful ones reset the backoff (more work likely remains).
func (g *Graph) stealDone(victim int, ok bool) {
	s := g.steal
	if ok {
		g.event("steal", victim, "tasks migrated")
		s.backoff.Store(0)
		s.nextProbe.Store(0)
	} else {
		s.bumpBackoff()
	}
	s.inflight.Store(false) // last: the next attempt must see the backoff
}

func (s *stealState) bumpBackoff() {
	b := 2 * s.backoff.Load()
	if b < int64(stealBackoffMin) {
		b = int64(stealBackoffMin)
	}
	if b > int64(stealBackoffMax) {
		b = int64(stealBackoffMax)
	}
	s.backoff.Store(b)
	s.nextProbe.Store(time.Now().UnixNano() + b)
	s.retry.Reset(time.Duration(b))
}

// stealFill is the victim-side extraction hook (under the rank's receive
// lock, on the goroutine that delivered the frame): drain
// ready tasks from the local scheduler, donate half (capped), serialize them
// self-contained, and record the donation. Tasks that fail to serialize stay
// home. Returns id 0 when nothing is donated.
func (g *Graph) stealFill(thief, max int) (uint64, [][]byte) {
	s := g.steal
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return 0, nil
	}
	if max > stealMaxTasks {
		max = stealMaxTasks
	}
	cw := g.rtm.ServiceWorker(1)
	tasks := g.rtm.StealReady(cw, max)
	if len(tasks) == 0 {
		return 0, nil
	}
	recs := make([][]byte, 0, len(tasks))
	for _, t := range tasks {
		rec, err := g.encodeStolenTask(t)
		if err != nil {
			g.rtm.Inject(t) // unserializable payload: keep the task home
			continue
		}
		recs = append(recs, rec)
		g.releaseStolen(cw, t)
	}
	if len(recs) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	if g.ft != nil {
		// Two-phase: the record outlives the protocol (see package doc).
		s.donations[id] = &stealDonation{thief: thief, epoch: g.proc.Epoch(), recs: recs}
	}
	s.mu.Unlock()
	s.donated.Add(int64(len(recs)))
	return id, recs
}

// releaseStolen retires a donated task on the victim: its input copies are
// released (the serialized record now carries the values), the completion is
// accounted — the thief's injection re-discovers it, and the in-flight
// response keeps the termination wave unbalanced in between — and the task
// object is recycled.
func (g *Graph) releaseStolen(w *rt.Worker, t *rt.Task) {
	g.releaseInputs(w, t)
	w.Completed()
	w.FreeTask(t)
}

// stealCommit is the victim-side decision hook (two-phase, under the receive
// lock): the donation commits iff it still exists and the membership
// epoch has not moved since it was filled. On refusal the tasks have already
// been re-queued locally (epoch straddle) or were re-queued by the death
// sweep that removed the record.
func (g *Graph) stealCommit(thief int, id uint64) bool {
	s := g.steal
	s.mu.Lock()
	d, ok := s.donations[id]
	if !ok || d.thief != thief {
		s.mu.Unlock()
		return false // swept by a membership change; tasks are already home
	}
	if d.epoch != g.proc.Epoch() {
		delete(s.donations, id)
		s.mu.Unlock()
		g.stealRequeue(d)
		return false
	}
	d.committed = true
	s.mu.Unlock()
	return true
}

// stealCancel returns a declined donation (the thief was draining) to the
// local queues. Two-phase; under the rank's receive lock, on the goroutine
// that delivered the frame.
func (g *Graph) stealCancel(thief int, id uint64) {
	s := g.steal
	s.mu.Lock()
	d, ok := s.donations[id]
	if ok {
		delete(s.donations, id)
	}
	s.mu.Unlock()
	if ok {
		g.stealRequeue(d)
	}
}

// stealRequeue re-injects a donation's tasks locally (abort, epoch straddle,
// or thief death). Records decode through the same path a thief uses, so the
// accounting matches: each re-injection re-discovers the completion recorded
// when the task was drained.
func (g *Graph) stealRequeue(d *stealDonation) {
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return // abort drain: counts stay balanced, results are discarded
	}
	cw := g.rtm.ServiceWorker(1)
	for _, rec := range d.recs {
		g.injectStolenTask(cw, g.rank, rec)
	}
	s := g.steal
	s.rehomed.Add(int64(len(d.recs)))
}

// stealInject is the thief-side injection hook (under the rank's receive
// lock, on the goroutine that delivered the frame): decode
// each record and re-discover the task locally.
func (g *Graph) stealInject(victim int, recs [][]byte) {
	if g.rtm.Aborting() || g.rtm.Terminated() {
		// Draining thief that had already accepted: dropping is sound (the
		// victim accounted the donation's completions; nothing here was
		// discovered yet) and an aborting run produces no results anyway.
		return
	}
	cw := g.rtm.ServiceWorker(1)
	for _, rec := range recs {
		g.injectStolenTask(cw, victim, rec)
	}
	g.steal.stolen.Add(int64(len(recs)))
}

// stealOnRankDead sweeps the donation table after a confirmed death, before
// the FT recovery hook runs. One pass: donations to the dead thief are
// re-injected whether or not they committed (the thief may or may not have
// executed them — the journal absorbs regenerated sends either way), and
// uncommitted donations to live thieves are re-injected too, because their
// epoch check is now guaranteed to fail (the late accept finds no record and
// aborts on the thief).
func (s *stealState) onRankDead(dead int) {
	g := s.g
	var sweep []*stealDonation
	s.mu.Lock()
	for id, d := range s.donations {
		if d.thief == dead || !d.committed {
			delete(s.donations, id)
			sweep = append(sweep, d)
		}
	}
	s.mu.Unlock()
	for _, d := range sweep {
		g.stealRequeue(d)
		if ft := g.ft; ft != nil && d.thief == dead {
			// Committed work bounced off a corpse counts as re-execution —
			// the thief may have run these tasks before dying.
			ft.reexec.Add(int64(len(d.recs)))
		}
	}
}

// Stolen-task record format (all little-endian):
//
//	[4B ttID][8B key][8B origin span id][4B priority]
//	then one entry per input slot:
//	  [1B stolenNil]                                    plain slot, no datum
//	  [1B stolenPlain]  [4B len][self-contained bytes]  plain slot
//	  [1B stolenAgg]    [4B count]([4B len][bytes])xN   aggregate slot
//	  [1B stolenStream] [4B len][bytes]                 streaming accumulator
//	  [1B stolenStreamNil]                              empty accumulator
//
// The origin span id ties the thief-side span back to the victim for causal
// tracing (0 when tracing is off). The priority carries the victim's urgency
// for the task, so stolen work keeps its critical-path position on the thief.
// Payloads use the self-contained codec — the same one the FT log uses —
// because the record crosses ranks and may be re-injected at either end.
const (
	stolenHdrLen = 24

	stolenNil       = 0
	stolenPlain     = 1
	stolenAgg       = 2
	stolenStream    = 3
	stolenStreamNil = 4
)

// stolenMarkerKind is the terminal kind each slot marker may appear on.
var stolenMarkerKind = [...]slotKind{
	stolenNil:       slotPlain,
	stolenPlain:     slotPlain,
	stolenAgg:       slotAggregate,
	stolenStream:    slotStreaming,
	stolenStreamNil: slotStreaming,
}

// encodeStolenTask serializes one ready task. The task is NOT consumed: on
// error the caller re-queues it untouched.
func (g *Graph) encodeStolenTask(t *rt.Task) ([]byte, error) {
	tt := t.TT.(*TT)
	var hdr [stolenHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tt.id))
	binary.LittleEndian.PutUint64(hdr[4:], t.Key())
	binary.LittleEndian.PutUint64(hdr[12:], t.SpanID())
	binary.LittleEndian.PutUint32(hdr[20:], uint32(t.Priority))
	buf := append([]byte(nil), hdr[:]...)
	var err error
	for i := 0; i < tt.nIn; i++ {
		c := t.Input(i)
		switch tt.slots[i].kind {
		case slotAggregate:
			agg := c.Val.(*Aggregate)
			buf = append(buf, stolenAgg)
			buf = appendStealU32(buf, uint32(len(agg.items)))
			for _, item := range agg.items {
				if buf, err = appendStolenVal(buf, item.Val); err != nil {
					return nil, err
				}
			}
		case slotStreaming:
			if c.Val == nil {
				buf = append(buf, stolenStreamNil)
				continue
			}
			buf = append(buf, stolenStream)
			if buf, err = appendStolenVal(buf, c.Val); err != nil {
				return nil, err
			}
		default:
			if c == nil {
				buf = append(buf, stolenNil)
				continue
			}
			buf = append(buf, stolenPlain)
			if buf, err = appendStolenVal(buf, c.Val); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// appendStolenVal appends [4B len][self-contained bytes] for v.
func appendStolenVal(buf []byte, v any) ([]byte, error) {
	at := len(buf)
	buf = appendStealU32(buf, 0)
	out, err := encodeSelfContained(buf, v)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	return out, nil
}

func appendStealU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// injectStolenTask rebuilds one stolen task and re-discovers it locally.
// This deliberately bypasses deliver/deliverFT/tt.newTask: the task arrives
// fully armed (no dependence counting, no hash-table passage, no keymap
// routing — the whole point is executing it where the keymap says it does
// not belong), and newTask's reexec heuristic would misread a stolen key as
// a recovery re-execution. Under causal tracing the task gets a fresh
// thief-side span caused by the victim's origin span, so the trace records
// the EXECUTING rank, with a cross-rank arrow from where the inputs were
// assembled. Malformed records abort the graph — they must never panic the
// goroutine that delivered the frame, which runs this under the rank's
// receive lock.
func (g *Graph) injectStolenTask(w *rt.Worker, victim int, rec []byte) {
	if g.rtm.Aborting() || g.rtm.Terminated() {
		return
	}
	fail := func(what string) {
		g.rtm.Abort(fmt.Errorf("ttg: malformed stolen task record from rank %d: %s", victim, what))
	}
	if len(rec) < stolenHdrLen {
		fail("short header")
		return
	}
	ttID := binary.LittleEndian.Uint32(rec[0:])
	key := binary.LittleEndian.Uint64(rec[4:])
	originSpan := binary.LittleEndian.Uint64(rec[12:])
	wirePrio := int32(binary.LittleEndian.Uint32(rec[20:]))
	if int(ttID) >= len(g.tts) {
		fail("unknown TT")
		return
	}
	tt := g.tts[ttID]
	t := w.NewTask()
	t.TT = tt
	t.SetKey(key)
	t.SetNumInputs(tt.nIn)
	t.Exec = ttExecute
	if tt.prioFn != nil {
		t.Priority = tt.prioFn(key)
	} else {
		// A donated task keeps the urgency the victim gave it, raised to the
		// local estimate when this rank runs the estimator too.
		t.Priority = wirePrio
		if ps := g.prio; ps != nil {
			if p := ps.prioFor(tt); p > t.Priority {
				t.Priority = p
			}
		}
	}
	// drop discards the partly rebuilt task, releasing what was decoded.
	drop := func(what string) {
		fail(what)
		g.releaseInputs(w, t)
		w.FreeTask(t)
	}
	body := rec[stolenHdrLen:]
	next := func() (any, bool) {
		if len(body) < 4 {
			return nil, false
		}
		sz := int(int32(binary.LittleEndian.Uint32(body)))
		if sz < 0 || sz > len(body)-4 {
			return nil, false
		}
		v, err := decodeSelfContained(body[4 : 4+sz])
		if err != nil {
			return nil, false
		}
		body = body[4+sz:]
		return v, true
	}
	for i := 0; i < tt.nIn; i++ {
		if len(body) < 1 {
			drop("truncated slot")
			return
		}
		marker := body[0]
		body = body[1:]
		if int(marker) >= len(stolenMarkerKind) || stolenMarkerKind[marker] != tt.slots[i].kind {
			drop("slot marker does not match the terminal")
			return
		}
		switch marker {
		case stolenNil:
		case stolenPlain:
			v, ok := next()
			if !ok {
				drop("bad plain payload")
				return
			}
			t.SetInput(i, w.NewCopy(v))
		case stolenAgg:
			if len(body) < 4 {
				drop("truncated aggregate")
				return
			}
			count := int(int32(binary.LittleEndian.Uint32(body)))
			body = body[4:]
			if count < 0 {
				drop("bad aggregate count")
				return
			}
			// The decoded count is not trusted with an allocation: items grow
			// by append, one per payload actually present.
			agg := g.newAggregate(w, count)
			t.SetInput(i, w.NewCopy(agg))
			for j := 0; j < count; j++ {
				v, ok := next()
				if !ok {
					drop("bad aggregate item")
					return
				}
				agg.items = append(agg.items, w.NewCopy(v))
			}
		case stolenStream:
			v, ok := next()
			if !ok {
				drop("bad streaming accumulator")
				return
			}
			t.SetInput(i, w.NewCopy(v))
		case stolenStreamNil:
			t.SetInput(i, w.NewCopy(nil))
		}
	}
	if len(body) != 0 {
		drop("trailing bytes")
		return
	}
	t.ArmDeps(0)
	tt.created[w.HTSlot()].V.Add(1)
	if g.causal {
		t.AddCause(rt.CauseCtx{SpanID: originSpan, Rank: victim})
		t.MarkReady()
	}
	w.Discovered()
	g.dispatch(w, t)
}
