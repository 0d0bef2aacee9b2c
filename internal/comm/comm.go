// Package comm provides the inter-process communication substrate that TTG
// uses for distributed-memory execution, simulated in-process: a World of N
// ranks, each with an unbounded mailbox, an active-message dispatch loop
// (PaRSEC's communication thread), and the 4-counter-wave termination
// protocol of paper §III-A driven by rank 0.
//
// Payloads cross rank boundaries as []byte only, forcing the same
// serialize/deserialize discipline a real network transport would; no Go
// pointers are shared between ranks through this package.
//
// This is the documented substitution for MPI (see DESIGN.md): the protocol —
// activation messages, sent/received accounting, quiescence probes, stability
// detection over two consecutive reductions — is the paper's; only the wire
// is a channel instead of a NIC.
//
// For fault-tolerance testing the wire can be made lossy with a seeded
// FaultPlan (drop/duplicate/delay/reorder per link, see fault.go). Installing
// one engages a sequence-number + cumulative-ack + retransmit link layer for
// every cross-rank message — application and wave control alike — so the
// termination protocol survives the injected faults. Without a fault plan the
// wire is perfect and the link layer is bypassed entirely (zero overhead).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gottg/internal/metrics"
	"gottg/internal/termdet"
)

// Reserved control tags (application tags must be >= 0).
const (
	tagProbe     = -1 // root -> all: contribute your counters when quiescent
	tagReply     = -2 // all -> root: (sent, recvd) contribution
	tagTerminate = -3 // root -> all: global termination
	tagAbort     = -4 // any -> all: abort notification with a reason payload
	tagAck       = -5 // link layer: cumulative ack (never itself sequenced)
	tagHeartbeat = -6 // failure detection: liveness beacon (never sequenced)
	tagRankDead  = -7 // coordinator -> all: rank a confirmed dead, epoch ep
	tagPrune     = -8 // receiver -> sender: a app messages dispatched; replay log prefix is durable
	// -9 .. -13 are the work-stealing control tags; see steal.go.
	tagTelemetry = -14 // telemetry plane: metric interval frame (never sequenced, wave-exempt)
)

// Handler processes an application-level active message on the destination
// rank's progress goroutine.
type Handler func(src int, payload []byte)

type message struct {
	src     int
	tag     int
	payload []byte
	a, b    int64 // control fields for wave messages
	ep      int64 // membership epoch / wave round stamp (epoch<<32 | round)
	seq     int64 // link-layer sequence number; 0 = unsequenced (direct)
	slab    bool  // payload is a pooled batch frame; recycle when provably done
}

// mailbox is an unbounded MPSC queue with a wakeup channel usable in select.
type mailbox struct {
	mu    sync.Mutex
	queue []message
	note  chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{note: make(chan struct{}, 1)}
}

func (m *mailbox) push(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	select {
	case m.note <- struct{}{}:
	default:
	}
}

func (m *mailbox) drain(buf []message) []message {
	m.mu.Lock()
	buf = append(buf[:0], m.queue...)
	m.queue = m.queue[:0]
	m.mu.Unlock()
	return buf
}

// World is a set of simulated ranks sharing a termination wave.
type World struct {
	procs []*Proc

	// Fault-injection and reliability state (see fault.go). reliable flips
	// when a fault plan or drop filter is installed; it must happen before
	// any rank starts. started is atomic because ranks start concurrently.
	reliable bool
	started  atomic.Bool
	fp       *FaultPlan
	dropF    func(src, dst, tag int) bool
	rngMu    sync.Mutex
	rngState uint64
	rto      time.Duration

	stallAfter time.Duration
	onStall    func(rank int, summary string)

	// Fail-stop failure detection state (see failure.go). fd is set by
	// EnableFailureDetection before Start; deadWire[r] flips when rank r is
	// killed and makes the wire drop every message to or from it, modelling a
	// crashed node whose NIC goes silent. deaths and waveRestarts feed the
	// comm.rank_deaths / termdet.wave_restarts metrics.
	fd           *FDConfig
	deadWire     []atomic.Bool
	deaths       atomic.Int64
	waveRestarts atomic.Int64

	// Work-stealing statistics (see steal.go), aggregated across local
	// ranks so network worlds can report them without a metrics registry.
	stealReqs   atomic.Int64
	steals      atomic.Int64
	stealTasks  atomic.Int64
	stealAborts atomic.Int64

	// closed flips in Shutdown: from then on the wire discards every
	// transmission instead of delivering it, so nothing repopulates the
	// mailboxes of stopped ranks.
	closed atomic.Bool

	// Network-transport state (see transport.go). net is non-nil for worlds
	// built with NewNetWorld: only procs[self] is materialized locally and
	// every cross-rank transmission is encoded onto the transport. peerHook
	// observes transport connection lifecycle events.
	net        Transport
	self       int
	peerHookMu sync.Mutex
	peerHook   func(PeerEvent)

	// drainWait is non-nil while a Drain call waits; linkDrained closes it
	// when a send link's retransmit queue empties.
	drainMu   sync.Mutex
	drainWait chan struct{}

	// timers tracks the delayed-delivery timers armed by Delay/Reorder
	// faults so Shutdown can stop any still pending; without this they
	// outlive the world and fire into dead mailboxes.
	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}

	mx    *commMetrics
	trace atomic.Bool
}

// NewWorld creates a world with n ranks. Each rank must have Start called
// exactly once before messages flow.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{procs: make([]*Proc, n), rto: 2 * time.Millisecond}
	for i := range w.procs {
		w.procs[i] = newProc(w, i)
	}
	return w
}

// newProc builds one rank endpoint (not yet started).
func newProc(w *World, rank int) *Proc {
	return &Proc{
		rank:       rank,
		world:      w,
		mbox:       newMailbox(),
		handlers:   map[int]Handler{},
		qNotify:    make(chan struct{}, 1),
		quit:       make(chan struct{}),
		stopped:    make(chan struct{}),
		batchTag:   -1,
		batchLimit: DefaultBatchBytes,
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Proc returns the rank r endpoint.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Shutdown stops all progress goroutines, closes the wire, and cancels any
// delayed-fault delivery timers still pending. Safe after termination; with
// the reliable link layer active this is what releases the lingering
// progress goroutines that keep re-acking duplicates after termination.
// Idempotent, and safe even when some ranks were never started (their
// progress goroutine does not exist, so there is nothing to join).
func (w *World) Shutdown() {
	// Close the wire FIRST (atomically snapshotting whether we are the call
	// that closed it), then drain the batch buffers. The old order — check
	// closed, drain, then store — left a window in which a concurrent sender
	// could re-arm a flush between the drain loop and the close and post a
	// frame into a half-closed wire whose progress goroutines were already
	// being torn down. With closed set up front, the drain below (and any
	// racing flush-on-size) still empties the buffers and counts the flush,
	// but the wire discards the transmission. After clean termination the
	// buffers are empty anyway; this is hygiene for aborted or
	// harness-driven runs.
	if !w.closed.Swap(true) {
		for _, p := range w.procs {
			if p != nil {
				p.FlushBatches(FlushShutdown)
			}
		}
	}
	w.timerMu.Lock()
	for t := range w.timers {
		t.Stop()
	}
	w.timers = nil
	w.timerMu.Unlock()
	for _, p := range w.procs {
		if p == nil {
			continue // network world: remote ranks live in other processes
		}
		p.stopOnce.Do(func() { close(p.quit) })
		if p.launched.Load() {
			<-p.stopped
		}
	}
	if w.net != nil {
		w.net.Close()
	}
}

// Proc is one simulated rank: mailbox, handlers, detector, wave state.
type Proc struct {
	rank     int
	world    *World
	mbox     *mailbox
	handlers map[int]Handler
	det      *termdet.Detector

	qNotify  chan struct{}
	quit     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	launched atomic.Bool // Start ran; stopped will eventually close

	// Chrome-trace event log (World.EnableTracing); guarded because Send may
	// run on any goroutine. asyncSeq numbers the async ("b"/"e") dispatch
	// span pairs, also under traceMu.
	traceMu  sync.Mutex
	traceEvs []metrics.ChromeEvent
	asyncSeq uint64

	onTerminate func()
	onError     func(err error)
	onAbort     func(src int, reason string)
	onRankDead  func(dead, epoch int)  // progress goroutine, after membership update
	onKilled    func()                 // any goroutine, when this rank is fail-stopped
	onPrune     func(src int, n int64) // progress goroutine: src dispatched n of our app sends
	telemetryH  func(src int, payload []byte)

	// Link-layer state. sendLinks is indexed by destination and guarded by
	// its per-link mutex (Send may be called from any goroutine); recvLinks
	// is indexed by source and private to the progress goroutine.
	sendLinks []sendLink
	recvLinks []recvLink

	// Activation coalescing state (see batch.go). batch is indexed by
	// destination; batchTag is the single batched application tag (-1 when
	// none); slabs is this rank's pool of recycled frame buffers. frameSeq
	// numbers flushed frames (any goroutine may flush); curFrameID is the id
	// of the frame being unpacked, progress-goroutine private, exposed to
	// batched handlers via DispatchFrameID for causal tracing.
	batch      []batchBuf
	batchTag   int
	batchLimit int
	slabMu     sync.Mutex
	slabs      [][]byte
	frameSeq   atomic.Uint64
	curFrameID uint64

	// progress-goroutine-private bookkeeping
	terminated   bool
	lastActivity time.Time
	stalled      bool
	fenced       bool  // this rank learned the membership declared it dead
	dropped      int64 // unknown-tag messages dropped (diagnostics)

	// Failure-detection state. epoch is atomic so applications can read it
	// from any goroutine (Epoch); everything else is progress-goroutine
	// private. deadView is this rank's view of confirmed-dead membership,
	// lastHeard the per-peer liveness horizon, lastBeat the last heartbeat
	// broadcast.
	epoch     atomic.Int64
	deadView  []bool
	lastHeard []time.Time
	suspected []bool // scratch, recomputed each fdTick
	lastBeat  time.Time

	// Replay-log pruning state: appDispatched[src] counts application
	// messages from src released to dispatch, pruneNotified[src] the count
	// last advertised back to src via tagPrune.
	pruneOn       bool
	appDispatched []int64
	pruneNotified []int64

	// Work-stealing state (see steal.go). stealHooks is installed before
	// Start; loadHints holds the last per-peer load hint (-1 = unknown) and
	// actsFrom the per-peer delivered-activation counts (locality signal),
	// both readable from any goroutine. stealPending buffers two-phase
	// donations on the thief (progress-goroutine private); stealVictim is
	// the rank of this rank's outstanding steal request (-1 = none).
	stealHooks   *StealHooks
	loadHints    []atomic.Int64
	hintAt       []atomic.Int64 // UnixNano of each hint; stale hints revert to unknown
	actsFrom     []atomic.Int64
	stealPending map[stealKey]stealBuf
	stealVictim  atomic.Int64

	// non-root wave state (progress-goroutine-private). owedStamp is the
	// round stamp of the latest probe that caught this rank busy; 0 = none.
	// The stamp is echoed in the reply so a restarted wave can discard
	// contributions that belong to an abandoned round.
	owedStamp int64

	// root wave state (progress-goroutine-private)
	inRound      bool
	roundNum     int
	replies      int
	sumS, sumR   int64
	prevS, prevR int64
	havePrev     bool
	rounds       atomic.Int64 // statistic (atomic so gauges can poll live)
}

// Rank returns this endpoint's rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return len(p.world.procs) }

// Register installs the handler for an application tag. Must be called
// before Start.
func (p *Proc) Register(tag int, h Handler) {
	if tag < 0 {
		panic(fmt.Sprintf("comm: tag %d is reserved", tag))
	}
	p.handlers[tag] = h
}

// SetOnError installs a hook invoked on the progress goroutine when a
// message must be dropped (for example an unknown application tag, which a
// remote rank could otherwise use to kill this rank's progress goroutine).
// The dropped message is still counted as received so the termination wave
// stays balanced. Must be called before Start.
func (p *Proc) SetOnError(f func(err error)) { p.onError = f }

// SetOnAbort installs a hook invoked on the progress goroutine when a
// remote rank broadcasts an abort. Must be called before Start.
func (p *Proc) SetOnAbort(f func(src int, reason string)) { p.onAbort = f }

// SetOnRankDead installs a hook invoked on the progress goroutine after this
// rank has confirmed a peer's death and updated its membership view (links to
// the dead rank reset, epoch bumped, wave state cleared). Recovery layers
// redirect logged in-flight data from here. Must be called before Start.
func (p *Proc) SetOnRankDead(f func(dead, epoch int)) { p.onRankDead = f }

// SetOnKilled installs a hook invoked when this rank itself is fail-stopped
// via World.KillRank, before its progress goroutine is torn down. It may run
// on any goroutine. Must be called before Start.
func (p *Proc) SetOnKilled(f func()) { p.onKilled = f }

// SetOnPrune installs a hook invoked on the progress goroutine when a peer
// advertises how many of our application sends it has dispatched, making the
// corresponding replay-log prefix prunable. Must be called before Start.
func (p *Proc) SetOnPrune(f func(src int, n int64)) { p.onPrune = f }

// SetTelemetryHandler installs the receiver for telemetry frames shipped via
// SendTelemetry (the cluster metric plane's aggregation sink, normally only
// installed on rank 0). The handler runs on the progress goroutine and must
// stay cheap. Must be called before Start.
func (p *Proc) SetTelemetryHandler(h func(src int, payload []byte)) { p.telemetryH = h }

// SendTelemetry ships one telemetry frame to rank dst. Telemetry is
// deliberately outside every guarantee the data plane pays for: frames are
// unsequenced (no retransmit state, no Drain involvement — like heartbeats),
// uncounted by the termination wave (a run must terminate identically with
// telemetry on or off), and best-effort (a frame lost to a fault plan or a
// down connection is simply a missing interval; the stream carries cumulative
// values, so the next frame covers the gap). Under a duplicating fault plan a
// frame can arrive twice — receivers deduplicate by frame sequence number.
// Traffic to or from a confirmed-dead rank is dropped. Ownership of payload
// passes with the call. Safe from any goroutine.
func (p *Proc) SendTelemetry(dst int, payload []byte) {
	w := p.world
	if w.closed.Load() {
		return
	}
	if w.deadWire != nil && (w.deadWire[p.rank].Load() || w.deadWire[dst].Load()) {
		return
	}
	if m := w.mx; m != nil {
		m.telemetryFrames.Inc(p.rank)
		m.telemetryBytes.Add(p.rank, uint64(len(payload)))
	}
	if w.net == nil {
		// In-process world: hand the frame straight to the destination's
		// handler. The mailbox path would lose post-termination flushes (the
		// non-reliable progress goroutine exits at the wave), and drawing
		// from the shared fault RNG would perturb seeded chaos runs.
		if h := w.procs[dst].telemetryH; h != nil {
			h(p.rank, payload)
		}
		return
	}
	w.transmit(dst, message{src: p.rank, tag: tagTelemetry, payload: payload})
}

// EnablePruneNotices makes this rank advertise, at each local quiescence with
// an empty retransmit queue, how many application messages it has dispatched
// per sender (tagPrune). Must be called before Start.
func (p *Proc) EnablePruneNotices() { p.pruneOn = true }

// Start attaches the rank's termination detector and termination callback
// and launches the progress goroutine. The detector's quiescence callback is
// claimed by comm; runtimes in distributed mode must not set their own.
func (p *Proc) Start(det *termdet.Detector, onTerminate func()) {
	p.det = det
	p.onTerminate = onTerminate
	p.world.started.Store(true)
	if p.world.reliable && p.sendLinks == nil {
		n := len(p.world.procs)
		p.sendLinks = make([]sendLink, n)
		p.recvLinks = make([]recvLink, n)
		for i := range p.sendLinks {
			p.sendLinks[i].unacked = map[int64]*pendingSend{}
			p.recvLinks[i].expected = 1
		}
	}
	if p.world.fd != nil {
		n := len(p.world.procs)
		det.EnablePeerCounts(n)
		p.deadView = make([]bool, n)
		p.suspected = make([]bool, n)
		p.lastHeard = make([]time.Time, n)
		now := time.Now()
		for i := range p.lastHeard {
			p.lastHeard[i] = now // grace period: nobody is suspect at start
		}
		p.lastBeat = now
	}
	if p.pruneOn {
		n := len(p.world.procs)
		p.appDispatched = make([]int64, n)
		p.pruneNotified = make([]int64, n)
	}
	det.SetOnQuiescent(func() {
		select {
		case p.qNotify <- struct{}{}:
		default:
		}
	})
	p.launched.Store(true)
	go p.progress()
}

// Send delivers an application payload to rank dst under tag. It accounts
// the message in the termination protocol. Safe from any goroutine.
func (p *Proc) Send(dst, tag int, payload []byte) {
	if tag < 0 {
		panic("comm: application sends must use tag >= 0")
	}
	p.det.MsgSentTo(dst)
	if m := p.world.mx; m != nil {
		m.sent.Inc(p.rank)
		m.bytesSent.Add(p.rank, uint64(len(payload)))
	}
	if p.world.trace.Load() {
		p.recordSend(dst, tag, len(payload), 0)
	}
	p.post(dst, message{src: p.rank, tag: tag, payload: payload})
}

// sendControl delivers a wave control message (not counted). ep carries the
// membership-epoch/round stamp for probe/reply matching; 0 when irrelevant.
func (p *Proc) sendControl(dst, tag int, a, b, ep int64) {
	if m := p.world.mx; m != nil {
		m.ctrl.Inc(p.rank)
	}
	p.post(dst, message{src: p.rank, tag: tag, a: a, b: b, ep: ep})
}

// Abort broadcasts an abort notification with a reason to every other rank.
// Reliable when the link layer is active. Safe from any goroutine.
func (p *Proc) Abort(reason string) {
	for dst := range p.world.procs {
		if dst == p.rank {
			continue
		}
		p.post(dst, message{src: p.rank, tag: tagAbort, payload: []byte(reason)})
	}
}

// post is the wire entry point for all outbound messages: it sequences the
// message when the reliable link layer is active (self-sends bypass it) and
// hands it to the fault-injecting transmitter.
func (p *Proc) post(dst int, m message) {
	w := p.world
	if !w.reliable || dst == p.rank {
		w.procs[dst].mbox.push(m)
		return
	}
	l := &p.sendLinks[dst]
	l.mu.Lock()
	l.nextSeq++
	m.seq = l.nextSeq
	now := time.Now()
	l.unacked[m.seq] = &pendingSend{msg: m, born: now, last: now}
	l.mu.Unlock()
	w.transmit(dst, m)
}

// Rounds reports how many reduction rounds the root performed (rank 0 only).
// Safe from any goroutine.
func (p *Proc) Rounds() int { return int(p.rounds.Load()) }

func (p *Proc) progress() {
	defer close(p.stopped)
	var buf []message
	var tickC <-chan time.Time
	if p.world.reliable || p.batch != nil {
		period := p.world.rto / 2
		if !p.world.reliable {
			period = batchTick
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		tickC = tick.C
	}
	p.lastActivity = time.Now()
	for {
		select {
		case <-p.quit:
			return
		case <-p.qNotify:
			if !p.terminated {
				p.handleQuiescent()
			}
		case <-tickC:
			if p.world.reliable {
				p.retransmit()
				p.checkStall()
			}
			if p.world.fd != nil {
				p.fdTick(time.Now())
			}
			// Bound the latency of appends the idle hook cannot see (the
			// progress goroutine's own forwards, trickle traffic).
			p.FlushBatches(FlushIdle)
			// Pump the steal policy: the runtime idle hook only fires on the
			// idle transition, so retrying a failed probe (with every worker
			// parked in its spin loop) needs this periodic pulse.
			if h := p.stealHooks; h != nil && h.Tick != nil && !p.terminated {
				h.Tick()
			}
		case <-p.mbox.note:
			buf = p.mbox.drain(buf)
			for _, m := range buf {
				p.receive(m)
			}
			if p.terminated && !p.world.reliable {
				return
			}
			// With the reliable link layer the progress goroutine lingers
			// after termination: it must keep re-acking duplicates and
			// retransmitting until World.Shutdown, or a peer whose ack was
			// lost would wait forever.
		}
	}
}

// receive runs the inbound half of the link layer: acks are consumed,
// sequenced messages are deduplicated and released to dispatch strictly
// in-order per link, and everything else goes straight through.
func (p *Proc) receive(m message) {
	if p.deadView != nil && m.src != p.rank {
		if p.deadView[m.src] {
			// A confirmed-dead rank's leftover traffic is dropped unacked and
			// uncounted; its data is regenerated by recovery re-execution.
			return
		}
		p.lastHeard[m.src] = time.Now()
	}
	if m.tag == tagAck {
		p.handleAck(m.src, m.a)
		return
	}
	if m.seq == 0 { // unsequenced: self-send, heartbeat, or link layer off
		p.dispatch(m)
		return
	}
	p.lastActivity = time.Now()
	l := &p.recvLinks[m.src]
	switch {
	case m.seq < l.expected:
		// Duplicate (retransmit whose original arrived, or a wire dup):
		// drop, but re-ack so the sender stops retransmitting.
		p.sendAck(m.src, l.expected-1)
	case m.seq > l.expected:
		// Gap: hold out-of-order arrivals, ack the contiguous prefix.
		if l.ooo == nil {
			l.ooo = map[int64]message{}
		}
		l.ooo[m.seq] = m
		p.sendAck(m.src, l.expected-1)
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
		p.sendAck(m.src, l.expected-1)
	}
}

// sendAck posts a cumulative ack for everything up to and including seq.
// Acks are unsequenced and cross the faulty wire like any other message; a
// lost ack is recovered by the sender's retransmit provoking a re-ack.
func (p *Proc) sendAck(dst int, seq int64) {
	if m := p.world.mx; m != nil {
		m.acks.Inc(p.rank)
	}
	p.world.transmit(dst, message{src: p.rank, tag: tagAck, a: seq})
}

// handleAck releases every pending send up to the cumulative ack point. The
// stall latch only clears when the ack made progress — empty prefix re-acks
// stream in constantly on a dead link and must not reset it.
//
// Each released send that was never retransmitted contributes an RTT sample
// to the link's adaptive retransmission timeout (Karn's algorithm: a
// retransmitted message's ack is ambiguous and must not be sampled).
func (p *Proc) handleAck(src int, upto int64) {
	now := time.Now()
	p.lastActivity = now
	l := &p.sendLinks[src]
	released := false
	l.mu.Lock()
	for seq, ps := range l.unacked {
		if seq <= upto {
			delete(l.unacked, seq)
			released = true
			if ps.tries == 0 {
				l.observeRTT(now.Sub(ps.born))
			}
			if ps.msg.slab {
				// Acked ⇒ the receiver dispatched the frame (acks follow
				// dispatch); any duplicate still in flight is dropped by
				// sequence number without reading the payload, so the slab
				// is safely reusable. Lock order l.mu → slabMu is acyclic.
				p.slabPut(ps.msg.payload)
			}
		}
	}
	empty := len(l.unacked) == 0
	l.mu.Unlock()
	if released {
		p.stalled = false
		if empty {
			p.world.linkDrained()
		}
	}
}

// retransmit resends every unacked message older than the link's adaptive
// RTO (SRTT + 4·RTTVAR from observed ack latencies, floored at the world's
// configured timeout — see sendLink.rto).
func (p *Proc) retransmit() {
	now := time.Now()
	floor := p.world.rto
	for dst := range p.sendLinks {
		if dst == p.rank {
			continue
		}
		l := &p.sendLinks[dst]
		var resend []message
		l.mu.Lock()
		rto := l.rto(floor)
		for _, ps := range l.unacked {
			if now.Sub(ps.last) >= rto {
				ps.last = now
				ps.tries++
				resend = append(resend, ps.msg)
			}
		}
		l.mu.Unlock()
		if mx := p.world.mx; mx != nil && len(resend) > 0 {
			mx.retrans.Add(p.rank, uint64(len(resend)))
		}
		for _, m := range resend {
			p.world.transmit(dst, m)
		}
	}
}

// dispatch processes one in-order message; returns true on termination.
func (p *Proc) dispatch(m message) bool {
	switch m.tag {
	case tagProbe:
		if stampEpoch(m.ep) != p.epoch.Load() {
			return false // probe from an abandoned membership epoch
		}
		if p.det.Quiescent() {
			s, r := p.localCounts()
			p.sendControl(m.src, tagReply, s, r, m.ep)
		} else {
			p.owedStamp = m.ep // latest probe wins; reply echoes its stamp
		}
	case tagReply:
		p.collectReply(m)
	case tagTerminate:
		if !p.terminated {
			p.terminated = true
			if p.onTerminate != nil {
				p.onTerminate()
			}
		}
		return true
	case tagAbort:
		if p.onAbort != nil {
			p.onAbort(m.src, string(m.payload))
		}
	case tagHeartbeat:
		// Liveness beacon: receive() already refreshed lastHeard. The dead
		// set gossiped in a converges membership if a rankDead was missed;
		// b carries the sender's load hint for the steal policy.
		p.noteLoadHint(m.src, m.b)
		p.applyGossip(m.a)
	case tagRankDead:
		if int(m.a) == p.rank {
			// The membership declared *us* dead (we were unreachable past the
			// suspicion budget, e.g. the wrong side of a long partition).
			// The survivors have already re-homed our keys; gracefully
			// degrade to the fail-stop path instead of fighting them.
			p.selfFence()
			return false
		}
		p.applyRankDead(int(m.a))
	case tagPrune:
		if p.onPrune != nil {
			p.onPrune(m.src, m.a)
		}
	case tagTelemetry:
		// Wave-exempt like heartbeats: the frame is observability traffic,
		// not work, and must not perturb the termination protocol.
		if p.telemetryH != nil {
			p.telemetryH(m.src, m.payload)
		}
	// Steal control: each handler performs its forward action (next protocol
	// message, local re-queue, or injection with its Discovered accounting)
	// BEFORE the inbound receipt is counted below, so the termination wave
	// never sees balanced counters while a steal is mid-flight.
	case tagStealReq:
		p.handleStealReq(m)
		p.det.MsgRecvdFrom(m.src)
	case tagStealResp:
		p.handleStealResp(m)
		p.det.MsgRecvdFrom(m.src)
	case tagStealAccept:
		p.handleStealAccept(m)
		p.det.MsgRecvdFrom(m.src)
	case tagStealCommit:
		p.handleStealCommit(m)
		p.det.MsgRecvdFrom(m.src)
	case tagStealAbort:
		p.handleStealAbort(m)
		p.det.MsgRecvdFrom(m.src)
	default:
		if m.tag == p.batchTag {
			p.dispatchBatch(m)
			return false
		}
		h := p.handlers[m.tag]
		if h == nil {
			// A remote-supplied tag must not be able to kill this rank's
			// progress goroutine: count the message (the wave needs it),
			// drop it, and surface the problem through the error hook.
			p.dropped++
			p.det.MsgRecvdFrom(m.src)
			if p.onError != nil {
				p.onError(fmt.Errorf("comm: rank %d: dropped message from rank %d with unknown tag %d", p.rank, m.src, m.tag))
			}
			return false
		}
		if p.appDispatched != nil {
			p.appDispatched[m.src]++
		}
		if mx := p.world.mx; mx != nil {
			mx.recvd.Inc(p.rank)
			mx.bytesRecvd.Add(p.rank, uint64(len(m.payload)))
		}
		if p.world.trace.Load() {
			start := time.Now()
			h(m.src, m.payload)
			p.recordRecv(m.src, m.tag, len(m.payload), 0, start, time.Since(start))
		} else {
			h(m.src, m.payload)
		}
		p.det.MsgRecvdFrom(m.src)
	}
	return false
}

// stampEpoch extracts the membership epoch from a wave stamp.
func stampEpoch(stamp int64) int64 { return stamp >> 32 }

// root returns the current wave coordinator: the lowest-ranked live process.
// With no failure detection this is always rank 0.
func (p *Proc) root() int {
	if p.deadView != nil {
		for r, dead := range p.deadView {
			if !dead {
				return r
			}
		}
	}
	return 0
}

// liveCount returns how many ranks this process believes are alive.
func (p *Proc) liveCount() int {
	n := len(p.world.procs)
	for _, dead := range p.deadView {
		if dead {
			n--
		}
	}
	return n
}

// localCounts returns this rank's wave contribution, excluding traffic
// exchanged with confirmed-dead peers (whose own counters are lost forever).
func (p *Proc) localCounts() (s, r int64) {
	if p.deadView != nil {
		return p.det.CountsExcluding(p.deadView)
	}
	return p.det.Counts()
}

// handleQuiescent runs when the local detector announces quiescence.
func (p *Proc) handleQuiescent() {
	// Local quiescence means every worker passed through the idle hook, but
	// the hook races the notification; flush again so no activation sits
	// buffered while this rank contributes balanced-looking counters.
	p.FlushBatches(FlushIdle)
	if !p.det.Quiescent() {
		return // stale notification; work arrived meanwhile
	}
	if p.owedStamp != 0 {
		stamp := p.owedStamp
		p.owedStamp = 0
		if stampEpoch(stamp) == p.epoch.Load() {
			s, r := p.localCounts()
			p.sendControl(p.root(), tagReply, s, r, stamp)
		}
		// An owed reply from a pre-death epoch is discarded: the restarted
		// wave will re-probe, and a stale contribution must not be counted
		// against the new round.
	}
	if p.rank == p.root() && !p.inRound {
		p.startRound()
	}
	p.maybePrune()
}

func (p *Proc) startRound() {
	p.inRound = true
	p.roundNum++
	p.rounds.Add(1)
	p.replies = 0
	p.sumS, p.sumR = 0, 0
	stamp := p.epoch.Load()<<32 | int64(uint32(p.roundNum))
	for dst := range p.world.procs {
		if p.deadView != nil && p.deadView[dst] {
			continue
		}
		p.sendControl(dst, tagProbe, 0, 0, stamp)
	}
}

func (p *Proc) collectReply(m message) {
	if m.ep != p.epoch.Load()<<32|int64(uint32(p.roundNum)) || !p.inRound {
		return // contribution to an abandoned round (e.g. pre-restart)
	}
	p.replies++
	p.sumS += m.a
	p.sumR += m.b
	if p.replies < p.liveCount() {
		return
	}
	// Reduction complete: terminate after two consecutive identical
	// reductions with sent == received (the 4-counter wave condition).
	stable := p.havePrev && p.sumS == p.sumR && p.sumS == p.prevS && p.sumR == p.prevR
	p.prevS, p.prevR = p.sumS, p.sumR
	p.havePrev = true
	p.inRound = false
	if stable {
		for dst := range p.world.procs {
			if p.deadView != nil && p.deadView[dst] {
				continue
			}
			p.sendControl(dst, tagTerminate, 0, 0, 0)
		}
		return
	}
	// Not stable yet: immediately try another round if still quiescent,
	// otherwise wait for the next quiescence notification.
	if p.det.Quiescent() {
		p.startRound()
	}
}
