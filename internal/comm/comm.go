// Package comm provides the inter-process communication substrate that TTG
// uses for distributed-memory execution: a World of N ranks, each with an
// unbounded mailbox, an active-message dispatch loop (PaRSEC's communication
// thread), and the 4-counter-wave termination protocol of paper §III-A driven
// by rank 0.
//
// Payloads cross rank boundaries as []byte only; no Go pointers are shared
// between ranks through this package.
//
// This is the documented substitution for MPI (see DESIGN.md): the protocol —
// activation messages, sent/received accounting, quiescence probes, stability
// detection over two consecutive reductions — is the paper's. There is one
// wire: every cross-rank message is encoded as a frame and handed to a
// Transport, in memory for the ranks of NewWorld and over TCP (or anything
// else) for NewNetWorld. Transports are best-effort, so every World runs a
// sequence-number + cumulative-ack + retransmit link layer under every
// cross-rank message — application and wave control alike — and a seeded
// FaultPlan can drop, duplicate, delay or reorder frames on any of them.
//
// The package is layered by file: the wire (transport.go, with the FaultPlan
// decorator in fault.go) under the reliable link (link.go) under batching
// (batch.go) and the demux in this file. Every reserved control tag is one
// entry of the protocol table (protocol.go); its handler lives with the
// protocol that owns it — the termination wave (wave.go), failure detection
// (failure.go), work stealing (steal.go), replay-log pruning (prune.go) and
// the telemetry plane (telemetry.go).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gottg/internal/metrics"
	"gottg/internal/termdet"
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
	slab    bool  // payload is a pooled batch frame; the sender recycles it on ack
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

// World is the set of ranks sharing a termination wave, as seen from this
// process: procs is indexed by rank, and only the local ranks are
// materialized (all of them for NewWorld, one for NewNetWorld).
type World struct {
	procs []*Proc
	local []*Proc // the materialized ranks, in rank order

	// World-wide options, fixed before any rank starts (started is atomic
	// because ranks start concurrently): the link layer's retransmission
	// timeout and stall watchdog (link.go), and the batch flush threshold
	// (batch.go).
	started    atomic.Bool
	rto        time.Duration
	stallAfter time.Duration
	onStall    func(rank int, summary string)
	batchLimit int

	// Fail-stop failure detection state (see failure.go). fd is set by
	// EnableFailureDetection before Start; deadWire[r] flips when rank r is
	// fenced and makes the wire drop every message to or from it, modelling a
	// crashed node whose NIC goes silent; inbound frames read it from the
	// moment the transport starts, so it exists from construction. deaths
	// and waveRestarts feed the comm.rank_deaths / termdet.wave_restarts
	// metrics.
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

	// peerHook observes transport connection lifecycle events.
	peerHook atomic.Pointer[func(PeerEvent)]

	// drainWait is non-nil while a Drain call waits; linkDrained closes it
	// when a send link's retransmit queue empties.
	drainMu   sync.Mutex
	drainWait chan struct{}

	mx    *commMetrics
	trace atomic.Bool
}

// NewWorld creates a world with n local ranks over one in-memory network
// (NewMemNetwork). Each rank must have Start called exactly once before
// messages flow.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := newWorld(n)
	for _, tr := range NewMemNetwork(n) {
		w.attach(tr) // a memory endpoint starts without error
	}
	return w
}

// newWorld returns an n-rank world with no rank materialized yet.
func newWorld(n int) *World {
	return &World{procs: make([]*Proc, n), deadWire: make([]atomic.Bool, n),
		rto: 2 * time.Millisecond, batchLimit: DefaultBatchBytes}
}

// newProc builds the endpoint of the rank tr is bound to (not yet started).
func newProc(w *World, tr Transport) *Proc {
	p := &Proc{
		rank:     tr.Self(),
		world:    w,
		tr:       tr,
		mbox:     newMailbox(),
		handlers: map[int]Handler{},
		qNotify:  make(chan struct{}, 1),
		quit:     make(chan struct{}),
		stopped:  make(chan struct{}),
		batchTag: -1,
	}
	p.initLinks(len(w.procs))
	return p
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Proc returns the rank r endpoint.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// beforeStart panics when a world-wide option is set once a rank started.
func (w *World) beforeStart(op string) {
	if w.started.Load() {
		panic("comm: " + op + " after Start")
	}
}

// Shutdown stops all local progress goroutines and closes the wire and the
// local transports (which cancels any delayed-fault frames still pending).
// Safe after termination; this is what releases the progress goroutines that
// linger after termination, re-acking duplicates. Idempotent, and safe even
// when some ranks were never started (their progress goroutine does not
// exist, so there is nothing to join).
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
		for _, p := range w.local {
			p.FlushBatches(FlushShutdown)
		}
	}
	for _, p := range w.local {
		p.stopOnce.Do(func() { close(p.quit) })
		if p.launched.Load() {
			<-p.stopped
		}
	}
	for _, p := range w.local {
		p.tr.Close()
	}
}

// Proc is one rank: its transport endpoint, mailbox, handlers, detector, and
// the state of each protocol layer, every one owned by its file.
type Proc struct {
	rank     int
	world    *World
	tr       Transport // this rank's endpoint, behind the fault decorator when one is installed
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

	// Link-layer state (see link.go). sendLinks is indexed by destination
	// and guarded by its per-link mutex (Send may be called from any
	// goroutine); recvLinks is indexed by source and private to the progress
	// goroutine, like lastActivity and the stall latch.
	sendLinks    []sendLink
	recvLinks    []recvLink
	lastActivity time.Time
	stalled      bool

	// Activation coalescing state (see batch.go). batch is indexed by
	// destination; batchTag is the single batched application tag (-1 when
	// none); slabs is this rank's pool of recycled frame buffers. frameSeq
	// numbers flushed frames (any goroutine may flush); curFrameID is the id
	// of the frame being unpacked, progress-goroutine private, exposed to
	// batched handlers via DispatchFrameID for causal tracing.
	batch      []batchBuf
	batchTag   int
	slabMu     sync.Mutex
	slabs      [][]byte
	frameSeq   atomic.Uint64
	curFrameID uint64

	// progress-goroutine-private bookkeeping
	terminated bool
	dropped    int64 // malformed or unroutable messages dropped (diagnostics)

	wave  waveState  // termination wave (wave.go)
	mem   membership // failure detection and epochs (failure.go)
	steal stealState // work stealing (steal.go)
	prune pruneState // replay-log pruning (prune.go)
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

// Start attaches the rank's termination detector and termination callback
// and launches the progress goroutine. The detector's quiescence callback is
// claimed by comm; runtimes in distributed mode must not set their own.
func (p *Proc) Start(det *termdet.Detector, onTerminate func()) {
	p.det = det
	p.onTerminate = onTerminate
	p.world.started.Store(true)
	n := len(p.world.procs)
	if p.world.fd != nil {
		det.EnablePeerCounts(n)
		p.mem.init(n)
	}
	det.SetOnQuiescent(p.nudge)
	p.launched.Store(true)
	go p.progress()
}

// nudge wakes the progress goroutine to re-examine local quiescence.
func (p *Proc) nudge() {
	select {
	case p.qNotify <- struct{}{}:
	default:
	}
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

func (p *Proc) progress() {
	defer close(p.stopped)
	var buf []message
	tick := time.NewTicker(p.world.rto / 2)
	defer tick.Stop()
	p.lastActivity = time.Now()
	// The goroutine lingers after termination: it must keep re-acking
	// duplicates and retransmitting until World.Shutdown, or a peer whose ack
	// was lost would wait forever.
	for {
		select {
		case <-p.quit:
			return
		case <-p.qNotify:
			if !p.terminated {
				p.handleQuiescent()
			}
		case <-tick.C:
			p.retransmit()
			p.checkStall()
			if p.world.fd != nil {
				p.fdTick(time.Now())
			}
			// Bound the latency of appends the idle hook cannot see (the
			// progress goroutine's own forwards, trickle traffic).
			p.FlushBatches(FlushIdle)
			// Pump the steal policy: the runtime idle hook only fires on the
			// idle transition, so retrying a failed probe (with every worker
			// parked in its spin loop) needs this periodic pulse.
			if h := p.steal.hooks; h != nil && h.Tick != nil && !p.terminated {
				h.Tick()
			}
		case <-p.mbox.note:
			buf = p.mbox.drain(buf)
			for _, m := range buf {
				p.receive(m)
			}
		}
	}
}

// dispatch processes one in-order message. Application tags come first (the
// batched tag before the handler map), so the hot path never touches the
// protocol table; every reserved tag runs its table entry's handler, and a
// counted one is receipted only after the handler's forward action.
func (p *Proc) dispatch(m message) {
	if m.tag >= 0 {
		if m.tag == p.batchTag {
			p.dispatchBatch(m)
		} else {
			p.dispatchApp(m)
		}
		return
	}
	if m.tag <= -len(protocols) {
		p.dropUnknown(m)
		return
	}
	pr := &protocols[-m.tag]
	pr.handle(p, m)
	if pr.counted {
		p.det.MsgRecvdFrom(m.src)
	}
}

// dispatchApp runs one unbatched application message through its handler.
func (p *Proc) dispatchApp(m message) {
	h := p.handlers[m.tag]
	if h == nil {
		p.dropUnknown(m)
		return
	}
	if p.prune.dispatched != nil {
		p.prune.dispatched[m.src]++
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

// dropUnknown drops a message whose tag nothing handles. A remote-supplied
// tag must not be able to kill this rank's progress goroutine: count the
// message (the wave needs it), drop it, and surface the problem.
func (p *Proc) dropUnknown(m message) {
	p.det.MsgRecvdFrom(m.src)
	p.reject(fmt.Errorf("comm: rank %d: dropped message from rank %d with unknown tag %d", p.rank, m.src, m.tag))
}

// reject counts one dropped message and reports why through the error hook.
func (p *Proc) reject(err error) {
	p.dropped++
	if p.onError != nil {
		p.onError(err)
	}
}
