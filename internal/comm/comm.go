// Package comm provides the inter-process communication substrate that TTG
// uses for distributed-memory execution: a World of N ranks, each with
// active-message dispatch and the 4-counter-wave termination protocol of
// paper §III-A driven by rank 0.
//
// There is no communication thread. The goroutine that receives a frame — a
// socket reader, or an in-memory endpoint's delivery goroutine — runs the
// link layer and the frame's handler itself, under the rank's receive lock
// (Proc.rx), as TaskTorrent's active messages do. Time-driven work runs on
// timers that are armed only while there is something to time: the link
// timer while a link holds unacked or out-of-order frames, and the heartbeat
// timer while failure detection is on; each callback takes the receive lock.
// Work that other goroutines hand the rank — a quiescence notification, a
// self-send — is delegated to the receive lock's holder: the poster runs it
// itself when the lock is free and otherwise leaves it for unlockRx, which
// every holder releases the lock through. An idle rank has no goroutine and
// no armed timer of its own.
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

// Handler processes an application-level active message under the
// destination rank's receive lock, on the goroutine that delivered the frame.
// Handlers of one rank never run concurrently, and must not block.
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
	// transmission instead of delivering it, and the rank timers stop.
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
		handlers: map[int]Handler{},
		batchTag: -1,
	}
	p.initLinks(len(w.procs))
	p.linkTimer = time.AfterFunc(time.Hour, p.onLinkTimer)
	p.linkTimer.Stop() // armed by armLinks, never allocated again
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

// Shutdown closes the wire, stops the rank timers and closes the local
// transports (which cancels any delayed-fault frames still pending and joins
// the goroutines that deliver frames). Safe after termination; this is what
// stops the link timers that keep retransmitting after termination, and the
// deliveries that keep re-acking duplicates. A timer callback that races it
// finds the wire closed and neither works nor re-arms. Idempotent, and safe
// even when some ranks were never started.
func (w *World) Shutdown() {
	// Close the wire FIRST (atomically snapshotting whether we are the call
	// that closed it), then drain the batch buffers. The old order — check
	// closed, drain, then store — left a window in which a concurrent sender
	// could re-arm a flush between the drain loop and the close and post a
	// frame into a half-closed wire. With closed set up front, the drain
	// below (and any racing flush-on-size) still empties the buffers and
	// counts the flush, but the wire discards the transmission. After clean
	// termination the buffers are empty anyway; this is hygiene for aborted
	// or harness-driven runs.
	if !w.closed.Swap(true) {
		for _, p := range w.local {
			p.FlushBatches(FlushShutdown)
		}
	}
	for _, p := range w.local {
		p.stopTimers()
		p.tr.Close()
	}
}

// Proc is one rank: its transport endpoint, handlers, detector, timers, and
// the state of each protocol layer, every one owned by its file.
type Proc struct {
	rank     int
	world    *World
	tr       Transport // this rank's endpoint, behind the fault decorator when one is installed
	handlers map[int]Handler
	det      *termdet.Detector

	// rx is the receive lock. Every inbound message runs the link layer and
	// its handler under it, on whichever goroutine delivered it, and so do
	// the timer callbacks; every field below documented as rx-private is
	// touched only under it. It is released only through unlockRx.
	rx sync.Mutex

	// Work delegated to the receive lock's holder (unlockRx): an owed
	// quiescence notification, and the queued messages in arrival order —
	// self-sends, and the frames that arrive before Start. Each flag is set
	// before the poster tries the lock.
	qOwed    atomic.Bool
	queued   atomic.Bool
	queueMu  sync.Mutex
	queue    []message   // guarded by queueMu
	draining []message   // rx-private: the queued messages being dispatched
	launched atomic.Bool // Start ran: frames dispatch in place, the queue drains

	// linkTimer runs retransmission and the stall check while a link holds
	// unacked or out-of-order frames; armed is set while it is pending
	// (link.go). beat, created by Start with failure detection on, runs the
	// heartbeats and suspicion (failure.go). Both stay off once failStop
	// ran (halted).
	linkTimer *time.Timer
	armed     atomic.Bool
	beat      *time.Timer
	halted    atomic.Bool

	// Chrome-trace event log (World.EnableTracing); guarded because Send may
	// run on any goroutine. asyncSeq numbers the async ("b"/"e") dispatch
	// span pairs, also under traceMu.
	traceMu  sync.Mutex
	traceEvs []metrics.ChromeEvent
	asyncSeq uint64

	onTerminate func()
	onError     func(err error)
	onAbort     func(src int, reason string)
	onRankDead  func(dead, epoch int)  // under rx, after membership update
	onKilled    func()                 // any goroutine, when this rank is fail-stopped
	onPrune     func(src int, n int64) // under rx: src dispatched n of our app sends
	telemetryH  func(src int, payload []byte)

	// Link-layer state (see link.go). sendLinks is indexed by destination
	// and guarded by its per-link mutex (Send may be called from any
	// goroutine); recvLinks is indexed by source and rx-private, like
	// lastActivity and the stall latch.
	sendLinks    []sendLink
	recvLinks    []recvLink
	lastActivity time.Time
	stalled      bool

	// Activation coalescing state (see batch.go). batch is indexed by
	// destination; batchTag is the single batched application tag (-1 when
	// none); slabs is this rank's pool of recycled frame buffers. frameSeq
	// numbers flushed frames (any goroutine may flush); curFrameID is the id
	// of the frame being unpacked, rx-private, exposed to batched handlers
	// via DispatchFrameID for causal tracing.
	batch      []batchBuf
	batchTag   int
	slabMu     sync.Mutex
	slabs      [][]byte
	frameSeq   atomic.Uint64
	curFrameID uint64

	// frames allocates outbound wire frames; transmit runs on any
	// goroutine, hence framesMu.
	framesMu sync.Mutex
	frames   FrameAlloc

	// rx-private bookkeeping, like the protocol states below
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

// SetOnError installs a hook invoked under the rank's receive lock, on the
// goroutine that delivered the frame, when a message must be dropped (for
// example an unknown application tag, which a remote rank could otherwise use
// to take this rank down). The dropped message is still counted as received
// so the termination wave stays balanced. Must be called before Start.
func (p *Proc) SetOnError(f func(err error)) { p.onError = f }

// SetOnAbort installs a hook invoked under the rank's receive lock, on the
// goroutine that delivered the frame, when a remote rank broadcasts an abort.
// Must be called before Start.
func (p *Proc) SetOnAbort(f func(src int, reason string)) { p.onAbort = f }

// Start attaches the rank's termination detector and termination callback,
// arms the heartbeat timer when failure detection is on, and dispatches the
// frames that arrived earlier (unlockRx). From here on inbound frames are
// dispatched as they arrive. The detector's quiescence callback is claimed
// by comm; runtimes in distributed mode must not set their own.
func (p *Proc) Start(det *termdet.Detector, onTerminate func()) {
	p.rx.Lock()
	p.det = det
	p.onTerminate = onTerminate
	p.world.started.Store(true)
	if fd := p.world.fd; fd != nil {
		det.EnablePeerCounts(len(p.world.procs))
		p.mem.init(len(p.world.procs))
		p.beat = time.AfterFunc(fd.Heartbeat, p.fdTick)
	}
	det.SetOnQuiescent(p.oweQuiescence)
	p.lastActivity = time.Now()
	p.launched.Store(true)
	p.unlockRx()
}

// oweQuiescence is the detector's quiescence callback. It never blocks: the
// detector may call it under rx (a handler completing the last pending
// action, or applyRankDead), so it leaves the notification to the lock's
// holder when the lock is taken.
func (p *Proc) oweQuiescence() {
	p.qOwed.Store(true)
	if p.rx.TryLock() {
		p.unlockRx()
	}
}

// enqueue queues m for dispatch by the receive lock's holder: a self-send,
// run after the handler that posted it returns, or a frame that arrived
// before Start. Any goroutine may enqueue.
func (p *Proc) enqueue(m message) {
	p.queueMu.Lock()
	p.queue = append(p.queue, m)
	p.queued.Store(true)
	p.queueMu.Unlock()
	if p.rx.TryLock() {
		p.unlockRx()
	}
}

// owed reports whether work waits for the receive lock's holder; none is
// run before Start.
func (p *Proc) owed() bool {
	return p.launched.Load() && (p.qOwed.Load() || p.queued.Load())
}

// unlockRx releases the receive lock. First it runs the work delegated to
// the holder — an owed quiescence notification, then the queued messages in
// FIFO order, one batch at a time, never recursively — until none is left.
// Work posted after that check is caught after the unlock: a poster sets its
// flag before it tries the lock, and this reads the flags after it unlocks,
// so with sequentially consistent atomics one side sees the other and
// whoever gets the lock runs the work.
func (p *Proc) unlockRx() {
	for {
		for p.owed() {
			if p.qOwed.Swap(false) {
				p.handleQuiescent()
			}
			if p.queued.Swap(false) {
				p.queueMu.Lock()
				p.draining, p.queue = p.queue, p.draining[:0]
				p.queueMu.Unlock()
				for _, m := range p.draining {
					p.receive(m)
				}
				clear(p.draining)
			}
		}
		p.rx.Unlock()
		if !p.owed() || !p.rx.TryLock() {
			return
		}
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
// tag must not be able to take this rank down: count the message (the wave
// needs it), drop it, and surface the problem.
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
