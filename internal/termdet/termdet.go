// Package termdet implements the termination-detection machinery of paper
// §III-A and its optimization from §IV-B.
//
// A TTG application terminates when the number of pending tasks and actions
// reaches zero on every process and no messages are in flight. PaRSEC uses a
// "4-counter wave": each process tracks locally pending work plus the number
// of messages sent and received; when a process is locally quiescent it
// contributes to a reduction, and the root announces termination after two
// consecutive reductions in which total-sent equals total-received and
// neither changed.
//
// The Detector implements the *local* part in two modes:
//
//   - Process mode (the original): every task discovery/completion performs
//     an atomic increment/decrement on a single process-wide counter — the
//     contended variable the paper identifies as a scalability choke point.
//
//   - Thread-local mode (the optimization): each worker accumulates its
//     discovered-minus-executed delta in a private, cache-line-padded,
//     non-atomic cell and pushes it to the process-wide counter only when
//     the worker falls idle. Unless starvation/recovery cycles are frequent,
//     updates of the shared counter are rare events.
//
// The cross-process wave lives in package comm, which drives Detector's
// Quiescent/Counts APIs.
package termdet

import (
	"fmt"
	"sync/atomic"

	"gottg/internal/xsync"
)

// ExternalSlot designates a caller without a worker identity (the main
// goroutine seeding a graph, or a communication handler running on the
// goroutine that delivered its frame). Such callers always update the
// process-wide counter atomically.
const ExternalSlot = -1

// Detector tracks pending work for one process.
type Detector struct {
	pending atomic.Int64 // process-wide pending tasks + actions
	sent    atomic.Int64 // messages sent to other processes
	recvd   atomic.Int64 // messages received from other processes
	idle    atomic.Int32 // workers currently idle (flushed)
	flushes atomic.Int64 // statistic: pushes of thread-local deltas

	workers     int
	threadLocal bool
	cells       []xsync.Cell

	// Per-peer message counters, allocated by EnablePeerCounts. They let the
	// termination wave exclude traffic exchanged with a failed rank: a dead
	// rank never reports its own counters, so any messages counted against it
	// would unbalance sent/recvd forever and the wave would never stabilize.
	sentTo    []atomic.Int64
	recvdFrom []atomic.Int64

	onQuiescent func()
}

// New creates a Detector for `workers` worker threads. When threadLocal is
// true, per-worker counting uses private cells flushed on idle (§IV-B);
// otherwise every event hits the shared atomic counter (original behaviour).
func New(workers int, threadLocal bool) *Detector {
	if workers < 1 {
		workers = 1
	}
	return &Detector{
		workers:     workers,
		threadLocal: threadLocal,
		cells:       make([]xsync.Cell, workers),
	}
}

// SetOnQuiescent registers a callback invoked (possibly repeatedly) by the
// worker that observes full local quiescence: all workers idle with flushed
// cells and zero pending work. Must be set before workers start.
func (d *Detector) SetOnQuiescent(f func()) { d.onQuiescent = f }

// Discovered records the discovery of one task or pending action by the
// worker occupying `slot` (ExternalSlot for non-workers).
func (d *Detector) Discovered(slot int) {
	if d.threadLocal && slot >= 0 {
		d.cells[slot].Delta++
		return
	}
	d.pending.Add(1)
}

// Completed records the completion of one task or action.
func (d *Detector) Completed(slot int) {
	if d.threadLocal && slot >= 0 {
		d.cells[slot].Delta--
		return
	}
	if d.pending.Add(-1) == 0 && int(d.idle.Load()) == d.workers {
		d.fireQuiescent()
	}
}

// Flush pushes the worker's locally accumulated delta to the process-wide
// counter. Called when the worker falls idle; a no-op in process mode or
// when the cell is already clean.
func (d *Detector) Flush(slot int) {
	if !d.threadLocal || slot < 0 {
		return
	}
	if delta := d.cells[slot].Delta; delta != 0 {
		d.cells[slot].Delta = 0
		d.flushes.Add(1)
		if d.pending.Add(delta) == 0 && int(d.idle.Load()) == d.workers {
			d.fireQuiescent()
		}
	}
}

// EnterIdle transitions a worker into the idle state: its cell is flushed,
// the idle count rises, and—if this made the process locally quiescent—the
// quiescence callback fires. The worker must call LeaveIdle before doing any
// further work.
func (d *Detector) EnterIdle(slot int) {
	d.Flush(slot)
	if int(d.idle.Add(1)) == d.workers && d.pending.Load() == 0 {
		d.fireQuiescent()
	}
}

// fireQuiescent invokes the quiescence callback. Callers have just observed
// the quiescence condition; consumers must tolerate repeat invocations.
func (d *Detector) fireQuiescent() {
	if f := d.onQuiescent; f != nil {
		f()
	}
}

// LeaveIdle transitions a worker back to working state.
func (d *Detector) LeaveIdle(slot int) {
	d.idle.Add(-1)
}

// Quiescent reports whether the process is locally quiescent right now:
// every worker idle (hence flushed) and no pending work. With sequentially
// consistent atomics this check is exact, not approximate.
func (d *Detector) Quiescent() bool {
	return int(d.idle.Load()) == d.workers && d.pending.Load() == 0
}

// MsgSent records an outbound inter-process message.
func (d *Detector) MsgSent() { d.sent.Add(1) }

// MsgRecvd records a fully handled inbound inter-process message.
func (d *Detector) MsgRecvd() { d.recvd.Add(1) }

// EnablePeerCounts allocates per-peer message counters for a world of n
// ranks. Must be called before any messages are counted (comm does this when
// failure detection is enabled).
func (d *Detector) EnablePeerCounts(n int) {
	if d.sentTo == nil {
		d.sentTo = make([]atomic.Int64, n)
		d.recvdFrom = make([]atomic.Int64, n)
	}
}

// MsgSentTo records an outbound message addressed to peer. Falls back to
// MsgSent when per-peer counting is disabled.
func (d *Detector) MsgSentTo(peer int) {
	d.sent.Add(1)
	if d.sentTo != nil {
		d.sentTo[peer].Add(1)
	}
}

// MsgRecvdFrom records a fully handled inbound message from peer.
func (d *Detector) MsgRecvdFrom(peer int) {
	d.recvd.Add(1)
	if d.recvdFrom != nil {
		d.recvdFrom[peer].Add(1)
	}
}

// Counts returns the message counters contributed to the termination wave.
func (d *Detector) Counts() (sent, recvd int64) {
	return d.sent.Load(), d.recvd.Load()
}

// CountsExcluding returns the wave counters with all traffic exchanged with
// ranks marked dead subtracted out. A fail-stop rank takes its own counters
// to the grave; survivors must therefore stop counting messages to/from it or
// the global sent==recvd balance can never be restored. Requires
// EnablePeerCounts; with nil dead (or no dead ranks) it equals Counts.
func (d *Detector) CountsExcluding(dead []bool) (sent, recvd int64) {
	sent, recvd = d.sent.Load(), d.recvd.Load()
	if d.sentTo == nil || dead == nil {
		return sent, recvd
	}
	for peer, isDead := range dead {
		if isDead {
			sent -= d.sentTo[peer].Load()
			recvd -= d.recvdFrom[peer].Load()
		}
	}
	return sent, recvd
}

// PendingApprox returns the process-wide pending counter. In thread-local
// mode unflushed worker deltas are not included, so the value is only exact
// at quiescence.
func (d *Detector) PendingApprox() int64 { return d.pending.Load() }

// Flushes returns how many times a thread-local delta was pushed to the
// shared counter — the paper's claim is that this stays small compared to
// the task count.
func (d *Detector) Flushes() int64 { return d.flushes.Load() }

// IdleWorkers returns the number of currently idle workers (diagnostics).
func (d *Detector) IdleWorkers() int { return int(d.idle.Load()) }

// DebugString renders the detector's shared counters for hang diagnostics
// (stall watchdogs, PendingSummary). Thread-local cells are not included,
// so pending is only exact at quiescence.
func (d *Detector) DebugString() string {
	return fmt.Sprintf("pending≈%d sent=%d recvd=%d idle=%d/%d",
		d.pending.Load(), d.sent.Load(), d.recvd.Load(), d.idle.Load(), d.workers)
}

// Reset returns the detector to its initial state so a runtime can execute
// another graph. Not safe to call while workers are active.
func (d *Detector) Reset() {
	d.pending.Store(0)
	d.sent.Store(0)
	d.recvd.Store(0)
	d.idle.Store(0)
	d.flushes.Store(0)
	for i := range d.cells {
		d.cells[i].Delta = 0
	}
	for i := range d.sentTo {
		d.sentTo[i].Store(0)
		d.recvdFrom[i].Store(0)
	}
}
