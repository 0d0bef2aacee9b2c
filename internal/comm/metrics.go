package comm

import (
	"fmt"
	"time"

	"gottg/internal/metrics"
)

// commMetrics bundles the world's sharded wire metrics. The shard index is
// the rank performing the operation (for fault counters: the source rank of
// the faulted transmission), so updates are uncontended per rank.
type commMetrics struct {
	reg *metrics.Registry

	sent       *metrics.Counter // application messages sent
	recvd      *metrics.Counter // application messages dispatched to handlers
	bytesSent  *metrics.Counter // application payload bytes sent
	bytesRecvd *metrics.Counter // application payload bytes dispatched
	polled     *metrics.Counter // inbound frames a polling worker delivered
	ctrl       *metrics.Counter // sequenced control messages posted
	acks       *metrics.Counter // link-layer acks posted
	retrans    *metrics.Counter // frames resent after a connection cut

	batchSize *metrics.Histogram // activations per flushed frame (log2)
	// frames flushed per FlushReason: on the size threshold, on an idle
	// link or the ack that empties it, at World.Shutdown
	flushes [FlushShutdown + 1]*metrics.Counter

	faultDrop  *metrics.Counter // transmissions lost to the fault plan's or filter's cuts
	faultDelay *metrics.Counter // transmissions delayed

	telemetryFrames *metrics.Counter // telemetry-plane frames shipped
	telemetryBytes  *metrics.Counter // telemetry-plane payload bytes shipped
}

// EnableMetrics switches on wire metrics: one registry sharded per rank,
// counting application messages and bytes, wave control traffic, link-layer
// acks and frames resent after cuts, and injected faults by kind. Must be called
// before any Proc is started; idempotent. Returns the registry (distinct
// from any runtime registry — merge snapshots by name, the "comm." prefix
// keeps them disjoint).
func (w *World) EnableMetrics() *metrics.Registry {
	w.beforeStart("EnableMetrics")
	if w.mx != nil {
		return w.mx.reg
	}
	reg := metrics.NewRegistry(len(w.procs))
	w.mx = &commMetrics{
		reg:        reg,
		sent:       reg.Counter("comm.msgs.sent"),
		recvd:      reg.Counter("comm.msgs.recvd"),
		bytesSent:  reg.Counter("comm.bytes.sent"),
		bytesRecvd: reg.Counter("comm.bytes.recvd"),
		polled:     reg.Counter("comm.recv.polled"),
		ctrl:       reg.Counter("comm.ctrl.sent"),
		acks:       reg.Counter("comm.acks.sent"),
		retrans:    reg.Counter("comm.retransmits"),
		batchSize:  reg.Histogram("comm.batch_size"),
		flushes: [...]*metrics.Counter{
			FlushSize:     reg.Counter("comm.flushes.size"),
			FlushIdle:     reg.Counter("comm.flushes.idle"),
			FlushShutdown: reg.Counter("comm.flushes.shutdown"),
		},
		faultDrop:  reg.Counter("comm.fault.dropped"),
		faultDelay: reg.Counter("comm.fault.delayed"),

		telemetryFrames: reg.Counter("comm.telemetry.frames"),
		telemetryBytes:  reg.Counter("comm.telemetry.bytes"),
	}
	reg.Func("comm.rounds", func() int64 {
		// In a network world only the local rank exists; rounds are a
		// root-rank statistic, so non-root processes report 0.
		if p := w.procs[0]; p != nil {
			return p.wave.rounds.Load()
		}
		return 0
	})
	reg.Func("comm.rank_deaths", w.Deaths)
	reg.Func("comm.reconnects", w.Reconnects)
	reg.Func("termdet.wave_restarts", w.WaveRestarts)
	reg.Func("comm.steal_reqs", w.StealReqs)
	reg.Func("comm.steals", w.Steals)
	reg.Func("comm.steal_tasks", w.StealTasks)
	reg.Func("comm.steal_aborts", w.StealAborts)
	return reg
}

// Metrics returns the registry installed by EnableMetrics (nil when off).
func (w *World) Metrics() *metrics.Registry {
	if w.mx == nil {
		return nil
	}
	return w.mx.reg
}

// MetricsSnapshot merges the wire metrics; zero Snapshot when metrics are
// off. Safe at any time.
func (w *World) MetricsSnapshot() metrics.Snapshot {
	if w.mx == nil {
		return metrics.Snapshot{}
	}
	return w.mx.reg.Snapshot()
}

// EnableTracing records a Chrome trace event per application send (instant)
// and per handler dispatch (span), mergeable with the runtime's task trace
// on a shared timeline (pid = rank, tid = -1 for the comm thread). Must be
// called before any Proc is started.
func (w *World) EnableTracing() {
	w.beforeStart("EnableTracing")
	w.trace.Store(true)
}

// commTraceTid is the Chrome-trace thread id used for a rank's communication
// events, keeping them on a lane separate from worker tids (>= 0).
const commTraceTid = -1

// recordSend appends an instant event for an application send. Send is safe
// from any goroutine, so the log is mutex-guarded (tracing is opt-in).
// frame is the coalesced-frame id (0 for non-batched sends).
func (p *Proc) recordSend(dst, tag, bytes int, frame uint64) {
	args := map[string]any{"dst": dst, "tag": tag, "bytes": bytes}
	if frame != 0 {
		args["frame"] = frame
	}
	ev := metrics.ChromeEvent{
		Name:  fmt.Sprintf("send tag%d->%d", tag, dst),
		Cat:   "comm,send",
		Phase: "i",
		Start: time.Now(),
		Pid:   p.rank,
		Tid:   commTraceTid,
		Args:  args,
	}
	p.traceMu.Lock()
	p.traceEvs = append(p.traceEvs, ev)
	p.traceMu.Unlock()
}

// recordRecv appends a span covering one handler dispatch. Dispatches from
// several source ranks interleave on the rank's single receive trace lane
// (tid -1), so a complete-"X" event would render torn or spuriously
// nested in Perfetto; each dispatch is instead an async "b"/"e" pair with
// its own pairing id, which the viewer draws on a separate async track per
// id (the mutex only excludes concurrent senders appending to the log).
// frame is the coalesced-frame id (0 for non-batched dispatches).
func (p *Proc) recordRecv(src, tag, bytes int, frame uint64, start time.Time, dur time.Duration) {
	name := fmt.Sprintf("recv tag%d<-%d", tag, src)
	args := map[string]any{"src": src, "tag": tag, "bytes": bytes}
	if frame != 0 {
		args["frame"] = frame
	}
	p.traceMu.Lock()
	p.asyncSeq++
	id := uint64(p.rank+1)<<40 | p.asyncSeq
	p.traceEvs = append(p.traceEvs,
		metrics.ChromeEvent{
			Name: name, Cat: "comm,recv", Phase: "b",
			Start: start, Pid: p.rank, Tid: commTraceTid, ID: id, Args: args,
		},
		metrics.ChromeEvent{
			Name: name, Cat: "comm,recv", Phase: "e",
			Start: start.Add(dur), Pid: p.rank, Tid: commTraceTid, ID: id,
		})
	p.traceMu.Unlock()
}

// ChromeEvents returns this rank's recorded communication events (nil when
// tracing is off). Safe at any time; returns a copy.
func (p *Proc) ChromeEvents() []metrics.ChromeEvent {
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	if len(p.traceEvs) == 0 {
		return nil
	}
	out := make([]metrics.ChromeEvent, len(p.traceEvs))
	copy(out, p.traceEvs)
	return out
}

// flushCounter maps a flush reason to its counter (unknown reasons count as
// idle flushes).
func (m *commMetrics) flushCounter(r FlushReason) *metrics.Counter {
	if int(r) < len(m.flushes) {
		return m.flushes[r]
	}
	return m.flushes[FlushIdle]
}

// ChromeEvents returns the communication events of every rank merged (nil
// when tracing is off), followed — when metrics are also enabled — by "C"
// counter events summarizing the wire-path metrics (batch sizes, flush
// reasons) so the trace viewer shows the coalescing behaviour inline.
func (w *World) ChromeEvents() []metrics.ChromeEvent {
	var out []metrics.ChromeEvent
	for _, p := range w.local {
		out = append(out, p.ChromeEvents()...)
	}
	if mx := w.mx; mx != nil && len(out) > 0 {
		now := time.Now()
		hs := mx.batchSize.Snapshot()
		avg := 0.0
		if hs.Count > 0 {
			avg = float64(hs.Sum) / float64(hs.Count)
		}
		flushes := metrics.CounterEvent("comm.flushes", 0, now, map[string]any{
			"size":     mx.flushes[FlushSize].Value(),
			"idle":     mx.flushes[FlushIdle].Value(),
			"shutdown": mx.flushes[FlushShutdown].Value(),
		})
		batches := metrics.CounterEvent("comm.batch_size", 0, now, map[string]any{
			"frames":          hs.Count,
			"activations":     hs.Sum,
			"avg_activations": avg,
		})
		flushes.Tid = commTraceTid
		batches.Tid = commTraceTid
		out = append(out, flushes, batches)
	}
	return out
}
