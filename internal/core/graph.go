package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gottg/internal/comm"
	"gottg/internal/metrics"
	"gottg/internal/rt"
	"gottg/internal/xsync"
)

// Graph is a template task graph bound to a runtime instance. Typical use:
//
//	g := core.New(rt.OptimizedConfig(0))
//	e := core.NewEdge("data")
//	prod := g.NewTT("producer", 1, 1, prodBody)
//	cons := g.NewTT("consumer", 1, 0, consBody)
//	prod.Out(0, e)
//	e.To(cons, 0)
//	g.MakeExecutable()
//	g.Invoke(prod, 0, initialDatum)
//	g.Wait()
//
// One Graph drives one execution; construct a fresh Graph (cheap) per run.
type Graph struct {
	cfg rt.Config
	rtm *rt.Runtime
	tts []*TT

	frozen bool
	causal bool // EnableCausalTracing: deliveries record span causality

	// waitCalled guards against double Wait; endOnce makes the seed-guard
	// release (EndAction) safe under concurrent/repeated Wait and WaitFor
	// callers; sweepOnce spawns the abort sweeper at most once.
	waitCalled atomic.Bool
	endOnce    sync.Once
	sweepOnce  sync.Once

	// distributed state (size == 1 means purely shared-memory)
	proc *comm.Proc
	rank int
	size int

	// ft holds the fail-stop recovery state (nil unless
	// EnableFaultTolerance); see recover.go.
	ft *ftState

	// steal holds the work-stealing policy state (nil unless
	// EnableWorkStealing); see steal.go.
	steal *stealState

	// gobEnc/gobDec are the per-peer cached gob streams (codec.go), built by
	// MakeExecutable on non-FT distributed graphs; nil otherwise.
	gobEnc []*streamEnc
	gobDec []*streamDec

	// mx holds the graph-level sharded counters (nil when metrics are off);
	// see EnableMetrics.
	mx *graphMetrics

	// prio is the online bottom-level estimator (nil unless AutoPriority).
	// prioUpdates counts its online refinements (core.priority_updates); it
	// lives here, not in prio, because a metrics sampler may read it before
	// MakeExecutable creates prio.
	prio        *prioState
	prioUpdates atomic.Int64

	// aggs are the per-worker-identity Aggregate free lists (aggregator.go),
	// indexed by HTSlot; nil when Config.UsePools is off.
	aggs []aggFreeList

	// eventH is the lifecycle event hook (events.go); atomic so it can be
	// installed mid-run and read from worker and comm goroutines.
	eventH atomic.Pointer[EventHook]
}

// graphMetrics are the discovery-path counters: hash-table lookups split by
// outcome, insertions of newly discovered pending tasks, and removals of
// tasks that became eligible, plus the wire-codec split (payloads encoded by
// a fast-path codec vs. falling back to gob). Sharded by worker identity.
type graphMetrics struct {
	htFindHit  *metrics.Counter
	htFindMiss *metrics.Counter
	htInsert   *metrics.Counter
	htRemove   *metrics.Counter
	codecFast  *metrics.Counter
	codecGob   *metrics.Counter
}

// New creates a shared-memory graph with its own runtime.
func New(cfg rt.Config) *Graph {
	g := &Graph{cfg: cfg.Normalize(), rtm: rt.New(cfg), size: 1}
	g.installFaultHooks()
	return g
}

// NewDistributed creates the local-rank replica of a distributed graph. The
// proc endpoint must come from a comm.World shared by all ranks and must not
// be started yet; MakeExecutable starts it. Every rank builds the same
// topology (SPMD) and TTs use WithMapper to partition keys.
func NewDistributed(cfg rt.Config, proc *comm.Proc) *Graph {
	g := &Graph{
		cfg:  cfg.Normalize(),
		rtm:  rt.New(cfg),
		proc: proc,
		rank: proc.Rank(),
		size: proc.Size(),
	}
	g.installFaultHooks()
	return g
}

// Runtime exposes the underlying runtime (stats, configuration).
func (g *Graph) Runtime() *rt.Runtime { return g.rtm }

// Rank returns this replica's rank (0 in shared memory).
func (g *Graph) Rank() int { return g.rank }

// Size returns the number of ranks (1 in shared memory).
func (g *Graph) Size() int { return g.size }

func (g *Graph) mustBeOpen() {
	if g.frozen {
		panic("ttg: graph already executable")
	}
}

// NewTT adds a template task with nIn input and nOut output terminals.
func (g *Graph) NewTT(name string, nIn, nOut int, body Body) *TT {
	g.mustBeOpen()
	if nIn < 1 {
		panic("ttg: a TT needs at least one input terminal")
	}
	if nIn > rt.MaxInlineInputs {
		panic(fmt.Sprintf("ttg: %s: %d input terminals exceeds the supported %d", name, nIn, rt.MaxInlineInputs))
	}
	tt := &TT{
		g:       g,
		id:      len(g.tts),
		name:    name,
		nIn:     nIn,
		nOut:    nOut,
		body:    body,
		outs:    make([]*Edge, nOut),
		inBound: make([]bool, nIn),
		slots:   make([]inputSlot, nIn),
		created: make([]xsync.PaddedInt64, g.cfg.Workers+numServiceIdentities),
	}
	g.tts = append(g.tts, tt)
	return tt
}

// MakeExecutable freezes the topology, builds per-TT discovery hash tables,
// starts the communication endpoint (distributed) and launches the workers.
// After this, Invoke* seeds tasks and Wait blocks until global termination.
func (g *Graph) MakeExecutable() {
	g.mustBeOpen()
	g.frozen = true
	if g.cfg.AutoPriority {
		g.prio = newPrioState(g)
	}
	if g.cfg.UsePools {
		g.aggs = make([]aggFreeList, g.cfg.Workers+numServiceIdentities)
	}
	for _, tt := range g.tts {
		tt.bypass = g.cfg.HTBypassSingleInput && tt.nIn == 1 && tt.slots[0].kind == slotPlain
		if !tt.bypass {
			tt.ht = g.rtm.NewTable()
			if reg := g.rtm.Metrics(); reg != nil {
				ht := tt.ht
				prefix := "core.ht." + tt.name
				reg.Func(prefix+".resizes", func() int64 { return int64(ht.Resizes()) })
				reg.Func(prefix+".buckets", func() int64 { return int64(ht.Buckets()) })
				reg.Func(prefix+".pending", func() int64 { return int64(ht.Len()) })
			}
		}
	}
	g.rtm.BeginAction() // seed guard, released by Wait
	if g.ft != nil {
		for _, tt := range g.tts {
			if tt.mapFn == nil {
				panic(fmt.Sprintf(
					"ttg: EnableFaultTolerance requires a mapper on every TT (%s has none): unmapped tasks cannot be re-homed after a rank failure", tt.name))
			}
		}
	}
	if g.size > 1 {
		handler := g.handleActivation
		if g.ft != nil {
			handler = g.handleActivationFT
		} else {
			// Per-peer cached gob streams need in-order point-to-point bytes,
			// which the FT replay/re-route paths cannot promise — FT payloads
			// stay self-contained instead.
			g.initStreamGob()
		}
		g.proc.RegisterBatched(activationTag, handler)
		g.proc.SetOnAbort(func(src int, reason string) {
			g.rtm.Abort(fmt.Errorf("ttg: aborted by rank %d: %s", src, reason))
		})
		g.proc.SetOnError(func(err error) { g.rtm.Abort(err) })
		if g.steal != nil {
			if g.proc.FailureDetectionOn() && g.ft == nil {
				panic("ttg: work stealing on a failure-detecting world requires EnableFaultTolerance: a steal racing a rank death needs the two-phase commit and the donation sweep")
			}
			g.installSteal()
		}
		// Coalesced activations need no idle flush: comm ships a batch at
		// once toward an idle link and on the ack that empties a busy one.
		// With stealing on, an idle worker is the trigger to go find remote
		// work.
		if g.steal != nil {
			g.rtm.SetIdleHook(g.maybeSteal)
		}
		// Idle workers read the wire themselves before they park, and pay
		// the acks the frames they fetched left owed; while a worker is
		// awake, an ack may wait to ride on a frame it sends.
		g.rtm.SetPollHook(g.proc.Poll)
		g.proc.SetAwake(g.rtm.Awake)
		g.proc.Start(g.rtm.Det, func() {
			g.rtm.SignalDone()
			if g.steal != nil {
				g.steal.retry.Stop()
			}
		})
		g.rtm.Start(true)
	} else {
		g.rtm.Start(false)
	}
	if g.rtm.Aborting() {
		// Aborted during construction: there are hash tables to sweep now.
		g.startSweeper()
	}
}

// Invoke seeds the task for key on tt's input terminal 0 with value v.
// In distributed graphs, seeds whose key maps to another rank are dropped —
// every rank invokes the same seeds and only the owner keeps them (SPMD).
func (g *Graph) Invoke(tt *TT, key uint64, v any) {
	g.InvokeInput(tt, 0, key, v)
}

// InvokeControl seeds a pure control-flow activation (no data).
func (g *Graph) InvokeControl(tt *TT, key uint64) {
	g.seed(tt, 0, key, nil)
}

// InvokeInput seeds input terminal `slot` of tt for key with value v.
func (g *Graph) InvokeInput(tt *TT, slot int, key uint64, v any) {
	sw := g.rtm.ServiceWorker(0)
	g.seed(tt, slot, key, sw.NewCopy(v))
}

func (g *Graph) seed(tt *TT, slot int, key uint64, c *rt.Copy) {
	if !g.frozen {
		panic("ttg: Invoke before MakeExecutable")
	}
	sw := g.rtm.ServiceWorker(0)
	if g.rtm.Aborting() {
		// Seeds racing an abort are dropped silently: the abort is reported
		// through Wait, crashing the seeding loop would only obscure it.
		if c != nil {
			c.Release(sw)
		}
		return
	}
	select {
	case <-g.rtm.Done():
		panic("ttg: Invoke after graph termination")
	default:
	}
	// Seeding after a timed-out WaitFor is allowed: the graph is still
	// running (it has pending tasks), so termination cannot race the seed.
	if g.size > 1 && tt.mapFn != nil && tt.mapFn(key) != g.rank {
		if g.ft != nil {
			// SPMD: every rank sees every seed, so instead of dropping a
			// remote-owned one, retain it — if its owner dies, the successor
			// re-delivers it from this log.
			g.ft.logSeed(sw, tt, slot, key, c)
			return
		}
		if c != nil {
			c.Release(sw) // another rank owns this seed
		}
		return
	}
	g.deliver(sw, dest{tt: tt, slot: slot}, key, c, true)
}

// Wait releases the seed guard and blocks until termination of the whole
// graph (all ranks, in distributed mode), then returns the first task error
// — nil on a clean run, a *rt.TaskError when a body panicked, or whatever
// error Abort was called with. It may be called once (WaitFor may precede
// it).
func (g *Graph) Wait() error {
	if !g.frozen {
		panic("ttg: Wait before MakeExecutable")
	}
	if !g.waitCalled.CompareAndSwap(false, true) {
		panic("ttg: Wait called twice")
	}
	g.endSeed()
	g.rtm.WaitDone()
	return g.rtm.Err()
}

// endSeed releases the seed guard exactly once, however many waiters race.
func (g *Graph) endSeed() {
	g.endOnce.Do(g.rtm.EndAction)
}

// Dot renders the template task graph (TTs and edge wiring, not the
// unrolled task graph) in Graphviz dot format — handy for documenting an
// application's data-flow structure.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph ttg {\n  rankdir=LR;\n  node [shape=record];\n")
	for _, tt := range g.tts {
		fmt.Fprintf(&b, "  tt%d [label=\"%s|in:%d|out:%d\"];\n", tt.id, tt.name, tt.nIn, tt.nOut)
	}
	for _, tt := range g.tts {
		for term, e := range tt.outs {
			if e == nil {
				continue
			}
			for _, d := range e.dests {
				fmt.Fprintf(&b, "  tt%d -> tt%d [label=\"%s (%d→%d)\"];\n",
					tt.id, d.tt.id, e.name, term, d.slot)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// EnableTracing records every task execution (name, key, worker, time,
// duration); dump with WriteChromeTrace after Wait. Must be called before
// MakeExecutable. In distributed graphs, enable comm.World tracing as well
// to interleave message events on the same timeline.
func (g *Graph) EnableTracing() {
	g.mustBeOpen()
	g.rtm.EnableTracing()
}

// EnableCausalTracing extends EnableTracing with causality: every task span
// records the spans whose sends satisfied its inputs (locally and, for
// distributed graphs, across ranks via the comm frame id that carried the
// activation), plus discovery/ready timestamps. Feed the recorded trace to
// obs/critpath for critical-path analysis. This is an explicitly paid-for
// profiling mode (one span allocation per task plus a wider activation wire
// header); must be called before MakeExecutable. Not supported together with
// EnableFaultTolerance's wire path: FT graphs keep local causality only
// (remote causes appear as roots).
func (g *Graph) EnableCausalTracing() {
	g.mustBeOpen()
	g.rtm.EnableCausalTracing()
	g.causal = true
}

// EnableMetrics switches on the unified observability layer for this graph:
// the runtime's scheduler/pool/execution metrics plus the discovery-path
// hash-table counters and per-TT table gauges. Must be called before
// MakeExecutable; idempotent. Returns the registry for callers that want to
// attach their own metrics or poll snapshots mid-run.
func (g *Graph) EnableMetrics() *metrics.Registry {
	g.mustBeOpen()
	reg := g.rtm.EnableMetrics()
	if g.mx == nil {
		g.mx = &graphMetrics{
			htFindHit:  reg.Counter("core.ht.find.hit"),
			htFindMiss: reg.Counter("core.ht.find.miss"),
			htInsert:   reg.Counter("core.ht.insert"),
			htRemove:   reg.Counter("core.ht.remove"),
			codecFast:  reg.Counter("core.codec_fastpath"),
			codecGob:   reg.Counter("core.codec_gob"),
		}
		reg.Func("core.errors_suppressed", g.rtm.SuppressedErrors)
		reg.Func("core.priority_updates", g.prioUpdates.Load)
		reg.Func("core.tasks_reexecuted", func() int64 {
			if ft := g.ft; ft != nil {
				return ft.reexec.Load()
			}
			return 0
		})
		reg.Func("core.keys_remapped", func() int64 {
			if ft := g.ft; ft != nil {
				return ft.remapped.Load()
			}
			return 0
		})
		reg.Func("core.steal.stolen_tasks", func() int64 {
			if s := g.steal; s != nil {
				return s.stolen.Load()
			}
			return 0
		})
		reg.Func("core.steal.donated_tasks", func() int64 {
			if s := g.steal; s != nil {
				return s.donated.Load()
			}
			return 0
		})
		reg.Func("core.steal.rehomed_tasks", func() int64 {
			if s := g.steal; s != nil {
				return s.rehomed.Load()
			}
			return 0
		})
	}
	return reg
}

// Metrics returns the registry installed by EnableMetrics (nil when off).
func (g *Graph) Metrics() *metrics.Registry { return g.rtm.Metrics() }

// MetricsSnapshot merges all graph and runtime metrics. Safe at any time,
// including mid-run (a metrics endpoint can poll it); zero Snapshot when
// metrics are off.
func (g *Graph) MetricsSnapshot() metrics.Snapshot { return g.rtm.MetricsSnapshot() }

// ChromeEvents merges the runtime's task trace (pid = this replica's rank)
// with the rank's communication events, when the respective tracing layers
// are enabled. Only meaningful after Wait.
func (g *Graph) ChromeEvents() []metrics.ChromeEvent {
	evs := g.rtm.ChromeEvents(g.rank)
	if g.proc != nil {
		evs = append(evs, g.proc.ChromeEvents()...)
	}
	if g.mx != nil && len(evs) > 0 {
		evs = append(evs, metrics.CounterEvent("core.codec", g.rank, time.Now(), map[string]any{
			"fastpath": g.mx.codecFast.Value(),
			"gob":      g.mx.codecGob.Value(),
		}))
	}
	return evs
}

// WriteChromeTrace dumps the merged task + communication trace in Chrome
// trace-viewer JSON (load via chrome://tracing or Perfetto). Call after
// Wait; errors before the workers have joined.
func (g *Graph) WriteChromeTrace(w io.Writer) error {
	if !g.rtm.Joined() {
		return fmt.Errorf("ttg: WriteChromeTrace before Wait returned")
	}
	return metrics.WriteChromeTrace(w, g.ChromeEvents())
}

// Report writes a post-run summary: per-TT task counts and aggregate
// worker statistics. Only meaningful after Wait.
func (g *Graph) Report(w io.Writer) {
	fmt.Fprintf(w, "graph report (rank %d/%d, %d workers, %s scheduler)\n",
		g.rank, g.size, g.cfg.Workers, g.rtm.SchedulerName())
	for _, tt := range g.tts {
		fmt.Fprintf(w, "  %-24s %10d tasks\n", tt.name, tt.TasksCreated())
	}
	exec, steals, parks := g.rtm.Stats()
	fmt.Fprintf(w, "  executed %d, steals %d, parks %d\n", exec, steals, parks)
}

// Check returns human-readable warnings about suspicious topology:
// unconnected output terminals (sending into them panics at runtime) and
// input terminals with no producing edge (their tasks can only be fed via
// Invoke). Usable any time after wiring; MakeExecutable does not call it.
func (g *Graph) Check() []string {
	var warns []string
	for _, tt := range g.tts {
		for term, e := range tt.outs {
			if e == nil {
				warns = append(warns, fmt.Sprintf(
					"%s: output terminal %d is not connected to an edge", tt.name, term))
			} else if len(e.dests) == 0 {
				warns = append(warns, fmt.Sprintf(
					"%s: output terminal %d feeds edge %q which has no destinations", tt.name, term, e.name))
			}
		}
		for slot, bound := range tt.inBound {
			if !bound {
				warns = append(warns, fmt.Sprintf(
					"%s: input terminal %d has no producing edge (Invoke-only)", tt.name, slot))
			}
		}
	}
	return warns
}

// PendingSummary describes tasks stuck waiting for inputs, for hang
// diagnosis.
func (g *Graph) PendingSummary() string {
	var b strings.Builder
	total := 0
	for _, tt := range g.tts {
		if n := tt.Pending(); n > 0 {
			total += n
			keys := tt.PendingKeys(4)
			fmt.Fprintf(&b, "  %s: %d incomplete task(s), sample keys %v\n", tt.name, n, keys)
		}
	}
	if total == 0 {
		return "no incomplete tasks tabled (producers may still be queued or running)\n"
	}
	return b.String()
}

// WaitFor is Wait with a deadline: it returns nil on clean termination, the
// first task error if the graph terminated by abort, or a timeout error
// carrying the pending-task summary if the graph has not completed within
// d. The graph keeps running after a timeout; call WaitFor (or Wait) again
// to continue waiting. Safe for concurrent and repeated callers: the seed
// guard is released exactly once and the poll timer is stopped on exit
// rather than leaked.
func (g *Graph) WaitFor(d time.Duration) error {
	if !g.frozen {
		panic("ttg: WaitFor before MakeExecutable")
	}
	g.endSeed()
	// A terminated graph must win over a deadline that already lapsed:
	// select picks at random among ready cases, so look at Done alone first.
	select {
	case <-g.rtm.Done():
		g.rtm.WaitDone()
		return g.rtm.Err()
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-g.rtm.Done():
		g.rtm.WaitDone()
		return g.rtm.Err()
	case <-timer.C:
		return fmt.Errorf("ttg: graph not terminated after %v; incomplete tasks:\n%s", d, g.PendingSummary())
	}
}
