package taskbench

import (
	"fmt"
	"sync"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
	"gottg/internal/core"
	"gottg/internal/metrics"
	"gottg/internal/obs"
	"gottg/internal/obs/critpath"
	"gottg/internal/obs/telemetry"
	"gottg/internal/rt"
)

// The distributed Task-Bench harness: one rank lifecycle (newRank → run →
// report → close), every rank on a World of its own over a transport, two
// launchers (RunDist for N ranks in this process, RunRank for one rank of a
// multi-process world) and one merge (MergeNetResults). This is the paper's
// seamless shared→distributed claim applied to the §V-D benchmark: the TTG
// program is the shared-memory one plus a process map; halo values cross
// rank boundaries as serialized activations. Every rank seeds the full SPMD
// iteration space (owners keep), executes its block partition and reports
// the last-timestep values IT computed; the merge checks that the reports
// cover every point and agree bit for bit wherever two ranks computed the
// same one (a failed rank's tasks re-executed elsewhere, a stolen task).

func init() {
	// pointVal is flat (two fixed-width scalars), so it rides the binary
	// fast-path codec instead of gob on the wire.
	core.RegisterFlatPayload(&pointVal{})
}

// Tuning selects the critical-path scheduling knobs for the TTG runners
// (Config.AutoPriority / InlineAuto / LockFreeHit), so harnesses can run
// paired off/on comparisons on otherwise identical paths.
type Tuning struct {
	Priority    bool  // online bottom-level priorities (Config.AutoPriority)
	InlineAuto  bool  // adaptive inline policy (Config.InlineAuto)
	LockFreeHit bool  // wait-free discovery-table hit path (Config.LockFreeHit)
	InlineNs    int64 // producer body-time ceiling override (0 = Config default)
}

// Apply writes the knobs into a runtime config.
func (tn Tuning) Apply(cfg *rt.Config) {
	cfg.AutoPriority = tn.Priority
	cfg.InlineAuto = tn.InlineAuto
	cfg.LockFreeHit = tn.LockFreeHit
	if tn.InlineNs > 0 {
		cfg.InlineThresholdNs = tn.InlineNs
	}
}

// DistOptions parameterizes a distributed Task-Bench run; the zero value of
// every field is "off".
type DistOptions struct {
	// Ranks is how many ranks RunDist launches (clamped to Spec.Width;
	// RunRank takes the world size from its transport), Workers the runtime
	// worker count of each, Sched their scheduler (zero value = LLP), Tune
	// the critical-path scheduling knobs.
	Ranks   int
	Workers int
	Sched   rt.SchedKind
	Tune    Tuning

	// TCP runs RunDist's ranks over loopback TCP transports instead of one
	// in-memory network. Fault, when non-nil, arms the socket-level fault
	// injector on every rank's TCP transport (per-rank seeds derived from
	// Fault.Seed).
	TCP   bool
	Fault *tcptransport.FaultConfig
	// Plan injects seeded frame faults (drop, duplicate, reorder, delay) on
	// every rank's transport, memory or TCP, with per-rank seeds derived
	// from Plan.Seed; the link retransmission timeout drops to 1ms with it.
	Plan *comm.FaultPlan

	// Metrics enables the wire registry (its counters land in the report);
	// RuntimeMetrics also the runtime one, without the plane: the baseline
	// that isolates the sampler+streaming cost of Telemetry from the cost of
	// the metric counters themselves. Trace enables causal tracing and the
	// atomic-operation audit: an instrumented profiling run whose throughput
	// is not comparable to an untraced one, and which forces the locked
	// discovery-table path (Tune.LockFreeHit has no effect). Steal enables
	// inter-rank work stealing (two-phase commit when FT is on).
	Metrics        bool
	RuntimeMetrics bool
	Trace          bool
	Steal          bool

	// FT enables fail-stop fault tolerance: failure detection on the world
	// and recovery on the graph, so a rank that dies mid-run is confirmed
	// dead and its work re-homed. Pruning enables replay-log pruning;
	// SuspectAfter is the suspicion budget (zero = comm default).
	FT           bool
	Pruning      bool
	SuspectAfter time.Duration

	// KillAfterTasks > 0 fail-stops a rank once its runtime has executed that
	// many tasks (and, with Telemetry on a rank other than 0, streamed its
	// first interval, so the flight dump holds one): under RunDist the victim
	// is KillRank; a child process that is to die passes its own KillFunc (a
	// self-SIGKILL) to RunRank. Requires FT.
	KillRank       int
	KillAfterTasks int64
	KillFunc       func()

	// Telemetry enables the cluster telemetry plane (implies RuntimeMetrics): a
	// per-rank interval sampler every TelemetryInterval (default 250ms),
	// streaming to rank 0, detectors, and the flight recorder dumping into
	// FlightDir ("." when empty). ObsAddr, on rank 0, serves /cluster.json
	// and rank-labelled /metrics on that address.
	Telemetry         bool
	TelemetryInterval time.Duration
	ObsAddr           string
	FlightDir         string
}

// drainTimeout bounds the post-Wait drain of a network rank: how long to
// wait for every sequenced send to be acked before its transport goes away
// (so a peer that still needs a retransmission gets it), and how long rank 0
// waits for the survivors' telemetry to arrive.
const drainTimeout = 5 * time.Second

// RankReport is one rank's contribution to a run, shaped for JSON so child
// processes can report it over a pipe. Every rank has a World of its own, so
// its counters (wire, steal, deaths, reconnects) are this rank's.
type RankReport struct {
	Rank      int   `json:"rank"`
	Ranks     int   `json:"ranks"`
	Tasks     int64 `json:"tasks"`      // tasks executed by this rank
	ElapsedNs int64 `json:"elapsed_ns"` // MakeExecutable through Wait

	// Points maps point -> last-timestep value for every point this rank
	// computed (JSON encodes the keys as strings).
	Points map[int]float64 `json:"points"`

	Reconnects   int64  `json:"reconnects"`
	Deaths       int64  `json:"deaths"`
	WaveRestarts int64  `json:"wave_restarts"`
	Reexecuted   int64  `json:"reexecuted"`
	Remapped     int64  `json:"remapped,omitempty"`
	Pruned       int64  `json:"pruned,omitempty"`
	Keymap       []int  `json:"keymap,omitempty"`       // RecoveryKeymap of an FT rank that finished cleanly
	StealReqs    int64  `json:"steal_reqs,omitempty"`   // steal requests issued
	Steals       int64  `json:"steals,omitempty"`       // steals completed as thief
	StealTasks   int64  `json:"steal_tasks,omitempty"`  // tasks injected by those steals
	StealAborts  int64  `json:"steal_aborts,omitempty"` // aborted attempts
	Rehomed      int64  `json:"rehomed,omitempty"`      // donated tasks re-injected at this victim
	Messages     uint64 `json:"msgs,omitempty"`         // wire frames sent (comm.msgs.sent; Metrics)
	Activations  uint64 `json:"activations,omitempty"`  // task activations carried inside them
	BytesSent    uint64 `json:"bytes_sent,omitempty"`   // payload bytes on the wire
	Faults       uint64 `json:"faults,omitempty"`       // frames the Plan dropped, duplicated, reordered or delayed (Metrics)
	Drained      bool   `json:"drained"`                // links acked before the transport closed
	Err          string `json:"err,omitempty"`          // Wait's error (e.g. this rank was fail-stopped)

	// Telemetry-plane statistics (zero when DistOptions.Telemetry is off).
	TelemetrySamples  int64  `json:"telemetry_samples,omitempty"`  // intervals sampled locally
	TelemetryFrames   int64  `json:"telemetry_frames,omitempty"`   // frames streamed to rank 0
	TelemetryCoverage int    `json:"telemetry_coverage,omitempty"` // rank 0: ranks seen in the cluster model
	TelemetryEvents   int    `json:"telemetry_events,omitempty"`   // rank 0: cluster events recorded
	ObsURL            string `json:"obs_url,omitempty"`            // rank 0: cluster endpoint address
}

// DistReport describes what a run did beyond its Result: the per-rank
// reports, their totals, and what only an in-process launch can see.
type DistReport struct {
	Ranks []RankReport
	Errs  []error // RunDist: per-rank Wait results (core.ErrRankKilled for the victim)

	// Totals over Ranks. Deaths and WaveRestarts are world-wide observations
	// and take the largest count any rank saw; the rest add up. Coverage and
	// Keymap come from the lowest rank that reported one.
	Reconnects, Deaths, WaveRestarts           int64
	Reexecuted, Remapped, Pruned               int64
	StealReqs, Steals, StealTasks, StealAborts int64
	Rehomed                                    int64
	Messages, Activations, BytesSent, Faults   uint64
	Samples, Frames                            int64
	Coverage, Events                           int
	Keymap                                     []int

	// RunDist with Trace: the causal spans of every rank (ready for
	// critpath.Analyze), the merged Chrome trace (task slices, comm events,
	// producer→consumer flow events) and the atomic read-modify-write count
	// across all ranks for the perfmodel cross-check.
	Spans        []critpath.Span
	ChromeEvents []metrics.ChromeEvent
	Atomics      uint64

	// RunDist with Telemetry: rank 0's cluster event log and final model.
	ClusterEvents []telemetry.Event
	Cluster       telemetry.ClusterView
}

// ActsPerMsg is the coalescing factor: activations per wire frame.
func (d DistReport) ActsPerMsg() float64 {
	if d.Messages == 0 {
		return 0
	}
	return float64(d.Activations) / float64(d.Messages)
}

// Summarize folds per-rank reports into a DistReport's totals.
func Summarize(rs []RankReport) DistReport {
	d := DistReport{Ranks: rs}
	for _, r := range rs {
		d.Reconnects += r.Reconnects
		d.Deaths = max(d.Deaths, r.Deaths)
		d.WaveRestarts = max(d.WaveRestarts, r.WaveRestarts)
		d.Reexecuted += r.Reexecuted
		d.Remapped += r.Remapped
		d.Pruned += r.Pruned
		d.StealReqs += r.StealReqs
		d.Steals += r.Steals
		d.StealTasks += r.StealTasks
		d.StealAborts += r.StealAborts
		d.Rehomed += r.Rehomed
		d.Messages += r.Messages
		d.Activations += r.Activations
		d.BytesSent += r.BytesSent
		d.Faults += r.Faults
		d.Samples += r.TelemetrySamples
		d.Frames += r.TelemetryFrames
		if r.Rank == 0 {
			d.Coverage, d.Events = r.TelemetryCoverage, r.TelemetryEvents
		}
		if d.Keymap == nil {
			d.Keymap = r.Keymap
		}
	}
	return d
}

// recordFunc reports the last-timestep value of point p. A recordWrap, when
// non-nil, stands between a rank's Point TT and its report (tests corrupt a
// re-executed point through it).
type recordFunc func(p int, v float64)
type recordWrap func(rank int, rec recordFunc) recordFunc

// buildPointTT wires the distributed Task-Bench Point TT into g: one task per
// (timestep, point), aggregator input collecting the dependency values sorted
// by origin, results of the last timestep reported keyed by point through
// record.
func buildPointTT(g *core.Graph, s Spec, mapper func(key uint64) int, record recordFunc) *core.TT {
	ePoint := core.NewEdge("point")
	point := g.NewTT("Point", 1, 1, func(tc core.TaskContext) {
		t, p := core.Unpack2(tc.Key())
		agg := tc.Aggregate(0)
		vals := make([]pointVal, 0, 8)
		for i := 0; i < agg.Len(); i++ {
			vals = append(vals, *agg.Value(i).(*pointVal))
		}
		for i := 1; i < len(vals); i++ { // insertion sort by origin
			for j := i; j > 0 && vals[j-1].P > vals[j].P; j-- {
				vals[j-1], vals[j] = vals[j], vals[j-1]
			}
		}
		depVals := make([]float64, len(vals))
		for i, v := range vals {
			depVals[i] = v.V
		}
		if int(t) == 0 {
			depVals = nil
		}
		s.SleepAt(int(p))
		v := s.Value(int(t), int(p), depVals)
		if int(t) == s.Steps-1 {
			record(int(p), v)
			return
		}
		for _, q := range s.RDeps(int(t), int(p)) {
			tc.Send(0, core.Pack2(t+1, uint32(q)), &pointVal{P: int(p), V: v})
		}
	}).WithAggregator(0, func(key uint64) int {
		t, p := core.Unpack2(key)
		if t == 0 {
			return 1
		}
		return len(s.Deps(int(t), int(p)))
	}).WithMapper(mapper)
	point.Out(0, ePoint)
	ePoint.To(point, 0)
	return point
}

// rank is one rank of a run between newRank and close, on a World of its own.
type rank struct {
	s     Spec
	o     DistOptions
	world *comm.World
	self  int
	g     *core.Graph
	point *core.TT
	plane *telemetry.Plane // nil unless o.Telemetry
	obs   *obs.Server      // rank 0 with o.ObsAddr

	mu      sync.Mutex // guards rep.Points while tasks run
	rep     RankReport
	waitErr error
}

// newRank builds rank tr.Self() on a World of its own over tr: it configures
// the world and builds the rank's graph on it.
func newRank(s Spec, tr comm.Transport, o DistOptions, wrap recordWrap) (*rank, error) {
	ranks, self := tr.Size(), tr.Self()
	if ranks > s.Width {
		return nil, fmt.Errorf("taskbench: %d ranks exceed width %d", ranks, s.Width)
	}
	world, err := comm.NewNetWorld(tr)
	if err != nil {
		return nil, err
	}
	r := &rank{s: s, o: o, world: world, self: self,
		rep: RankReport{Rank: self, Ranks: ranks, Points: map[int]float64{}}}
	runtimeMetrics := o.RuntimeMetrics || o.Telemetry
	if o.FT {
		world.EnableFailureDetection(comm.FDConfig{SuspectAfter: o.SuspectAfter})
	}
	if o.Plan != nil {
		world.SetFaultPlan(*o.Plan)
		world.SetRetransmitTimeout(time.Millisecond)
	}
	if o.Metrics || runtimeMetrics || o.Trace {
		world.EnableMetrics()
	}
	if o.Trace {
		world.EnableTracing()
	}

	cfg := rt.OptimizedConfig(o.Workers)
	cfg.PinWorkers = false
	cfg.Sched = o.Sched
	cfg.CountAtomics = o.Trace
	o.Tune.Apply(&cfg)
	g := core.NewDistributed(cfg, world.Proc(self))
	r.g = g
	if o.FT {
		g.EnableFaultTolerance()
		if o.Pruning {
			g.EnableReplayPruning()
		}
	}
	if o.Steal && ranks > 1 {
		g.EnableWorkStealing()
	}
	if o.Trace {
		g.EnableCausalTracing()
	}
	if runtimeMetrics {
		g.EnableMetrics()
	}
	if o.Telemetry {
		snap := func() metrics.Snapshot { return obs.Merge(g.MetricsSnapshot(), world.MetricsSnapshot()) }
		// Start before MakeExecutable: rank 0's frame handler must be on the
		// wire before any peer frame can arrive.
		r.plane = telemetry.Start(world.Proc(self), snap, telemetry.Options{
			Interval:  o.TelemetryInterval,
			FlightDir: o.FlightDir,
		})
		g.SetEventHook(r.plane.OnEvent)
		world.SetPeerEventHook(func(ev comm.PeerEvent) {
			detail := ""
			if ev.Err != nil {
				detail = ev.Err.Error()
			}
			r.plane.OnEvent("peer_"+ev.Kind.String(), ev.Peer, detail)
		})
		if self == 0 && o.ObsAddr != "" {
			srv, err := obs.ServeCluster(o.ObsAddr, r.plane.Aggregator(), snap)
			if err != nil {
				world.Shutdown()
				return nil, err
			}
			r.obs = srv
			r.rep.ObsURL = srv.Addr()
		}
	}

	record := recordFunc(func(p int, v float64) {
		r.mu.Lock()
		r.rep.Points[p] = v
		r.mu.Unlock()
	})
	if wrap != nil {
		record = wrap(self, record)
	}
	mapper := func(key uint64) int {
		_, p := core.Unpack2(key)
		return int(p) * ranks / s.Width
	}
	r.point = buildPointTT(g, s, mapper, record)
	return r, nil
}

// killWhenReady is the kill trigger: it polls until the rank has executed
// o.KillAfterTasks tasks (and, with the plane on, streamed an interval: the
// point of the kill is a flight dump that holds one, however few intervals
// that many tasks take; rank 0 streams to nobody, so it is exempt), then
// calls kill from this goroutine — never from a worker, since a fail-stop
// drains the runtime. It gives up when stop closes.
func (r *rank) killWhenReady(kill func(), stop <-chan struct{}) {
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		streamed := r.plane == nil || r.self == 0 || r.plane.Sampler().Frames() > 0
		if exec, _, _ := r.g.Runtime().Stats(); exec >= r.o.KillAfterTasks && streamed {
			kill()
			return
		}
	}
}

// run seeds the SPMD iteration space, waits for termination, drains the
// rank's links and takes the plane's closing sample.
func (r *rank) run() {
	if r.plane != nil {
		defer r.plane.ArmSIGQUIT()()
	}
	kill := r.o.KillFunc
	if kill == nil && r.self == r.o.KillRank {
		kill = func() { r.world.KillRank(r.self) }
	}
	stop := make(chan struct{})
	if r.o.KillAfterTasks > 0 && kill != nil {
		go r.killWhenReady(kill, stop)
	}

	t0 := time.Now()
	r.g.MakeExecutable()
	for p := 0; p < r.s.Width; p++ { // SPMD seeding; owners keep
		r.g.Invoke(r.point, core.Pack2(0, uint32(p)), &pointVal{P: p})
	}
	r.waitErr = r.g.Wait()
	r.rep.ElapsedNs = int64(time.Since(t0))
	close(stop)

	r.rep.Drained = r.world.Drain(drainTimeout)
	if r.plane != nil {
		// Non-zero ranks flush the closing sample to rank 0; the drain above
		// only guarantees sequenced traffic, so the flush is best-effort by
		// design. A rank 0 that finished gives every live peer's closing
		// sample a grace period to land, so the cluster model ends on every
		// rank's final counts (a fenced rank 0 hears from nobody).
		r.plane.Stop()
		if r.self == 0 {
			agg := r.plane.Aggregator()
			if r.waitErr == nil {
				agg.AwaitClosed(drainTimeout)
			}
			r.rep.TelemetryCoverage = agg.Coverage()
			r.rep.TelemetryEvents = len(agg.Events())
		}
		r.rep.TelemetrySamples = r.plane.Sampler().Samples()
		r.rep.TelemetryFrames = r.plane.Sampler().Frames()
	}
}

// report collects the rank's counters; call it after run.
func (r *rank) report() RankReport {
	rep := &r.rep
	rep.Tasks, _, _ = r.g.Runtime().Stats()
	rep.Reexecuted, rep.Remapped, rep.Pruned = r.g.RecoveryStats()
	_, _, rep.Rehomed = r.g.StealStats()
	if r.waitErr != nil {
		rep.Err = r.waitErr.Error()
	} else if r.o.FT {
		rep.Keymap = r.g.RecoveryKeymap()
	}
	w := r.world
	rep.Reconnects = w.Reconnects()
	rep.Deaths = w.Deaths()
	rep.WaveRestarts = w.WaveRestarts()
	rep.StealReqs = w.StealReqs()
	rep.Steals = w.Steals()
	rep.StealTasks = w.StealTasks()
	rep.StealAborts = w.StealAborts()
	// comm.msgs.sent counts frames, and the comm.batch_size histogram's sum
	// the activations coalesced into them.
	snap := w.MetricsSnapshot()
	rep.Messages = snap.Counters["comm.msgs.sent"]
	rep.BytesSent = snap.Counters["comm.bytes.sent"]
	rep.Activations = snap.Histograms["comm.batch_size"].Sum
	for _, k := range []string{"dropped", "duplicated", "reordered", "delayed"} {
		rep.Faults += snap.Counters["comm.fault."+k]
	}
	return *rep
}

// close stops the rank's servers and its World.
func (r *rank) close() {
	if r.obs != nil {
		r.obs.Close()
	}
	r.world.Shutdown()
}

// RunRank runs this process's rank of the Task-Bench spec over tr. It returns
// an error only for setup failures; a runtime abort (e.g. this rank was
// fail-stopped) is reported in RankReport.Err with the partial results
// preserved.
func RunRank(s Spec, tr comm.Transport, o DistOptions) (RankReport, error) {
	r, err := newRank(s, tr, o, nil)
	if err != nil {
		return RankReport{}, err
	}
	r.run()
	rep := r.report()
	r.close()
	return rep, nil
}

// RunDist executes the Task-Bench spec over o.Ranks ranks inside this
// process, each on a World of its own over one in-memory network, or with
// o.TCP over real loopback sockets (the single-process harness for the TCP
// wire path; the multi-process form is RunRank under cmd/taskbench). The
// returned checksum is the merge of the per-rank reports (verified for
// coverage and duplicate consistency, not against Reference — callers
// compare). A rank whose Wait fails, other than the KillRank victim, fails
// the run.
func RunDist(s Spec, o DistOptions) (Result, DistReport, error) {
	return runDist(s, o, nil)
}

func runDist(s Spec, o DistOptions, wrap recordWrap) (Result, DistReport, error) {
	n := min(o.Ranks, s.Width)
	trs, err := transports(n, o)
	if err != nil {
		return Result{}, DistReport{}, err
	}
	runs := make([]*rank, 0, n)
	// Worlds close only after every rank has drained: a rank that closed its
	// transport early would leave a peer's sequenced message unacked for the
	// whole of that peer's drain timeout.
	defer func() {
		for _, r := range runs {
			r.close()
		}
	}()
	for i, tr := range trs {
		r, err := newRank(s, tr, o, wrap)
		if err != nil {
			for _, tr := range trs[i:] {
				tr.Close()
			}
			return Result{}, DistReport{}, err
		}
		runs = append(runs, r)
	}

	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *rank) {
			defer wg.Done()
			r.run()
		}(r)
	}
	wg.Wait()

	reports := make([]RankReport, n)
	errs := make([]error, n)
	for i, r := range runs {
		reports[i], errs[i] = r.report(), r.waitErr
	}
	rep := Summarize(reports)
	rep.Errs = errs
	if o.Trace {
		for i, r := range runs {
			rtm := r.g.Runtime()
			rep.Spans = append(rep.Spans, critpath.FromTrace(i, rtm.Trace())...)
			rep.ChromeEvents = append(rep.ChromeEvents, r.g.ChromeEvents()...)
			a := rtm.Atomics()
			rep.Atomics += a.Total()
		}
		rep.ChromeEvents = append(rep.ChromeEvents, critpath.FlowEvents(rep.Spans)...)
	}
	if o.Telemetry {
		agg := runs[0].plane.Aggregator()
		rep.ClusterEvents = agg.Events()
		rep.Events = len(rep.ClusterEvents)
		if cv, ok := agg.ClusterJSON().(telemetry.ClusterView); ok {
			rep.Cluster = cv
		}
	}

	for i, err := range errs {
		if err != nil && !(o.KillAfterTasks > 0 && i == o.KillRank) {
			return Result{}, rep, fmt.Errorf("rank %d aborted: %w", i, err)
		}
	}
	res, err := MergeNetResults(s, reports)
	return res, rep, err
}

// transports returns the n endpoints RunDist's ranks run on: one in-memory
// network, or with o.TCP loopback TCP transports (under o.Fault, with
// per-rank seeds).
func transports(n int, o DistOptions) ([]comm.Transport, error) {
	trs := make([]comm.Transport, n)
	if !o.TCP {
		for i, tr := range comm.NewMemNetwork(n) {
			trs[i] = tr
		}
		return trs, nil
	}
	lns, addrs, err := LoopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	for i := range trs {
		var fc *tcptransport.FaultConfig
		if o.Fault != nil {
			c := *o.Fault
			c.Seed += uint64(i) * 0x9e3779b97f4a7c15
			fc = &c
		}
		trs[i], err = tcptransport.New(tcptransport.Config{Self: i, Peers: addrs, Listener: lns[i], Fault: fc})
		if err != nil {
			for _, tr := range trs[:i] {
				tr.Close()
			}
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return nil, err
		}
	}
	return trs, nil
}
