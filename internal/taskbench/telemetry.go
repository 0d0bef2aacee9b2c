package taskbench

import (
	"sync"
	"time"

	"gottg/internal/comm"
	"gottg/internal/core"
	"gottg/internal/metrics"
	"gottg/internal/obs"
	"gottg/internal/obs/telemetry"
	"gottg/internal/rt"
)

// TelemetryRunOptions parameterizes the in-process telemetry runner: the
// single-process harness for the cluster telemetry plane (paired overhead
// measurement, kill→flight-dump coverage) — the multi-process TCP form
// lives in NetOptions/cmd/taskbench.
type TelemetryRunOptions struct {
	Ranks   int
	Workers int

	// On enables the telemetry plane; off runs the identical path bare, for
	// paired overhead comparisons.
	On bool
	// Metrics enables the runtime and wire registries without the plane:
	// the baseline that isolates the sampler+streaming cost from the
	// (separately gated) cost of the metric counters themselves. Implied by
	// On.
	Metrics bool
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// Window is the per-rank interval ring size (default 64).
	Window int
	// FlightDir receives flight-recorder dumps ("." when empty).
	FlightDir string
	// Detectors tunes the rank-0 anomaly detectors.
	Detectors telemetry.DetectorConfig

	// KillRank, when >= 0, fail-stops that rank after KillAfterTasks of its
	// tasks (and, with On, its first streamed interval): fault tolerance is enabled on every rank and the checksum must
	// still match Spec.Reference — proving telemetry cannot perturb
	// recovery, and that rank 0's flight dump preserves the victim's series.
	KillRank       int
	KillAfterTasks int64

	// Failure-detection tuning (zero values take the comm defaults; only
	// meaningful with KillRank >= 0).
	Heartbeat    time.Duration
	SuspectAfter time.Duration
}

// TelemetryReport summarizes what the plane recorded during a run.
type TelemetryReport struct {
	Errs []error // per-rank Wait results

	Coverage int               // ranks with at least one interval in the cluster model
	Samples  int64             // intervals sampled across all ranks
	Frames   int64             // frames streamed to rank 0
	Events   []telemetry.Event // rank-0 cluster event log
	Dumps    []string          // flight-recorder files written during the run
	Cluster  telemetry.ClusterView
}

// RunDistributedTTGTelemetry executes the Task-Bench spec over in-process
// simulated ranks with the telemetry plane on every rank (or off, for the
// paired baseline). The zero TelemetryReport is returned when Options.On is
// false.
func RunDistributedTTGTelemetry(s Spec, o TelemetryRunOptions) (Result, TelemetryReport) {
	ranks := o.Ranks
	if ranks > s.Width {
		ranks = s.Width
	}
	ft := o.KillRank >= 0
	world := comm.NewWorld(ranks)
	if ft {
		world.EnableFailureDetection(comm.FDConfig{
			Heartbeat:    o.Heartbeat,
			SuspectAfter: o.SuspectAfter,
		})
	}
	if o.On || o.Metrics {
		world.EnableMetrics()
	}
	mapper := func(key uint64) int {
		_, p := core.Unpack2(key)
		return int(p) * ranks / s.Width
	}

	lastVals := make([]float64, s.Width)
	var lastMu sync.Mutex
	record := func(p int, v float64) {
		lastMu.Lock()
		lastVals[p] = v
		lastMu.Unlock()
	}

	graphs := make([]*core.Graph, ranks)
	points := make([]*core.TT, ranks)
	planes := make([]*telemetry.Plane, ranks)
	for r := 0; r < ranks; r++ {
		cfg := rt.OptimizedConfig(o.Workers)
		cfg.PinWorkers = false
		graphs[r] = core.NewDistributed(cfg, world.Proc(r))
		if ft {
			graphs[r].EnableFaultTolerance()
		}
		if o.On || o.Metrics {
			graphs[r].EnableMetrics()
		}
		if o.On {
			g := graphs[r]
			snap := g.MetricsSnapshot
			if r == 0 {
				// The world registry is shared across in-process ranks, so
				// only rank 0 folds it in — every rank contributing it would
				// multiply the wire totals in the merged view.
				snap = func() metrics.Snapshot {
					return obs.Merge(g.MetricsSnapshot(), world.MetricsSnapshot())
				}
			}
			planes[r] = telemetry.Start(world.Proc(r), snap, telemetry.Options{
				Interval:  o.Interval,
				Window:    o.Window,
				FlightDir: o.FlightDir,
				Detectors: o.Detectors,
			})
			graphs[r].SetEventHook(planes[r].OnEvent)
		}
		points[r] = buildPointTT(graphs[r], s, mapper, record)
	}

	stop := make(chan struct{})
	if o.KillRank >= 0 && o.KillRank < ranks {
		victim := graphs[o.KillRank].Runtime()
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
				// With the plane on, the victim also has to have streamed an
				// interval: the point of the kill is a flight dump that holds
				// one, however few intervals KillAfterTasks tasks take.
				streamed := !o.On || planes[o.KillRank].Sampler().Frames() > 0
				if exec, _, _ := victim.Stats(); exec >= o.KillAfterTasks && streamed {
					world.KillRank(o.KillRank)
					return
				}
			}
		}()
	}

	errs := make([]error, ranks)
	t0 := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			graphs[r].MakeExecutable()
			for p := 0; p < s.Width; p++ { // SPMD seeding; owners keep
				graphs[r].Invoke(points[r], core.Pack2(0, uint32(p)), &pointVal{P: p})
			}
			errs[r] = graphs[r].Wait()
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(stop)

	rep := TelemetryReport{Errs: errs}
	if o.On {
		for r := ranks - 1; r >= 0; r-- { // rank 0 last: its final sample sees peers' flushes
			planes[r].Stop()
			rep.Samples += planes[r].Sampler().Samples()
			rep.Frames += planes[r].Sampler().Frames()
		}
		agg := planes[0].Aggregator()
		// The final flushed frames ride the async dispatch path; wait for
		// every live rank's closing interval to land in the cluster model
		// before reading it (a dead rank's flush is gated at the wire and
		// never arrives — don't wait for it).
		deadline := time.Now().Add(2 * time.Second)
		for r := 1; r < ranks; r++ {
			if r == o.KillRank {
				continue
			}
			want := uint64(planes[r].Sampler().Samples())
			for agg.View(r).LastSeq < want && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
		}
		rep.Coverage = agg.Coverage()
		rep.Events = agg.Events()
		if cv, ok := agg.ClusterJSON().(telemetry.ClusterView); ok {
			rep.Cluster = cv
		}
	}
	world.Shutdown()

	checksum := 0.0
	for p := 0; p < s.Width; p++ {
		checksum += lastVals[p]
	}
	return Result{Elapsed: elapsed, Checksum: checksum, Tasks: s.TotalTasks()}, rep
}
