// Package telemetry is the cluster metric plane: it turns the per-process
// metrics registries (internal/metrics) into cluster-wide time series.
//
// Every rank runs a Sampler — a goroutine that snapshots the merged metrics
// registry at a fixed interval (default 250ms), flattens the snapshot onto a
// stable column schema, and stores the cumulative values in a fixed-size
// ring (steady state reuses the ring slots' value slices, so sampling does
// not grow the heap). Non-zero ranks additionally encode each interval as a
// self-describing frame and ship it to rank 0 over the comm layer on a
// reserved control tag; telemetry frames are unsequenced, wave-exempt, and
// best-effort, exactly like heartbeats, so the plane can never perturb the
// termination protocol, occupy retransmit state, or change a run's result.
//
// Rank 0 runs an Aggregator: it keeps one ring of intervals per rank (its
// own fed directly by its local sampler), derives per-interval deltas from
// the cumulative streams (a lost frame just widens one interval instead of
// corrupting the series), runs online anomaly detectors over the per-rank
// series (straggler rank, queue backlog spike, steal storm, retransmit
// surge), and serves the merged cluster model through obs.ServeCluster
// (/cluster.json, rank-labelled Prometheus exposition).
//
// Every rank also owns a flight Recorder: the local interval ring plus a
// bounded log of lifecycle events (rank deaths, epoch changes, aborts,
// steals, peer connection transitions). The recorder dumps itself to a JSON
// file on abort, on SIGQUIT, when this rank is fail-stopped, and — on rank 0
// — whenever a peer is confirmed dead, so the dump holds the dead rank's
// final streamed intervals: chaos-soak failures leave post-mortem evidence
// even though the dead process itself never got to flush anything.
package telemetry

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gottg/internal/metrics"
)

// DefaultInterval is the sampling period when Options.Interval is zero.
const DefaultInterval = 250 * time.Millisecond

// DefaultWindow is the per-rank ring size when Options.Window is zero: at
// the default interval, 64 slots keep the last ~16 seconds.
const DefaultWindow = 64

// ColClosed is the gauge a rank's closing interval (the sample Sampler.Stop
// takes) carries as 1, so rank 0 can tell when a rank's stream has ended.
const ColClosed = "telemetry.closed"

// ColKind distinguishes cumulative columns (deltas are meaningful) from
// level columns (the sampled value is the reading).
type ColKind uint8

const (
	// KindCounter marks a monotonically accumulating column (counters and
	// histogram count/sum components): consumers difference consecutive
	// samples to get per-interval activity.
	KindCounter ColKind = iota
	// KindGauge marks a level column: the sampled value is used as-is.
	KindGauge
)

// how a column is extracted from a metrics.Snapshot.
const (
	srcCounter uint8 = iota
	srcGauge
	srcHistCount
	srcHistSum
)

// Col is one column of a rank's time series.
type Col struct {
	Name string  `json:"name"`
	Kind ColKind `json:"kind"`

	src  uint8  // extraction path (zero value srcCounter for decoded frames)
	base string // histogram base name for srcHistCount/srcHistSum
}

// schema is an append-only ordered column set. Columns are discovered from
// snapshots (sorted within each discovery batch so sampling is deterministic
// for a fixed metric set) or taken verbatim from decoded frames.
type schema struct {
	cols  []Col
	index map[string]int
}

func (sc *schema) ensure(c Col) int {
	if sc.index == nil {
		sc.index = map[string]int{}
	}
	if i, ok := sc.index[c.Name]; ok {
		return i
	}
	sc.index[c.Name] = len(sc.cols)
	sc.cols = append(sc.cols, c)
	return len(sc.cols) - 1
}

// flatten extends the schema with any names unseen so far and renders the
// snapshot as one value per column (0 for columns the snapshot no longer
// carries). vals is reused; the returned slice aliases it.
func (sc *schema) flatten(snap metrics.Snapshot, vals []float64) []float64 {
	var fresh []Col
	add := func(c Col) {
		if sc.index == nil {
			sc.index = map[string]int{}
		}
		if _, ok := sc.index[c.Name]; !ok {
			// Reserve the slot now so duplicates within this batch collapse;
			// the batch is re-sorted into its final order below.
			sc.index[c.Name] = -1
			fresh = append(fresh, c)
		}
	}
	for name := range snap.Counters {
		add(Col{Name: name, Kind: KindCounter, src: srcCounter})
	}
	for name := range snap.Gauges {
		add(Col{Name: name, Kind: KindGauge, src: srcGauge})
	}
	for name := range snap.Histograms {
		add(Col{Name: name + ".count", Kind: KindCounter, src: srcHistCount, base: name})
		add(Col{Name: name + ".sum", Kind: KindCounter, src: srcHistSum, base: name})
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Name < fresh[j].Name })
	for _, c := range fresh {
		sc.index[c.Name] = len(sc.cols)
		sc.cols = append(sc.cols, c)
	}

	if cap(vals) < len(sc.cols) {
		vals = append(vals[:cap(vals)], make([]float64, len(sc.cols)-cap(vals))...)
	}
	vals = vals[:len(sc.cols)]
	for i := range vals {
		c := &sc.cols[i]
		switch c.src {
		case srcCounter:
			vals[i] = float64(snap.Counters[c.Name])
		case srcGauge:
			vals[i] = float64(snap.Gauges[c.Name])
		case srcHistCount:
			vals[i] = float64(snap.Histograms[c.base].Count)
		case srcHistSum:
			vals[i] = float64(snap.Histograms[c.base].Sum)
		}
	}
	return vals
}

// ring is a fixed-capacity interval buffer. Slots' value slices are reused
// across wraps, so pushing is allocation-free once every slot has been
// written at the current schema width. Callers synchronize.
type ring struct {
	slots []slot
	head  int    // next write position
	n     int    // filled slots
	seq   uint64 // sequence of the next pushed interval (starts at 1)
}

type slot struct {
	seq  uint64
	tsNs int64
	vals []float64 // cumulative values, schema-indexed
}

func newRing(capacity int) *ring {
	if capacity < 2 {
		capacity = 2
	}
	return &ring{slots: make([]slot, capacity), seq: 1}
}

// push records one interval, overwriting the oldest when full.
func (r *ring) push(seq uint64, tsNs int64, vals []float64) {
	s := &r.slots[r.head]
	s.seq = seq
	s.tsNs = tsNs
	s.vals = append(s.vals[:0], vals...)
	r.head = (r.head + 1) % len(r.slots)
	if r.n < len(r.slots) {
		r.n++
	}
}

// pushNext records one interval under the ring's own sequence counter.
func (r *ring) pushNext(tsNs int64, vals []float64) uint64 {
	seq := r.seq
	r.seq++
	r.push(seq, tsNs, vals)
	return seq
}

// at returns the i-th oldest filled slot (0 = oldest).
func (r *ring) at(i int) *slot {
	return &r.slots[(r.head-r.n+i+2*len(r.slots))%len(r.slots)]
}

// last returns the most recent slot, nil when empty.
func (r *ring) last() *slot {
	if r.n == 0 {
		return nil
	}
	return r.at(r.n - 1)
}

// Wire is the slice of the comm layer the plane needs; *comm.Proc satisfies
// it directly. SetTelemetryHandler must be called before the endpoint starts.
type Wire interface {
	Rank() int
	Size() int
	SendTelemetry(dst int, payload []byte)
	SetTelemetryHandler(h func(src int, payload []byte))
}

// Sampler periodically snapshots a metrics source into a local interval ring
// and, on non-zero ranks, streams each interval to rank 0.
type Sampler struct {
	mu      sync.Mutex
	schema  schema
	ring    *ring
	snap    func() metrics.Snapshot
	scratch []float64

	rank     int
	interval time.Duration
	wire     Wire        // nil: no streaming (rank 0, or tests)
	sink     *Aggregator // non-nil on rank 0: local fast path into the cluster model

	samples atomic.Int64
	frames  atomic.Int64
	stopped atomic.Bool

	quit chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over snap. wire is nil for purely local use;
// sink is the rank-0 aggregator fed directly (nil elsewhere). Start launches
// the sampling goroutine; SampleNow drives it manually (tests).
func NewSampler(rank int, snap func() metrics.Snapshot, interval time.Duration, window int, wire Wire, sink *Aggregator) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sampler{
		ring:     newRing(window),
		snap:     snap,
		rank:     rank,
		interval: interval,
		wire:     wire,
		sink:     sink,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SampleNow takes one sample: snapshot, flatten, ring push, and — when
// streaming — one frame to rank 0. Safe from any goroutine.
func (s *Sampler) SampleNow() {
	now := time.Now()
	snap := s.snap()
	if s.stopped.Load() {
		g := make(map[string]int64, len(snap.Gauges)+1)
		maps.Copy(g, snap.Gauges)
		g[ColClosed] = 1
		snap.Gauges = g
	}
	s.mu.Lock()
	s.scratch = s.schema.flatten(snap, s.scratch)
	seq := s.ring.pushNext(now.UnixNano(), s.scratch)
	var frame []byte
	if s.wire != nil && s.rank != 0 {
		// The frame is freshly allocated per interval: payload ownership
		// passes to the wire, which may hand the slice to a receiver as is,
		// so reusing an encode buffer would race.
		frame = encodeFrame(nil, s.rank, seq, 0, now.UnixNano(), s.schema.cols, s.scratch)
	}
	if s.sink != nil {
		s.sink.Ingest(s.rank, seq, 0, now.UnixNano(), s.schema.cols, s.scratch)
	}
	s.mu.Unlock()
	s.samples.Add(1)
	if frame != nil {
		s.wire.SendTelemetry(0, frame)
		s.frames.Add(1)
	}
}

// Start launches the periodic sampling goroutine.
func (s *Sampler) Start() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.SampleNow()
			}
		}
	}()
}

// Stop halts periodic sampling and takes one final sample (flushed to rank 0
// when streaming) so the cluster model sees the run's closing state.
// Idempotent; safe even if Start was never called... but then the final
// sample still fires once.
func (s *Sampler) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	close(s.quit)
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
	}
	s.SampleNow()
}

// Samples returns how many intervals this sampler has recorded.
func (s *Sampler) Samples() int64 { return s.samples.Load() }

// Frames returns how many interval frames were streamed to rank 0.
func (s *Sampler) Frames() int64 { return s.frames.Load() }

// View renders the local ring for JSON surfaces and flight dumps.
func (s *Sampler) View() RankView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return renderSeries(s.rank, &s.schema, s.ring, false, 0)
}

// renderSeries converts a cumulative ring into the exported per-interval
// delta view. Caller holds the owning lock.
func renderSeries(rank int, sc *schema, r *ring, dead bool, lastHeard int64) RankView {
	v := RankView{Rank: rank, Dead: dead, LastHeardNs: lastHeard}
	if r == nil || r.n == 0 {
		return v
	}
	last := r.last()
	v.LastSeq = last.seq
	v.LastTsNs = last.tsNs
	v.Totals = make(map[string]float64, len(sc.cols))
	for i, c := range sc.cols {
		if i < len(last.vals) {
			v.Totals[c.Name] = last.vals[i]
		}
	}
	for i := 1; i < r.n; i++ {
		prev, cur := r.at(i-1), r.at(i)
		iv := IntervalView{
			Seq:    cur.seq,
			TsNs:   cur.tsNs,
			DtNs:   cur.tsNs - prev.tsNs,
			Deltas: make(map[string]float64, len(cur.vals)),
		}
		for j, c := range sc.cols {
			if j >= len(cur.vals) {
				break
			}
			switch c.Kind {
			case KindGauge:
				iv.Deltas[c.Name] = cur.vals[j]
			default:
				var p float64
				if j < len(prev.vals) {
					p = prev.vals[j]
				}
				d := cur.vals[j] - p
				if d != 0 {
					iv.Deltas[c.Name] = d
				}
			}
		}
		v.Intervals = append(v.Intervals, iv)
	}
	return v
}
