package telemetry

import (
	"sort"
	"sync"
	"time"

	"gottg/internal/metrics"
)

// Aggregator is rank 0's merged cluster model: one interval series per rank
// (local samples arrive via the sampler's sink fast path, remote ones as
// decoded frames), the online anomaly detectors, and a bounded event log.
// All surfaces (ClusterJSON, RankSnapshots, flight dumps) read the same
// model under one mutex; ingest is O(columns) per frame.
type Aggregator struct {
	mu     sync.Mutex
	size   int
	window int
	ranks  map[int]*rankSeries
	epoch  uint64 // highest membership epoch seen on any frame
	dead   map[int]bool

	det    *detectors
	events []Event
	evCap  int
	evTot  map[string]uint64

	// changed is non-nil while AwaitClosed waits; every ingest and death
	// closes it (and the next wait re-arms it).
	changed chan struct{}
}

// rankSeries is one rank's schema and cumulative ring as seen by rank 0.
// closed latches once the rank's closing interval (ColClosed) arrives.
type rankSeries struct {
	schema  schema
	ring    *ring
	lastSeq uint64
	lastTs  int64
	scratch []float64
	closed  bool
}

// NewAggregator builds the cluster model for a world of size ranks. window
// bounds each rank's retained intervals; cfg tunes the detectors (zero
// value = defaults).
func NewAggregator(size, window int, cfg DetectorConfig) *Aggregator {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Aggregator{
		size:   size,
		window: window,
		ranks:  map[int]*rankSeries{},
		dead:   map[int]bool{},
		det:    newDetectors(cfg),
		evCap:  256,
		evTot:  map[string]uint64{},
	}
}

// HandleFrame is the comm-layer telemetry handler: decode and ingest.
// Undecodable payloads are dropped (the stream is best-effort and frames
// may be mangled by injected faults).
func (a *Aggregator) HandleFrame(src int, payload []byte) {
	f, err := decodeFrame(payload)
	if err != nil {
		return
	}
	// Trust the envelope's source rank over the frame body: a frame is
	// accepted only into the series of the rank that transmitted it.
	a.Ingest(src, f.seq, f.epoch, f.tsNs, f.cols, f.vals)
}

// Ingest accepts one interval for rank r. Duplicate and stale sequences are
// dropped (the unsequenced wire path may duplicate frames under faults);
// gaps are fine because values are cumulative. vals is copied.
func (a *Aggregator) Ingest(r int, seq, epoch uint64, tsNs int64, cols []Col, vals []float64) {
	a.mu.Lock()
	rs := a.ranks[r]
	if rs == nil {
		rs = &rankSeries{ring: newRing(a.window)}
		a.ranks[r] = rs
	}
	if seq <= rs.lastSeq {
		a.mu.Unlock()
		return
	}
	rs.lastSeq = seq
	rs.lastTs = tsNs
	if epoch > a.epoch {
		a.epoch = epoch
	}
	// Project the frame's columns onto the rank's append-only schema so the
	// value layout is stable across frames even if the sender discovered
	// metrics in a different order than we first saw.
	if cap(rs.scratch) < len(rs.schema.cols) {
		rs.scratch = make([]float64, len(rs.schema.cols))
	}
	rs.scratch = rs.scratch[:len(rs.schema.cols)]
	for i := range rs.scratch {
		rs.scratch[i] = 0
	}
	for i, c := range cols {
		idx := rs.schema.ensure(c)
		if idx >= len(rs.scratch) {
			rs.scratch = append(rs.scratch, make([]float64, idx+1-len(rs.scratch))...)
		}
		rs.scratch[idx] = vals[i]
	}
	rs.ring.push(seq, tsNs, rs.scratch)
	if i, ok := rs.schema.index[ColClosed]; ok && rs.scratch[i] != 0 {
		rs.closed = true
	}
	evs := a.det.observe(a.liveRanksLocked(), r, rs, tsNs)
	for _, e := range evs {
		a.noteLocked(e)
	}
	a.wakeLocked()
	a.mu.Unlock()
}

// liveRanksLocked returns the series of every rank not marked dead.
func (a *Aggregator) liveRanksLocked() map[int]*rankSeries {
	live := make(map[int]*rankSeries, len(a.ranks))
	for r, rs := range a.ranks {
		if !a.dead[r] {
			live[r] = rs
		}
	}
	return live
}

// MarkDead records that rank r's failure was confirmed (membership epoch e).
func (a *Aggregator) MarkDead(r int, e uint64) {
	a.mu.Lock()
	a.dead[r] = true
	if e > a.epoch {
		a.epoch = e
	}
	a.wakeLocked()
	a.mu.Unlock()
}

// AwaitClosed blocks until every rank's stream has ended — its closing
// interval ingested or the rank marked dead — or until timeout, and reports
// whether the streams all ended. It does not poll: each ingest and each
// death wakes it to re-check.
func (a *Aggregator) AwaitClosed(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		open := false
		for r := 0; r < a.size && !open; r++ {
			rs := a.ranks[r]
			open = !a.dead[r] && (rs == nil || !rs.closed)
		}
		if !open {
			a.mu.Unlock()
			return true
		}
		if a.changed == nil {
			a.changed = make(chan struct{})
		}
		changed := a.changed
		a.mu.Unlock()
		select {
		case <-changed:
		case <-deadline.C:
			return false
		}
	}
}

// wakeLocked wakes a waiting AwaitClosed: the model changed.
func (a *Aggregator) wakeLocked() {
	if a.changed != nil {
		close(a.changed)
		a.changed = nil
	}
}

// Note appends a lifecycle event to the bounded cluster event log.
func (a *Aggregator) Note(e Event) {
	a.mu.Lock()
	a.noteLocked(e)
	a.mu.Unlock()
}

func (a *Aggregator) noteLocked(e Event) {
	a.evTot[e.Kind]++
	if len(a.events) >= a.evCap {
		copy(a.events, a.events[1:])
		a.events = a.events[:a.evCap-1]
	}
	a.events = append(a.events, e)
}

// Events returns a copy of the retained event log.
func (a *Aggregator) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, len(a.events))
	copy(out, a.events)
	return out
}

// EventCount returns how many events of kind have been raised in total.
func (a *Aggregator) EventCount(kind string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.evTot[kind]
}

// ClusterView is the /cluster.json document: the merged cluster model with
// per-rank interval series, detector events, and summed totals.
type ClusterView struct {
	Schema      string             `json:"schema"` // "gottg.cluster/v1"
	Size        int                `json:"size"`
	Epoch       uint64             `json:"epoch"`
	EventCounts map[string]uint64  `json:"event_counts,omitempty"`
	Events      []Event            `json:"events,omitempty"`
	PerRank     []RankView         `json:"per_rank"`
	Merged      map[string]float64 `json:"merged,omitempty"`
}

// RankView is one rank's interval series rendered as deltas.
type RankView struct {
	Rank        int                `json:"rank"`
	Dead        bool               `json:"dead,omitempty"`
	LastSeq     uint64             `json:"last_seq"`
	LastTsNs    int64              `json:"last_ts_ns"`
	LastHeardNs int64              `json:"last_heard_ns,omitempty"`
	Totals      map[string]float64 `json:"totals,omitempty"`
	Intervals   []IntervalView     `json:"intervals,omitempty"`
}

// IntervalView is one sampling interval: per-column deltas for counters,
// levels for gauges.
type IntervalView struct {
	Seq    uint64             `json:"seq"`
	TsNs   int64              `json:"ts_ns"`
	DtNs   int64              `json:"dt_ns"`
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

// ClusterJSON renders the full cluster model. The per-rank list is sorted
// by rank and includes ranks that have not reported yet (empty series), so
// coverage assertions can distinguish "silent" from "absent".
func (a *Aggregator) ClusterJSON() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	cv := ClusterView{
		Schema:      "gottg.cluster/v1",
		Size:        a.size,
		Epoch:       a.epoch,
		EventCounts: map[string]uint64{},
		Merged:      map[string]float64{},
	}
	for k, v := range a.evTot {
		cv.EventCounts[k] = v
	}
	cv.Events = make([]Event, len(a.events))
	copy(cv.Events, a.events)
	for r := 0; r < a.size; r++ {
		rs := a.ranks[r]
		var rv RankView
		if rs == nil {
			rv = RankView{Rank: r, Dead: a.dead[r]}
		} else {
			rv = renderSeries(r, &rs.schema, rs.ring, a.dead[r], rs.lastTs)
		}
		cv.PerRank = append(cv.PerRank, rv)
		for name, v := range rv.Totals {
			cv.Merged[name] += v
		}
	}
	return cv
}

// View renders one rank's series (zero RankView when unseen).
func (a *Aggregator) View(r int) RankView {
	a.mu.Lock()
	defer a.mu.Unlock()
	rs := a.ranks[r]
	if rs == nil {
		return RankView{Rank: r, Dead: a.dead[r]}
	}
	return renderSeries(r, &rs.schema, rs.ring, a.dead[r], rs.lastTs)
}

// RankSnapshots reconstructs one metrics.Snapshot per reporting rank from
// the latest cumulative interval, for rank-labelled Prometheus exposition.
// Histogram columns surface as plain "<name>.count"/"<name>.sum" counters
// (bucket vectors never cross the wire). Detector event totals are folded
// into rank 0's snapshot as telemetry.events.<kind> counters.
func (a *Aggregator) RankSnapshots() map[int]metrics.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]metrics.Snapshot, len(a.ranks))
	for r, rs := range a.ranks {
		last := rs.ring.last()
		if last == nil {
			continue
		}
		snap := metrics.Snapshot{
			Counters: map[string]uint64{},
			Gauges:   map[string]int64{},
		}
		for i, c := range rs.schema.cols {
			if i >= len(last.vals) {
				break
			}
			switch c.Kind {
			case KindGauge:
				snap.Gauges[c.Name] = int64(last.vals[i])
			default:
				snap.Counters[c.Name] = uint64(last.vals[i])
			}
		}
		if r == 0 {
			kinds := make([]string, 0, len(a.evTot))
			for k := range a.evTot {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				snap.Counters["telemetry.events."+k] = a.evTot[k]
			}
		}
		out[r] = snap
	}
	return out
}

// Coverage returns how many ranks have reported at least one interval.
func (a *Aggregator) Coverage() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, rs := range a.ranks {
		if rs.ring.n > 0 {
			n++
		}
	}
	return n
}
