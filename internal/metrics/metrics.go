// Package metrics is the runtime's unified observability substrate: a
// lightweight registry of named counters, gauges, and histograms shared by
// every subsystem (scheduler, pools, termination detection, hash tables,
// reader-writer locks, communication).
//
// Design constraints, in order:
//
//   - Hot-path updates must be allocation-free and contention-free: counters
//     and histograms are sharded per worker (one cache-line-padded cell per
//     shard), so an update is a single uncontended atomic add on a line the
//     worker owns. No map lookups, no interface calls, no locks.
//
//   - Snapshots must be safe at any time, including mid-run: all cells are
//     atomics, so a snapshot is a racy-but-consistent-per-word sum — exactly
//     what a live metrics poll wants. (Subsystem statistics that are NOT
//     atomic, like rt's CountAtomics categories, are deliberately excluded
//     from live snapshots; see rt.Runtime.MetricsSnapshot.)
//
//   - Everything is optional: a nil *Registry (or unregistered subsystem)
//     costs one pointer nil-check on the hot path and nothing else.
//
// Registration (Counter/Gauge/Histogram/Func) is get-or-create by name and
// intended for setup time; it takes a lock and may allocate.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"gottg/internal/xsync"
)

// cell is one shard of a counter: a padded atomic so shards never share a
// cache line.
type cell struct {
	v atomic.Uint64
	_ [xsync.CacheLineSize - 8]byte
}

// Counter is a monotonically increasing, per-shard counter. Shards are
// worker identities (0 up to the registry's shard count); Value sums all
// shards.
type Counter struct {
	name  string
	cells []cell
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1 on behalf of shard.
func (c *Counter) Inc(shard int) { c.cells[shard].v.Add(1) }

// Add adds n on behalf of shard.
func (c *Counter) Add(shard int, n uint64) { c.cells[shard].v.Add(n) }

// Value returns the sum over all shards. Safe at any time.
func (c *Counter) Value() uint64 {
	var s uint64
	for i := range c.cells {
		s += c.cells[i].v.Load()
	}
	return s
}

// Gauge is a single settable value (not sharded; gauges are written rarely,
// e.g. configuration or table depth).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0
// and bucket i holds 2^(i-1) <= v < 2^i. 64 buckets cover the full uint64
// range (nanosecond latencies, byte sizes, chain lengths alike).
const HistBuckets = 65

// histShard is one worker's private histogram block. The whole block is
// owner-updated; padding at the end keeps neighbouring shards off the line.
type histShard struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	_       [xsync.CacheLineSize - 16]byte
}

// Histogram is a per-shard power-of-two histogram (count, sum, and log2
// buckets). Observe is a few uncontended atomic adds on shard-owned lines.
type Histogram struct {
	name   string
	shards []histShard
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value on behalf of shard.
func (h *Histogram) Observe(shard int, v uint64) {
	s := &h.shards[shard]
	s.buckets[bits.Len64(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// Snapshot merges this histogram's shards. Safe at any time.
func (h *Histogram) Snapshot() HistSnapshot {
	var hs HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		hs.Count += sh.count.Load()
		hs.Sum += sh.sum.Load()
		for b := range sh.buckets {
			hs.Buckets[b] += sh.buckets[b].Load()
		}
	}
	return hs
}

// HistSnapshot is a merged view of a Histogram.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Buckets [HistBuckets]uint64 `json:"-"`
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from the
// power-of-two buckets: the top of the bucket containing the q-th
// observation. Good to within 2x, which is what log-scale latency buckets
// buy.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}

// Snapshot is a point-in-time merged view of a Registry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Flatten renders every metric as name → float64 (histograms contribute
// .count, .sum, .mean, .p50, .p99) — the form the BENCH JSON record embeds.
func (s Snapshot) Flatten() map[string]float64 {
	out := make(map[string]float64, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms))
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = float64(v)
	}
	for k, h := range s.Histograms {
		out[k+".count"] = float64(h.Count)
		out[k+".sum"] = float64(h.Sum)
		out[k+".mean"] = h.Mean()
		out[k+".p50"] = float64(h.Quantile(0.50))
		out[k+".p99"] = float64(h.Quantile(0.99))
	}
	return out
}

// Names returns the sorted metric names in the snapshot (diagnostics).
func (s Snapshot) Names() []string {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Registry holds named metrics sharded `shards` ways. The zero value is not
// usable; create with NewRegistry. A nil *Registry is a valid "metrics off"
// value for all methods that matter on hot paths (they are never called with
// nil — subsystems hold nil subsystem-struct pointers instead).
type Registry struct {
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	order    []string // registration order, for stable iteration
}

// NewRegistry creates a registry whose sharded metrics have `shards` cells
// (one per worker identity that will update them).
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:   shards,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() int64{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Panics if the name is already taken by a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{name: name, cells: make([]cell, r.shards)}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.mustBeFree(name, "histogram")
	h := &Histogram{name: name, shards: make([]histShard, r.shards)}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Func registers a lazy gauge: f is invoked at snapshot time. Subsystems
// that already maintain their own atomic statistics (termination detector,
// hash tables, comm) export them this way without double-counting. f must be
// safe to call at any time from any goroutine.
func (r *Registry) Func(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		r.funcs[name] = f // re-registration replaces (graph re-wiring)
		return
	}
	r.mustBeFree(name, "func")
	r.funcs[name] = f
	r.order = append(r.order, name)
}

// mustBeFree panics if name is held by another metric kind. Caller holds mu.
func (r *Registry) mustBeFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter, not a %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge, not a %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram, not a %s", name, kind))
	}
	if _, ok := r.funcs[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a func, not a %s", name, kind))
	}
}

// Snapshot merges every metric. Safe at any time, including while workers
// are updating cells.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)+len(r.funcs)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, f := range r.funcs {
		s.Gauges[name] = f()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
