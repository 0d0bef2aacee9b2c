// Package layers holds the benchmark's per-layer probes: one micro-run per
// module a task crosses on its way from rt to tcptransport, each against
// that module's own API. They live apart from the end-to-end harness so that
// renaming an internal API is repaired here, in the layer table, and the
// harness that later changes are judged by stays untouched.
package layers

import (
	"sort"
	"time"
)

// Env is what the harness lends a probe.
type Env struct {
	// Budget is the measuring time one probe may spend.
	Budget time.Duration
	// Span opens a span around one block of probe calls and returns the
	// function that closes it.
	Span func(name string) (end func())
	// Syscalls reads the process's read+write system-call count so far;
	// ok=false where the operating system does not keep one.
	Syscalls func() (n uint64, ok bool)
}

// Probe measures one layer and returns metric name -> value; the harness
// owns the units (they are part of BENCHMARK.json).
type Probe struct {
	Layer string
	Run   func(Env) (map[string]float64, error)
}

// Probes is the ladder from the bare kernel down to the raw socket.
var Probes = []Probe{
	{"taskbench", probeKernel},
	{"rt", probeSpawn},
	{"core", probeCore},
	{"hashtable", probeTable},
	{"termdet", probeTermdet},
	{"comm", probeComm},
	{"tcptransport", probeTCP},
	{"net", probeNet},
}

// minBlocks is the least number of blocks a measurement takes, whatever the
// budget: the median of fewer is one block's luck.
const minBlocks = 5

// perCall times blocks of n calls (block runs all n) for the given share of
// the probe's budget and returns the median nanoseconds per call.
func (e Env) perCall(name string, share float64, n int, block func(n int)) float64 {
	block(n / 10) // warm caches, pools and connections
	var per []float64
	deadline := time.Now().Add(time.Duration(float64(e.Budget) * share))
	for len(per) < minBlocks || time.Now().Before(deadline) {
		end := e.Span(name)
		t0 := time.Now()
		block(n)
		d := time.Since(t0)
		end()
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}
