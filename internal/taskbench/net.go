package taskbench

import (
	"fmt"
	"math"
	"net"
	"time"
)

// MergeNetResults combines per-rank reports into the run's Result, checking
// that the surviving ranks' last-timestep reports cover every point exactly
// and agree bit-identically wherever two ranks computed the same point
// (which happens when a failed rank's tasks were re-executed elsewhere).
func MergeNetResults(s Spec, rs []RankReport) (Result, error) {
	merged := make([]float64, s.Width)
	have := make([]bool, s.Width)
	var elapsed time.Duration
	for _, r := range rs {
		if d := time.Duration(r.ElapsedNs); d > elapsed {
			elapsed = d
		}
		for p, v := range r.Points {
			if p < 0 || p >= s.Width {
				return Result{}, fmt.Errorf("taskbench: rank %d reported out-of-range point %d", r.Rank, p)
			}
			if have[p] && math.Float64bits(merged[p]) != math.Float64bits(v) {
				return Result{}, fmt.Errorf("taskbench: point %d reported twice with different values (%v vs %v)",
					p, merged[p], v)
			}
			merged[p] = v
			have[p] = true
		}
	}
	checksum := 0.0
	for p := 0; p < s.Width; p++ {
		if !have[p] {
			return Result{}, fmt.Errorf("taskbench: no rank reported point %d", p)
		}
		checksum += merged[p]
	}
	return Result{Elapsed: elapsed, Checksum: checksum, Tasks: s.TotalTasks()}, nil
}

// LoopbackAddrs binds n fresh loopback TCP listeners (so every rank knows
// every port before any transport starts) and returns them with their
// addresses. The caller passes each listener to tcptransport.New via
// Config.Listener.
func LoopbackAddrs(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs, nil
}
