package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
	"gottg/internal/taskbench"
	"gottg/ttg"
)

// Every workload runs the Task-Bench 1-D stencil with one task body
// (buildPoint below) at a grain of 64 flops, about 80 ns of a 1 µs task:
// time per task is mostly runtime overhead. They differ only in where the
// ranks live and how points map to them, so the difference between two of
// them is the cost of the layers one adds (README, "Reading the ladder").
const kernelFlops = 64

type transport int

const (
	local  transport = iota // one rank, shared memory
	inproc                  // ranks over ttg.NewWorld: the whole comm stack, no socket
	tcp                     // ranks over loopback tcptransport
)

type workload struct {
	name      string
	why       string
	gated     bool // listed in BENCHMARK.json: repeats within the bounds on a 2-vCPU host
	transport transport
	ranks     int
	workers   int  // per rank
	cyclic    bool // map point p to rank p%ranks instead of by block
	width     int
	steps     int
}

// Each rep is sized near 0.2 s. The ungated workloads do not repeat within
// any bound the driver's contract allows on a 2-vCPU host (README,
// "Estimator and noise"): stencil_inproc and shuffle_tcp keep more goroutines
// busy than the host has CPUs and follow its phases by 25 % and more between
// runs; stencil_serial settles per process into one of two modes 25 % apart.
// They run by name, in -workload all, with -trace, and stencil_inproc as a
// rung of the ladder, but no bound is put on them.
var workloads = []workload{
	{"stencil_local", "1 rank x 2 workers: every activation hits the discovery table from two threads; all cost is in rt, core, hashtable, rwlock and termdet, comm does nothing",
		true, local, 1, 2, false, 64, 2000},
	{"stencil_tcp", "2 ranks x 1 worker over loopback TCP, block map: 2 of 190 activations per step are remote and every step waits on their round trip, latency-bound through comm and tcptransport",
		true, tcp, 2, 1, false, 64, 600},
	{"stencil_serial", "1 rank x 1 worker, the stencil_local graph: the per-task cost with no second thread, so a change that only adds contention must not move it",
		false, local, 1, 1, false, 64, 2000},
	{"stencil_inproc", "2 ranks x 1 worker over an in-process world, block map: adds codec, batch, link and termination wave without a socket, so a tcptransport-only change must not move it",
		false, inproc, 2, 1, false, 64, 1600},
	{"shuffle_tcp", "the stencil_tcp graph and transport with the cyclic map: 2 of 3 activations cross the wire, coalescing- and byte-throughput-bound, the opposite use of the layers stencil_tcp uses",
		false, tcp, 2, 1, true, 256, 400},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// threads is the number of worker threads the workload runs on: at most
// one per CPU within a rank.
func (wl *workload) threads() int {
	if wl.workers > runtime.NumCPU() {
		return wl.ranks * runtime.NumCPU()
	}
	return wl.ranks * wl.workers
}

func (wl *workload) spec() taskbench.Spec {
	return taskbench.Spec{Pattern: taskbench.Stencil1D, Width: wl.width, Steps: wl.steps, Flops: kernelFlops}
}

func (wl *workload) tasks() int { return wl.width * wl.steps }

// pointVal is the 16-byte datum flowing between point tasks: the producing
// point, so that a consumer can order its inputs, and its value.
type pointVal struct {
	P int64
	V float64
}

func init() { ttg.RegisterFlatPayload(&pointVal{}) }

// inputs are what one seed determines: the first-step value of every point
// and the last-step values a correct run must reproduce bit for bit.
type inputs struct {
	init []float64
	want []float64
}

// makeInputs draws the initial values from seed (splitmix64) and sweeps the
// iteration space sequentially through Spec.Value — the oracle.
func makeInputs(s taskbench.Spec, seed uint64) inputs {
	in := inputs{init: make([]float64, s.Width)}
	x := seed
	for p := range in.init {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		in.init[p] = float64(z>>11) / (1 << 53)
	}
	cur := make([]float64, s.Width)
	next := make([]float64, s.Width)
	for p := range cur {
		cur[p] = s.Value(0, p, in.init[p:p+1])
	}
	var deps []float64
	for t := 1; t < s.Steps; t++ {
		for p := range next {
			deps = deps[:0]
			for _, q := range s.Deps(t, p) {
				deps = append(deps, cur[q])
			}
			next[p] = s.Value(t, p, deps)
		}
		cur, next = next, cur
	}
	in.want = cur
	return in
}

// verify compares a run's last-step values with the oracle's, bit for bit.
func (in inputs) verify(got []float64) error {
	for p, w := range in.want {
		if math.Float64bits(got[p]) != math.Float64bits(w) {
			return fmt.Errorf("point %d: got %x want %x", p, math.Float64bits(got[p]), math.Float64bits(w))
		}
	}
	return nil
}

// buildPoint adds the Point template task to g: an aggregator terminal that
// waits for the point's one to three producers, orders their values by
// producing point, runs the kernel and sends to the consumers of the next
// step. out receives the last step; each point is written by one task.
func buildPoint(g *ttg.Graph, s taskbench.Spec, mapper func(key uint64) int, out []float64) *ttg.TT {
	edge := ttg.NewEdge("point")
	point := g.NewTT("Point", 1, 1, func(tc ttg.TaskContext) {
		t, p := ttg.Unpack2(tc.Key())
		agg := tc.Aggregate(0)
		var vals [3]pointVal
		n := agg.Len()
		for i := 0; i < n; i++ {
			v := *agg.Value(i).(*pointVal)
			j := i
			for ; j > 0 && vals[j-1].P > v.P; j-- {
				vals[j] = vals[j-1]
			}
			vals[j] = v
		}
		var deps [3]float64
		for i := 0; i < n; i++ {
			deps[i] = vals[i].V
		}
		v := s.Value(int(t), int(p), deps[:n])
		if int(t) == s.Steps-1 {
			out[p] = v
			return
		}
		for _, q := range s.RDeps(int(t), int(p)) {
			tc.Send(0, ttg.Pack2(t+1, uint32(q)), &pointVal{P: int64(p), V: v})
		}
	}).WithAggregator(0, func(key uint64) int {
		t, p := ttg.Unpack2(key)
		if t == 0 {
			return 1 // the seed
		}
		return len(s.Deps(int(t), int(p)))
	}).WithMapper(mapper)
	point.Out(0, edge)
	edge.To(point, 0)
	return point
}

// watchdog bounds one rep's graph execution; a rep that exceeds it is
// aborted and counted as failed.
const watchdog = 30 * time.Second

// drainTimeout bounds the wait for the last acks before a network world is
// torn down. A timeout is counted (comm.drain_timeout_share), not failed:
// the results are already verified by then.
const drainTimeout = time.Second

// repOptions select the instrumented variants of a rep.
type repOptions struct {
	metrics      bool // Graph.EnableMetrics / World.EnableMetrics on
	countAtomics bool // Config.CountAtomics: the Eq. 1 audit pass
}

// sample is what one rep measured.
type sample struct {
	err error

	timed time.Duration // first Invoke released -> every rank's Wait returned
	wall  time.Duration // bring-up -> shutdown, everything a caller pays

	mallocs    uint64 // heap objects allocated over the whole rep
	allocBytes uint64
	gcCycles   uint32

	io           ioCounts // read/write syscalls and bytes inside the timed region
	ioOK         bool
	cpu          time.Duration // process CPU time inside the timed region
	ctxsw        int64
	drainTimeout bool
	reconnects   int64

	counts map[string]float64 // summed MetricsSnapshot().Flatten() of every graph and world
}

// instance is one brought-up rep: the graphs of every rank and the worlds
// that connect them.
type instance struct {
	graphs []*ttg.Graph
	points []*ttg.TT
	worlds []*ttg.World
	out    []float64
}

func (wl *workload) mapper() func(key uint64) int {
	ranks, width := wl.ranks, wl.width
	if wl.cyclic {
		return func(key uint64) int {
			_, p := ttg.Unpack2(key)
			return int(p) % ranks
		}
	}
	return func(key uint64) int {
		_, p := ttg.Unpack2(key)
		return int(p) * ranks / width
	}
}

// bringUp builds worlds, transports and graphs up to, not including,
// MakeExecutable.
func (wl *workload) bringUp(opt repOptions) (*instance, error) {
	ranks := wl.ranks
	cfg := ttg.OptimizedConfig(wl.threads() / ranks)
	cfg.PinWorkers = false
	cfg.CountAtomics = opt.countAtomics

	inst := &instance{out: make([]float64, wl.width)}
	switch wl.transport {
	case local:
		inst.graphs = []*ttg.Graph{ttg.New(cfg)}
	case inproc:
		w := ttg.NewWorld(ranks)
		inst.worlds = []*ttg.World{w}
		for r := 0; r < ranks; r++ {
			inst.graphs = append(inst.graphs, ttg.NewDistributed(cfg, w.Proc(r)))
		}
	case tcp:
		lns := make([]net.Listener, ranks)
		addrs := make([]string, ranks)
		fail := func(err error) (*instance, error) {
			for _, ln := range lns { // closing one a transport already closed is harmless
				if ln != nil {
					ln.Close()
				}
			}
			inst.shutdown()
			return nil, err
		}
		for r := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("listen: %w", err))
			}
			lns[r], addrs[r] = ln, ln.Addr().String()
		}
		for r := 0; r < ranks; r++ {
			tr, err := tcptransport.New(tcptransport.Config{Self: r, Peers: addrs, Listener: lns[r]})
			if err != nil {
				return fail(fmt.Errorf("rank %d transport: %w", r, err))
			}
			w, err := comm.NewNetWorld(tr) // starts tr; Shutdown closes it
			if err != nil {
				tr.Close()
				return fail(fmt.Errorf("rank %d world: %w", r, err))
			}
			inst.worlds = append(inst.worlds, w)
			inst.graphs = append(inst.graphs, ttg.NewDistributed(cfg, w.Proc(r)))
		}
	}
	if opt.metrics {
		for _, w := range inst.worlds {
			w.EnableMetrics()
		}
		for _, g := range inst.graphs {
			g.EnableMetrics()
		}
	}
	s, m := wl.spec(), wl.mapper()
	for _, g := range inst.graphs {
		inst.points = append(inst.points, buildPoint(g, s, m, inst.out))
	}
	return inst, nil
}

func (inst *instance) shutdown() {
	for _, w := range inst.worlds {
		w.Shutdown()
	}
}

// harness carries what every rep of a process shares.
type harness struct {
	io   *procIO
	rec  *recorder // nil unless this is the traced run
	reps int       // run ids for spans
}

// runRep performs one full rep: bring-up, seed, run, verify, drain,
// shutdown. It never panics; every failure comes back in sample.err.
func (h *harness) runRep(wl *workload, in inputs, opt repOptions, parent spanID) (s sample) {
	h.reps++
	run := h.reps
	rep := h.rec.begin("rep:"+wl.name, parent, run, 0)
	defer h.rec.end(rep)
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall0 := time.Now()

	ph := h.rec.begin("bringup", rep, run, 0)
	inst, err := wl.bringUp(opt)
	if err != nil {
		s.err = err
		return s
	}
	ranks := len(inst.graphs)
	errs := make([]error, ranks)
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for r := 0; r < ranks; r++ {
		ready.Add(1)
		done.Add(1)
		go func(r int) {
			defer done.Done()
			g, point := inst.graphs[r], inst.points[r]
			func() {
				defer ready.Done()
				g.MakeExecutable()
			}()
			<-start
			sp := h.rec.begin("seed", rep, run, 1+r)
			for p, v := range in.init { // SPMD: every rank seeds every point, owners keep
				g.Invoke(point, ttg.Pack2(0, uint32(p)), &pointVal{P: int64(p), V: v})
			}
			h.rec.end(sp)
			sp = h.rec.begin("run", rep, run, 1+r)
			errs[r] = g.WaitFor(watchdog)
			h.rec.end(sp)
			if errs[r] != nil && !g.Aborting() {
				g.Abort(errs[r]) // the watchdog fired: release the other ranks too
				g.WaitFor(watchdog)
			}
		}(r)
	}
	ready.Wait()
	h.rec.end(ph)

	io0, ok0 := h.io.read()
	u0 := readUsage()
	t0 := time.Now()
	close(start)
	done.Wait()
	s.timed = time.Since(t0)
	u1 := readUsage()
	io1, ok1 := h.io.read()

	if opt.metrics {
		s.counts = map[string]float64{}
		for _, g := range inst.graphs {
			for k, v := range g.MetricsSnapshot().Flatten() {
				s.counts[k] += v
			}
		}
		for _, w := range inst.worlds {
			for k, v := range w.MetricsSnapshot().Flatten() {
				s.counts[k] += v
			}
		}
	}

	ph = h.rec.begin("drain", rep, run, 0)
	for _, w := range inst.worlds {
		if !w.Drain(drainTimeout) {
			s.drainTimeout = true
		}
	}
	h.rec.end(ph)
	ph = h.rec.begin("shutdown", rep, run, 0)
	for _, w := range inst.worlds {
		s.reconnects += w.Reconnects()
	}
	inst.shutdown()
	h.rec.end(ph)

	s.wall = time.Since(wall0)
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	if s.ioOK = ok0 && ok1; s.ioOK {
		s.io = ioCounts{io1.syscr - io0.syscr, io1.syscw - io0.syscw, io1.rchar - io0.rchar, io1.wchar - io0.wchar}
	}
	s.cpu = u1.cpu - u0.cpu
	s.ctxsw = u1.ctxsw - u0.ctxsw

	if err := errors.Join(errs...); err != nil {
		s.err = err
		return s
	}
	s.err = in.verify(inst.out)
	return s
}
