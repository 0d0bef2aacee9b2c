// Command benchmark is go-ttg's repeatable benchmark: closed-loop Task-Bench
// stencil workloads that share one task body and differ in the layers they
// cross, measured end to end (time and heap objects per task, set-up time)
// and, with -trace, layer by layer. README.md in this directory says what
// every number means and why it was chosen.
//
//	go run ./benchmark -workload stencil_tcp            # one workload, 30 s
//	go run ./benchmark -workload all                    # all of them, interleaved rep by rep
//	go run ./benchmark -workload stencil_tcp -trace 1   # per-layer metrics and a span file
//
// The last line of standard output is one JSON object for the driver that
// BENCHMARK.json describes; everything above it is the same data as a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// warmupReps run before the timed reps of every runner and are not sampled:
// they fill the Go heap to its steady size and the kernel's loopback caches.
const warmupReps = 5

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds are what this host class can resolve (NOISE.md): between 60 s
// runs of the same code, time per task on the gated workloads spreads
// 1.5-2.5 % in a quiet hour and several times that in a noisy one, and the
// driver wants a spread under a third of its bound; heap objects per task
// repeat to a part in a thousand.
var endToEnd = []metricDef{
	{"task_ns", "ns", "lower", 0.15},
	{"allocs", "1/task", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// runner is one stream of reps of one workload under one set of options.
type runner struct {
	wl      *workload
	opt     repOptions
	in      inputs
	samples []sample // successful timed reps
	run     int      // reps started, warm-up included
	failed  int
}

func newRunner(wl *workload, seed uint64, opt repOptions) *runner {
	return &runner{wl: wl, opt: opt, in: makeInputs(wl.spec(), seed)}
}

func (r *runner) rep(h *harness, parent spanID, keep bool) {
	runtime.GC() // between reps, outside every timed region
	r.run++
	s := h.runRep(r.wl, r.in, r.opt, parent)
	if s.err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s rep %d failed: %v\n", r.wl.name, r.run, s.err)
		return
	}
	if keep {
		r.samples = append(r.samples, s)
	}
}

// interleave runs the runners round-robin, one rep each per round: warm-up
// rounds first, then timed rounds until reps rounds are done (reps > 0) or
// budget has passed. With several runners every runner's samples span the
// whole run, so a slow streak of the host (5-30 s on this host class) taxes
// all of them alike instead of landing on one.
func (h *harness) interleave(rs []*runner, warm, reps int, budget time.Duration, parent spanID) {
	for i := 0; i < warm; i++ {
		for _, r := range rs {
			r.rep(h, parent, false)
		}
	}
	t0 := time.Now()
	for round := 0; ; round++ {
		if reps > 0 && round >= reps {
			return
		}
		if reps <= 0 && round > 0 && time.Since(t0) >= budget {
			return
		}
		for _, r := range rs {
			r.rep(h, parent, true)
		}
	}
}

// perTask extracts one per-rep quantity divided by the workload's task count.
func (r *runner) perTask(f func(s *sample) float64) []float64 {
	out := make([]float64, len(r.samples))
	n := float64(r.wl.tasks())
	for i := range r.samples {
		out[i] = f(&r.samples[i]) / n
	}
	return out
}

func (r *runner) taskNs() []float64 {
	return r.perTask(func(s *sample) float64 { return float64(s.timed.Nanoseconds()) })
}

func (r *runner) setupS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = (s.wall - s.timed).Seconds()
	}
	return out
}

// endToEndValues computes the end-to-end metrics of a finished runner; nil
// when no rep succeeded.
func (r *runner) endToEndValues() map[string]float64 {
	if len(r.samples) == 0 {
		return nil
	}
	return map[string]float64{
		"task_ns": fastBand(r.taskNs()),
		"allocs":  median(r.perTask(func(s *sample) float64 { return float64(s.mallocs) })),
		"setup_s": median(r.setupS()),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of the initial point values")
		seconds = flag.Int("seconds", 30, "seconds to measure per workload (ignored when -reps > 0)")
		reps    = flag.Int("reps", 0, "timed reps per workload; 0 = as many as fit in -seconds")
		trace   = flag.String("trace", "0", "0 = end-to-end metrics; 1 = per-layer metrics plus a span file under .bench_out/; any other value = the same, spans written to that file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var sel []*workload
	if *wlName == "all" {
		for i := range workloads {
			sel = append(sel, &workloads[i])
		}
	} else if wl := findWorkload(*wlName); wl != nil {
		sel = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wlName)
		os.Exit(2)
	}

	h := &harness{io: openProcIO()}
	defer h.io.close()
	budget := time.Duration(*seconds) * time.Second

	var res result
	var err error
	if *trace == "0" {
		res = h.runEndToEnd(sel, *seed, *reps, budget)
	} else {
		file := *trace
		if file == "1" {
			file = filepath.Join(".bench_out", *wlName+".trace.json")
		}
		res, err = h.runTraced(sel, *seed, *reps, budget, file)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is the untraced run: every selected workload, interleaved.
func (h *harness) runEndToEnd(sel []*workload, seed uint64, reps int, budget time.Duration) result {
	var rs []*runner
	for _, wl := range sel {
		rs = append(rs, newRunner(wl, seed, repOptions{}))
	}
	h.interleave(rs, warmupReps, reps, budget*time.Duration(len(rs)), 0)

	res := tally(rs)
	for _, r := range rs {
		vals := r.endToEndValues()
		if vals == nil {
			continue
		}
		prefix := ""
		if len(rs) > 1 {
			prefix = r.wl.name + "."
		}
		for _, d := range endToEnd {
			printMetric(r.wl.name, d.Name, fmt.Sprint(vals[d.Name]), d.Unit)
			res.Metrics[prefix+d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		printMetric(r.wl.name, "reps", fmt.Sprint(len(r.samples)), "count")
		printMetric(r.wl.name, "failed", fmt.Sprint(r.failed), "count")
	}
	return res
}

// tally opens a result with the rep counts of rs: correct when every rep of
// every runner succeeded and every runner has samples.
func tally(rs []*runner) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rs {
		res.Attempted += r.run
		res.Failed += r.failed
		if len(r.samples) == 0 {
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	return res
}

func printMetric(workload, name, value, unit string) {
	fmt.Printf("%-15s %-32s %18s %s\n", workload, name, value, unit)
}
