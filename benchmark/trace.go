package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gottg/benchmark/layers"
)

// perLayer lists every per-layer metric of the traced run, by layer (the
// prefix is the module's name). The README says which end-to-end metric
// each should move, on which workload.
var perLayer = []metricDef{
	// The floor: the same stencil with no runtime, and the kernel's grain.
	{Name: "taskbench.seq_ns", Unit: "ns", Better: "lower"},
	{Name: "taskbench.flop_ns", Unit: "ns", Better: "lower"},
	{Name: "taskbench.metg50_flops", Unit: "flops", Better: "lower"},

	{Name: "rt.spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.sched.push_per_task", Unit: "1/task", Better: "lower"},
	{Name: "rt.sched.inject_per_task", Unit: "1/task", Better: "lower"},
	{Name: "rt.sched.steal_per_ktask", Unit: "1/ktask", Better: "lower"},
	{Name: "rt.sched.park_per_ktask", Unit: "1/ktask", Better: "lower"},
	{Name: "rt.pool.task_miss_share", Unit: "share", Better: "lower"},
	{Name: "rt.pool.copy_miss_share", Unit: "share", Better: "lower"},
	{Name: "rt.task.inlined_share", Unit: "share", Better: "higher"},
	{Name: "rt.atomics_per_task", Unit: "1/task", Better: "lower"},

	{Name: "core.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ht.ops_per_task", Unit: "1/task", Better: "lower"},
	{Name: "core.ht.hit_share", Unit: "share", Better: "higher"},
	{Name: "core.codec.enc_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.dec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.gob_share", Unit: "share", Better: "lower"},

	{Name: "hashtable.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "hashtable.findfast_ns", Unit: "ns", Better: "lower"},
	{Name: "rwlock.rlock_ns", Unit: "ns", Better: "lower"},

	{Name: "termdet.count_ns", Unit: "ns", Better: "lower"},
	{Name: "termdet.flush_per_ktask", Unit: "1/ktask", Better: "lower"},
	{Name: "termdet.rounds", Unit: "1/rep", Better: "lower"},

	{Name: "comm.msgs_per_task", Unit: "1/task", Better: "lower"},
	{Name: "comm.acts_per_msg", Unit: "1/msg", Better: "higher"},
	{Name: "comm.bytes_per_task", Unit: "B/task", Better: "lower"},
	{Name: "comm.acks_per_msg", Unit: "1/msg", Better: "lower"},
	{Name: "comm.ctrl_per_msg", Unit: "1/msg", Better: "lower"},
	{Name: "comm.retransmits", Unit: "1/rep", Better: "lower"},
	{Name: "comm.flush.size_share", Unit: "share", Better: "higher"},
	{Name: "comm.flush.idle_share", Unit: "share", Better: "lower"},
	{Name: "comm.batch_append_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.send_rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.drain_timeout_share", Unit: "share", Better: "lower"},

	{Name: "tcptransport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "tcptransport.stream_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tcptransport.syscalls_per_frame", Unit: "1/frame", Better: "lower"},
	{Name: "tcptransport.bringup_ms", Unit: "ms", Better: "lower"},
	{Name: "tcptransport.reconnects", Unit: "1/rep", Better: "lower"},
	{Name: "net.rtt_us", Unit: "us", Better: "lower"},

	// Whole-process costs: too noisy or too derivative to gate on.
	{Name: "proc.syscalls_per_task", Unit: "1/task", Better: "lower"},
	{Name: "proc.wire_B", Unit: "B/task", Better: "lower"},
	{Name: "proc.cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.alloc_B", Unit: "B/task", Better: "lower"},
	{Name: "proc.gc_cycles_per_rep", Unit: "1/rep", Better: "lower"},
	{Name: "proc.ctxsw_per_ktask", Unit: "1/ktask", Better: "lower"},
	{Name: "proc.rss_mb", Unit: "MiB", Better: "lower"},

	// The layer table, by subtraction between workloads that share a body.
	{Name: "ladder.runtime_ns", Unit: "ns", Better: "lower"},
	{Name: "ladder.comm_ns", Unit: "ns", Better: "lower"},
	{Name: "ladder.wire_ns", Unit: "ns", Better: "lower"},
	{Name: "ladder.step_us", Unit: "us", Better: "lower"},

	{Name: "task_ns.p50", Unit: "ns", Better: "lower"},
	{Name: "task_ns.p90", Unit: "ns", Better: "lower"},
	{Name: "task_ns.iqr_pct", Unit: "%", Better: "lower"},
	{Name: "setup.max_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// ladderRungs are the workloads the ladder subtracts, bottom rung first.
var ladderRungs = []string{"stencil_local", "stencil_inproc", "stencil_tcp"}

// Shares of the traced run's time. The per-layer metrics carry no bound, so
// they take fewer reps than the end-to-end run: what is left after warm-up
// and the probes is split between the untraced and traced streams of the
// chosen workload and the untraced ladder rungs.
const (
	tracedWarmup    = 2
	tracedRepShare  = 0.5
	tracedProbeTime = 0.2
)

// runTraced is the traced run. For each selected workload it interleaves an
// untraced stream (the baseline of trace.overhead_pct and of the proc.*
// metrics), a stream with Graph/World metrics on (the counts), and untraced
// streams of the ladder rungs; then one CountAtomics rep; then the layer
// probes. Spans around every rep phase and every probe block go to file.
func (h *harness) runTraced(sel []*workload, seed uint64, reps int, budget time.Duration, file string) (result, error) {
	h.rec = newRecorder()
	total := budget * time.Duration(len(sel))
	root := h.rec.begin("traced run", 0, 0, 0)

	base := map[string]*runner{}
	var rs, traced []*runner
	untraced := func(wl *workload) {
		if base[wl.name] == nil {
			base[wl.name] = newRunner(wl, seed, repOptions{})
			rs = append(rs, base[wl.name])
		}
	}
	for _, wl := range sel {
		untraced(wl)
		t := newRunner(wl, seed, repOptions{metrics: true})
		traced = append(traced, t)
		rs = append(rs, t)
	}
	for _, name := range ladderRungs {
		untraced(findWorkload(name))
	}
	h.interleave(rs, tracedWarmup, reps, time.Duration(float64(total)*tracedRepShare), root)

	// The Eq. 1 audit: one rep per selected workload with every atomic RMW
	// counted. The count is exact, so one rep is the measurement.
	audits := map[string]*runner{}
	for _, t := range traced {
		a := &runner{wl: t.wl, in: t.in, opt: repOptions{metrics: true, countAtomics: true}}
		a.rep(h, root, true)
		audits[t.wl.name] = a
		rs = append(rs, a)
	}

	probes, err := h.runProbes(time.Duration(float64(total)*tracedProbeTime), root)
	h.rec.end(root)
	if err != nil {
		return result{}, err
	}
	if err := h.writeSpans(file); err != nil {
		return result{}, err
	}

	res := tally(rs)
	if !res.Correct {
		return res, nil
	}
	for _, t := range traced {
		atomics := audits[t.wl.name].samples[0].counts["rt.atomics.total"] / float64(t.wl.tasks())
		vals := layerValues(t, base, atomics, probes)
		prefix := ""
		if len(sel) > 1 {
			prefix = t.wl.name + "."
		}
		for _, d := range perLayer {
			v, ok := vals[d.Name]
			if !ok {
				printMetric(t.wl.name, d.Name, "unavailable", d.Unit)
				continue
			}
			printMetric(t.wl.name, d.Name, fmt.Sprint(v), d.Unit)
			res.Metrics[prefix+d.Name] = metricValue{v, d.Unit}
		}
		printMetric(t.wl.name, "reps", fmt.Sprint(len(t.samples)), "count")
		printMetric(t.wl.name, "failed", fmt.Sprint(t.failed+base[t.wl.name].failed), "count")
	}
	fmt.Printf("spans written to %s\n", file)
	return res, nil
}

// runProbes runs every layer probe, each with an equal share of budget and
// a span around each of its blocks.
func (h *harness) runProbes(budget time.Duration, root spanID) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range layers.Probes {
		h.reps++
		run := h.reps
		parent := h.rec.begin("probe:"+p.Layer, root, run, 0)
		env := layers.Env{
			Budget: budget / time.Duration(len(layers.Probes)),
			Span: func(name string) func() {
				id := h.rec.begin(name, parent, run, 0)
				return func() { h.rec.end(id) }
			},
			Syscalls: func() (uint64, bool) {
				c, ok := h.io.read()
				return c.syscr + c.syscw, ok
			},
		}
		vals, err := runProbe(p, env)
		h.rec.end(parent)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.Layer, err)
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}

// runProbe turns a probe's panic (an invariant of the probed module broken)
// into an error, so that the benchmark reports it and exits non-zero.
func runProbe(p layers.Probe, env layers.Env) (vals map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.Run(env)
}

func (h *harness) writeSpans(file string) error {
	if dir := filepath.Dir(file); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	f, err := os.Create(file)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := h.rec.write(f); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives the per-layer metrics of one workload: counts from
// its traced stream t, process costs and the time distribution from its
// untraced stream, the ladder from the untraced rungs, the rest from probes.
func layerValues(t *runner, base map[string]*runner, atomics float64, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range probes {
		out[k] = v
	}

	// Counts: summed over the traced reps, then normalized.
	c := map[string]float64{}
	var reconnects, drains float64
	for _, s := range t.samples {
		for k, v := range s.counts {
			c[k] += v
		}
		reconnects += float64(s.reconnects)
	}
	b := base[t.wl.name]
	for _, r := range []*runner{t, b} {
		for _, s := range r.samples {
			if s.drainTimeout {
				drains++
			}
		}
	}
	nreps := float64(len(t.samples))
	tasks := nreps * float64(t.wl.tasks())
	inlined := c["rt.task.inlined"] + c["rt.task.inlined_adaptive"]
	flushes := c["comm.flushes.size"] + c["comm.flushes.idle"] + c["comm.flushes.shutdown"]

	out["rt.sched.push_per_task"] = c["rt.sched.push"] / tasks
	out["rt.sched.inject_per_task"] = c["rt.sched.inject"] / tasks
	out["rt.sched.steal_per_ktask"] = 1e3 * c["rt.sched.steal"] / tasks
	out["rt.sched.park_per_ktask"] = 1e3 * c["rt.sched.park"] / tasks
	out["rt.pool.task_miss_share"] = ratio(c["rt.pool.task.miss"], c["rt.pool.task.miss"]+c["rt.pool.task.hit"])
	out["rt.pool.copy_miss_share"] = ratio(c["rt.pool.copy.miss"], c["rt.pool.copy.miss"]+c["rt.pool.copy.hit"])
	out["rt.task.inlined_share"] = ratio(inlined, inlined+c["rt.task.executed"])
	out["rt.atomics_per_task"] = atomics
	out["core.ht.ops_per_task"] = (c["core.ht.find.hit"] + c["core.ht.find.miss"] + c["core.ht.insert"] + c["core.ht.remove"]) / tasks
	out["core.ht.hit_share"] = ratio(c["core.ht.find.hit"], c["core.ht.find.hit"]+c["core.ht.find.miss"])
	out["core.codec.gob_share"] = ratio(c["core.codec_gob"], c["core.codec_gob"]+c["core.codec_fastpath"])
	out["termdet.flush_per_ktask"] = 1e3 * c["termdet.flushes"] / tasks
	out["termdet.rounds"] = c["comm.rounds"] / nreps
	out["comm.msgs_per_task"] = c["comm.msgs.sent"] / tasks
	out["comm.acts_per_msg"] = ratio(c["comm.batch_size.sum"], c["comm.batch_size.count"])
	out["comm.bytes_per_task"] = c["comm.bytes.sent"] / tasks
	out["comm.acks_per_msg"] = ratio(c["comm.acks.sent"], c["comm.msgs.sent"])
	out["comm.ctrl_per_msg"] = ratio(c["comm.ctrl.sent"], c["comm.msgs.sent"])
	out["comm.retransmits"] = c["comm.retransmits"] / nreps
	out["comm.flush.size_share"] = ratio(c["comm.flushes.size"], flushes)
	out["comm.flush.idle_share"] = ratio(c["comm.flushes.idle"], flushes)
	out["comm.drain_timeout_share"] = drains / float64(len(t.samples)+len(b.samples))
	out["tcptransport.reconnects"] = reconnects / nreps

	// Process costs, from the untraced stream.
	mean := func(f func(s *sample) float64) float64 {
		var sum float64
		for i := range b.samples {
			sum += f(&b.samples[i])
		}
		return sum / float64(len(b.samples))
	}
	perTask := float64(b.wl.tasks())
	if b.samples[0].ioOK {
		out["proc.syscalls_per_task"] = median(b.perTask(func(s *sample) float64 { return float64(s.io.syscr + s.io.syscw) }))
		out["proc.wire_B"] = mean(func(s *sample) float64 { return float64(s.io.wchar) }) / perTask
	}
	out["proc.cpu_ns"] = mean(func(s *sample) float64 { return float64(s.cpu.Nanoseconds()) }) / perTask
	out["proc.alloc_B"] = mean(func(s *sample) float64 { return float64(s.allocBytes) }) / perTask
	out["proc.gc_cycles_per_rep"] = mean(func(s *sample) float64 { return float64(s.gcCycles) })
	out["proc.ctxsw_per_ktask"] = 1e3 * mean(func(s *sample) float64 { return float64(s.ctxsw) }) / perTask
	out["proc.rss_mb"] = readUsage().rssMiB

	// The ladder. Every rung runs the same body, so the difference between
	// two rungs is what the upper one's extra layers cost per task, and
	// seq_ns/threads plus the three terms is stencil_tcp's task_ns exactly.
	rung := func(name string) float64 { return fastBand(base[name].taskNs()) }
	loc, inp, net := rung(ladderRungs[0]), rung(ladderRungs[1]), rung(ladderRungs[2])
	threads := float64(findWorkload(ladderRungs[0]).threads())
	out["ladder.runtime_ns"] = loc - probes["taskbench.seq_ns"]/threads
	out["ladder.comm_ns"] = inp - loc
	out["ladder.wire_ns"] = net - inp
	out["ladder.step_us"] = net * float64(findWorkload(ladderRungs[2]).width) / 1e3
	// METG(50%): the grain at which a task's body takes as long as the
	// runtime's share of it, in kernel flops.
	out["taskbench.metg50_flops"] = out["ladder.runtime_ns"] * threads / probes["taskbench.flop_ns"]

	ns := b.taskNs()
	out["task_ns.p50"] = median(ns)
	out["task_ns.p90"] = quantile(ns, 0.9)
	out["task_ns.iqr_pct"] = 100 * (quantile(ns, 0.75) - quantile(ns, 0.25)) / median(ns)
	out["setup.max_s"] = slices.Max(b.setupS())
	out["trace.overhead_pct"] = 100 * (fastBand(t.taskNs()) - fastBand(ns)) / fastBand(ns)
	return out
}
