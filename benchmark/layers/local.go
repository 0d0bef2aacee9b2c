package layers

import (
	"fmt"
	"sync/atomic"

	"gottg/internal/core"
	"gottg/internal/hashtable"
	"gottg/internal/rt"
	"gottg/internal/rwlock"
	"gottg/internal/taskbench"
	"gottg/internal/termdet"
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink float64

// probeKernel measures the floor under every workload: the stencil swept
// sequentially through Spec.Deps and Spec.Value at the benchmark's grain
// (ns per task, no runtime at all), and the cost of one kernel flop.
func probeKernel(e Env) (map[string]float64, error) {
	s := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 64, Steps: 2000, Flops: 64}
	cur := make([]float64, s.Width)
	next := make([]float64, s.Width)
	seq := e.perCall("taskbench.seq", 0.5, s.TotalTasks(), func(n int) {
		steps := n / s.Width
		for p := range cur {
			cur[p] = s.Value(0, p, nil)
		}
		var deps []float64
		for t := 1; t < steps; t++ {
			for p := range next {
				deps = deps[:0]
				for _, q := range s.Deps(t, p) {
					deps = append(deps, cur[q])
				}
				next[p] = s.Value(t, p, deps)
			}
			cur, next = next, cur
		}
		sink += cur[0]
	})
	big := taskbench.Spec{Flops: 1 << 16}
	flop := e.perCall("taskbench.flop", 0.5, 20*big.Flops, func(n int) {
		for i := 0; i < n/big.Flops; i++ {
			sink += big.Kernel(float64(i))
		}
	})
	return map[string]float64{"taskbench.seq_ns": seq, "taskbench.flop_ns": flop}, nil
}

// oneWorker is the optimized runtime on a single unpinned worker, the
// configuration under which a per-call figure is a cost and not a wait.
func oneWorker() rt.Config {
	cfg := rt.OptimizedConfig(1)
	cfg.PinWorkers = false
	return cfg
}

// probeSpawn pushes empty tasks through the bare runtime: each task takes a
// task object from the pool, counts its successor with the termination
// detector, schedules it and frees itself — rt with no graph on top.
func probeSpawn(e Env) (map[string]float64, error) {
	ns := e.perCall("rt.spawn", 1, 100_000, func(n int) {
		r := rt.New(oneWorker())
		var budget atomic.Int64
		budget.Store(int64(n))
		var exec rt.ExecFn
		exec = func(w *rt.Worker, t *rt.Task) {
			if budget.Add(-1) > 0 {
				nt := w.NewTask()
				nt.Exec = exec
				w.Discovered()
				w.Schedule(nt)
			}
			w.Completed()
			w.FreeTask(t)
		}
		r.BeginAction() // start-up token
		r.Start(false)
		r.BeginAction() // the injected task, completed by the worker
		r.Inject(&rt.Task{Exec: exec})
		r.EndAction()
		r.WaitDone()
	})
	return map[string]float64{"rt.spawn_ns": ns}, nil
}

// flat is the workloads' 16-byte payload shape.
type flat struct {
	P int64
	V float64
}

// probeCore measures the graph layer without a discovery table or a peer: a
// chain of single-input tasks on one worker (deliver, create, schedule,
// execute, release), and the flat codec the distributed workloads put every
// remote activation through.
func probeCore(e Env) (map[string]float64, error) {
	payload := &flat{P: 1, V: 2}
	dispatch := e.perCall("core.dispatch", 0.5, 50_000, func(n int) {
		g := core.New(oneWorker())
		edge := core.NewEdge("next")
		link := g.NewTT("Link", 1, 1, func(tc core.TaskContext) {
			if k := tc.Key(); k+1 < uint64(n) {
				tc.Send(0, k+1, payload)
			}
		})
		link.Out(0, edge)
		edge.To(link, 0)
		g.MakeExecutable()
		g.Invoke(link, 0, payload)
		if err := g.Wait(); err != nil {
			panic(err)
		}
	})
	codec, err := core.NewStructCodec(payload)
	if err != nil {
		return nil, fmt.Errorf("flat codec: %w", err)
	}
	buf := make([]byte, 0, 64)
	enc := e.perCall("core.codec.enc", 0.25, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = codec.Encode(buf[:0], payload)
		}
	})
	var decErr error
	dec := e.perCall("core.codec.dec", 0.25, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			v, err := codec.Decode(buf)
			if err != nil {
				decErr = err
				return
			}
			sink += v.(*flat).V
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("flat codec: %w", decErr)
	}
	return map[string]float64{"core.dispatch_ns": dispatch, "core.codec.enc_ns": enc, "core.codec.dec_ns": dec}, nil
}

// probeTable measures the discovery table as the graph layer uses it for a
// multi-input task — insert on the first input, find on the next, remove
// when the task becomes eligible — plus the lock-free lookup and the BRAVO
// reader lock taken around every table operation.
func probeTable(e Env) (map[string]float64, error) {
	const live = 64 // entries resident during the lookups, the stencil's width
	t := hashtable.New(hashtable.Options{InitialSize: 64, Lock: rwlock.New(true, 2)})
	resident := make([]hashtable.Entry, live)
	for i := range resident {
		resident[i].SetKey(uint64(i))
		t.Insert(0, &resident[i])
	}
	var ent hashtable.Entry
	cycle := e.perCall("hashtable.cycle", 0.4, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(live + i)
			ent.Reset()
			ent.SetKey(k)
			t.Insert(0, &ent)
			if t.Find(0, k) == nil || t.Remove(0, k) == nil {
				panic("hashtable probe: entry lost")
			}
		}
	})
	find := e.perCall("hashtable.findfast", 0.3, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			if ent, ok := t.FindFast(uint64(i % live)); !ok || ent == nil {
				panic("hashtable probe: FindFast missed a resident key on an idle table")
			}
		}
	})
	l := rwlock.New(true, 2)
	rlock := e.perCall("rwlock.rlock", 0.3, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			l.RLock(0)
			l.RUnlock(0)
		}
	})
	return map[string]float64{"hashtable.cycle_ns": cycle, "hashtable.findfast_ns": find, "rwlock.rlock_ns": rlock}, nil
}

// probeTermdet measures the thread-local discovery/completion pair every
// task pays.
func probeTermdet(e Env) (map[string]float64, error) {
	d := termdet.New(2, true)
	ns := e.perCall("termdet.count", 1, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			d.Discovered(0)
			d.Completed(0)
		}
	})
	return map[string]float64{"termdet.count_ns": ns}, nil
}
