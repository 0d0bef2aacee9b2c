package core

import (
	"errors"
	"time"

	"gottg/internal/rt"
)

// This file implements graph-level fault tolerance: converting a task-body
// panic (isolated by the runtime, see rt.Worker) or an explicit Abort call
// into a clean, leak-free termination of the whole graph — all ranks in
// distributed mode.
//
// Abort protocol:
//
//  1. rt.Runtime.Abort flips the runtime into drain mode: workers discard
//     dequeued tasks through the graph's discardTask (inputs released, task
//     freed, completion accounted).
//  2. deliver drops in-flight sends, so no new tasks are discovered.
//  3. The sweeper goroutine empties the discovery hash tables: tasks tabled
//     awaiting inputs will never become ready (their producers are being
//     discarded), so they are removed and discarded too. Without this the
//     pending count never reaches zero and quiescence never fires.
//  4. In distributed mode the abort is broadcast; every rank drains the
//     same way and the ordinary termination wave then completes globally.

// installFaultHooks wires the runtime's fault-tolerance callbacks to this
// graph. Called from New/NewDistributed, before workers can run.
func (g *Graph) installFaultHooks() {
	g.rtm.SetDropFn(g.discardTask)
	g.rtm.SetOnAbort(g.onAbort)
}

// Abort requests cooperative termination: task bodies stop being executed,
// in-flight sends are dropped, tabled tasks and their data copies are
// released, and Wait returns err (the first Abort or task panic wins).
// Safe from any goroutine, including task bodies; idempotent.
func (g *Graph) Abort(err error) {
	if err == nil {
		err = errors.New("ttg: graph aborted")
	}
	g.rtm.Abort(err)
}

// Err returns the first task error or abort reason recorded so far (nil
// while the graph is healthy). Unlike Wait it does not block.
func (g *Graph) Err() error { return g.rtm.Err() }

// Aborting reports whether the graph is aborting or aborted. Long-running
// task bodies can poll it (or TaskContext.Aborting) to stop early.
func (g *Graph) Aborting() bool { return g.rtm.Aborting() }

// onAbort runs exactly once, on the first Abort (local or via panic
// isolation): propagate to the other ranks and start the sweeper.
func (g *Graph) onAbort(err error) {
	g.event("abort", g.rank, err.Error())
	if g.size > 1 {
		g.proc.Abort(err.Error())
	}
	if g.frozen {
		g.startSweeper()
	}
	// Not frozen: no tasks can be tabled yet; MakeExecutable starts the
	// sweeper if it is still reached.
}

func (g *Graph) startSweeper() {
	g.sweepOnce.Do(func() { go g.sweepTabled() })
}

// discardTask is the runtime's drop routine for TTG tasks: release the
// task's inputs exactly as ttExecute's epilogue does and free the task. The
// runtime accounts the completion itself.
func (g *Graph) discardTask(w *rt.Worker, t *rt.Task) {
	g.releaseInputs(w, t)
	w.FreeTask(t)
}

// sweepTabled drains the discovery hash tables during an abort. A task
// mid-execution at abort time can still deliver into a table after a sweep
// pass (deliver's abort check is advisory, not a barrier), so the sweeper
// loops until the runtime reaches quiescence — bodies are finite, so the
// re-insertion window closes and the loop converges.
func (g *Graph) sweepTabled() {
	sw := g.rtm.ServiceWorker(2)
	for {
		select {
		case <-g.rtm.Done():
			return
		default:
		}
		for _, tt := range g.tts {
			ht := tt.ht
			if ht == nil {
				continue
			}
			for {
				// Drain unlinks a batch under the writer lock, which excludes
				// every delivery (each holds the reader lock with its bucket
				// lock), so no delivery observes a half-removed entry.
				sw.CountBucketLock()
				ents := ht.Drain(128)
				if len(ents) == 0 {
					break
				}
				for _, e := range ents {
					g.discardTask(sw, e.Val.(*rt.Task))
					sw.Completed()
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}
