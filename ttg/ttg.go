// Package ttg is the public API of go-ttg: a Template Task Graph (TTG)
// data-flow programming system with the low-overhead runtime optimizations
// of "Pushing the Boundaries of Small Tasks: Scalable Low-Overhead Data-Flow
// Programming in TTG" (IEEE CLUSTER 2022) — the LLP scheduler, thread-local
// termination detection, and BRAVO reader-biased locking.
//
// Quick start:
//
//	g := ttg.New(ttg.OptimizedConfig(0)) // 0 = one worker per CPU
//	e := ttg.NewEdge("data")
//	hello := g.NewTT("hello", 1, 1, func(tc ttg.TaskContext) {
//	    tc.Send(0, tc.Key(), tc.Value(0).(string)+" world")
//	})
//	print := g.NewTT("print", 1, 0, func(tc ttg.TaskContext) {
//	    fmt.Println(tc.Value(0))
//	})
//	hello.Out(0, e)
//	e.To(print, 0)
//	g.MakeExecutable()
//	g.Invoke(hello, 0, "hello")
//	g.Wait()
//
// The types are aliases of gottg/internal/core and gottg/internal/rt, so
// there is no wrapper cost.
package ttg

import (
	"gottg/internal/comm"
	"gottg/internal/core"
	"gottg/internal/rt"
)

// Graph is a template task graph bound to a runtime; see core.Graph.
type Graph = core.Graph

// TT is a template task; see core.TT.
type TT = core.TT

// Edge connects output terminals to input terminals; see core.Edge.
type Edge = core.Edge

// TaskContext is the executing task's handle; see core.TaskContext.
type TaskContext = core.TaskContext

// Body is a template task's user function.
type Body = core.Body

// Aggregate is the accumulated input of an aggregator terminal.
type Aggregate = core.Aggregate

// Config assembles a runtime; see rt.Config.
type Config = rt.Config

// Worker is a runtime execution thread; see rt.Worker.
type Worker = rt.Worker

// Copy is a reference-counted data copy; see rt.Copy.
type Copy = rt.Copy

// SchedKind selects the scheduler implementation.
type SchedKind = rt.SchedKind

// Scheduler kinds.
const (
	SchedLLP = rt.SchedLLP
	SchedLFQ = rt.SchedLFQ
	SchedLL  = rt.SchedLL
)

// New creates a shared-memory graph with its own runtime.
func New(cfg Config) *Graph { return core.New(cfg) }

// NewEdge creates a named edge.
func NewEdge(name string) *Edge { return core.NewEdge(name) }

// OptimizedConfig is the paper's optimized runtime (LLP + thread-local
// termination detection + BRAVO); pass 0 workers for one per CPU.
func OptimizedConfig(workers int) Config { return rt.OptimizedConfig(workers) }

// OriginalConfig mimics TTG over unmodified PaRSEC (LFQ + process-wide
// counters + plain reader-writer lock).
func OriginalConfig(workers int) Config { return rt.OriginalConfig(workers) }

// RegisterPayload registers a payload type for distributed serialization.
func RegisterPayload(v any) { core.RegisterPayload(v) }

// Codec converts one payload type to and from wire bytes; see core.Codec for
// the contract (append-style encode, copy-on-decode, error — never panic —
// on malformed input).
type Codec = core.Codec

// RegisterCodec installs a fast-path codec for sample's concrete type,
// bypassing gob on the wire. Must be called in the same order on every rank,
// before MakeExecutable.
func RegisterCodec(sample any, c Codec) { core.RegisterCodec(sample, c) }

// RegisterFlatPayload registers a payload type whose exported fields are all
// fixed-width scalars with an automatic allocation-free binary codec; it
// subsumes RegisterPayload for such types. Panics if the type is not flat.
func RegisterFlatPayload(sample any) { core.RegisterFlatPayload(sample) }

// Key packing helpers (TTG keys are uint64; these pack small tuples).
var (
	Pack2    = core.Pack2
	Unpack2  = core.Unpack2
	Pack3    = core.Pack3
	Unpack3  = core.Unpack3
	Pack4D   = core.Pack4D
	Unpack4D = core.Unpack4D
)

// TaskError is a task-body panic converted into a structured error (which
// TT, which key, the panic value and stack); Wait returns it after a panic.
type TaskError = rt.TaskError

// World is a set of simulated ranks for distributed execution.
type World = comm.World

// FaultPlan injects seeded faults into a World's links: a dropped frame cuts
// its link for a short while, after which the link layer resends what the
// cut lost, and a delayed frame keeps its link's order.
type FaultPlan = comm.FaultPlan

// Proc is one rank's communication endpoint.
type Proc = comm.Proc

// FDConfig tunes heartbeat failure detection (World.EnableFailureDetection);
// zero values take the defaults. See comm.FDConfig.
type FDConfig = comm.FDConfig

// ErrRankKilled is returned by Graph.Wait on a rank that was fail-stopped
// with World.KillRank; survivors re-home its keys and re-execute its tasks
// when Graph.EnableFaultTolerance is on.
var ErrRankKilled = core.ErrRankKilled

// NewWorld creates an in-process world of n ranks for distributed runs.
func NewWorld(n int) *World { return comm.NewWorld(n) }

// NewDistributed creates the local-rank replica of a distributed graph.
func NewDistributed(cfg Config, proc *Proc) *Graph { return core.NewDistributed(cfg, proc) }
