package core

import "strconv"

// EventHook receives graph lifecycle events for the telemetry plane's flight
// recorder and cluster event log:
//
//	"rank_dead"  a peer rank's failure was confirmed (rank = the dead rank,
//	             detail = "epoch N"); fires on fault-tolerant graphs only
//	"killed"     this rank was fail-stopped by World.KillRank
//	"abort"      the graph aborted (detail = the abort reason)
//	"steal"      an inter-rank steal completed (rank = the victim)
//
// Hooks run on runtime goroutines, or under the rank's receive lock on the
// goroutine that delivered the frame, and must not block.
type EventHook func(kind string, rank int, detail string)

// SetEventHook installs (or, with nil, removes) the lifecycle event hook.
// Safe at any time, including mid-run.
func (g *Graph) SetEventHook(h EventHook) {
	if h == nil {
		g.eventH.Store(nil)
		return
	}
	g.eventH.Store(&h)
}

// event emits one lifecycle event; one atomic load when no hook is set.
func (g *Graph) event(kind string, rank int, detail string) {
	if p := g.eventH.Load(); p != nil {
		(*p)(kind, rank, detail)
	}
}

// epochDetail renders a membership epoch for event details.
func epochDetail(epoch int) string { return "epoch " + strconv.Itoa(epoch) }
