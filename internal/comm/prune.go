package comm

// Replay-log pruning: a rank that is locally quiescent with an empty
// retransmit queue tells each sender how many of its application messages
// it has dispatched (tagPrune), so the sender can drop that prefix of its
// replay log.

// pruneState counts, per source, the application messages released to
// dispatch and the count last advertised back. Both are nil while prune
// notices are off; rx-private.
type pruneState struct {
	dispatched []int64
	notified   []int64
}

// EnablePruneNotices makes this rank advertise, at each local quiescence with
// an empty retransmit queue, how many application messages it has dispatched
// per sender (tagPrune). Must be called before Start.
func (p *Proc) EnablePruneNotices() {
	n := len(p.world.procs)
	p.prune = pruneState{dispatched: make([]int64, n), notified: make([]int64, n)}
}

// SetOnPrune installs a hook invoked under the rank's receive lock when a peer
// advertises how many of our application sends it has dispatched, making the
// corresponding replay-log prefix prunable. Must be called before Start.
func (p *Proc) SetOnPrune(f func(src int, n int64)) { p.onPrune = f }

// maybePrune advertises per-sender dispatch counts when this rank is locally
// quiescent with an empty retransmit queue. At that instant every message it
// dispatched has been fully consumed by local task execution (no partially
// satisfied tasks exist at quiescence) and every resulting send has been
// acked, so the sender's replay-log prefix can never be needed again.
func (p *Proc) maybePrune() {
	pr := &p.prune
	if pr.dispatched == nil || p.hasUnacked() {
		return
	}
	for src, n := range pr.dispatched {
		if src == p.rank || p.mem.dead != nil && p.mem.dead[src] {
			continue
		}
		if n > pr.notified[src] {
			pr.notified[src] = n
			p.emit(src, tagPrune, n, 0, 0, nil)
		}
	}
}

func (p *Proc) handlePrune(m message) {
	if p.onPrune != nil {
		p.onPrune(m.src, m.a)
	}
}
