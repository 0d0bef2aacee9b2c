package comm

import "sync/atomic"

// The termination wave of paper §III-A: when the root (the lowest live rank)
// is locally quiescent it probes every live rank, each answers with its
// sent/received counters once it is quiescent too, and two consecutive
// identical reductions with sent == received end the run with a terminate
// broadcast. Probes and replies carry a stamp (epoch<<32 | round) so a wave
// restarted by a membership change discards contributions to the old one.

// waveState is the wave's rx-private state (rounds excepted).
type waveState struct {
	// Non-root: owedStamp is the round stamp of the latest probe that caught
	// this rank busy; 0 = none. The stamp is echoed in the reply.
	owedStamp int64

	// Root.
	inRound      bool
	round        int
	replies      int
	sumS, sumR   int64
	prevS, prevR int64
	havePrev     bool
	rounds       atomic.Int64 // statistic (atomic so gauges can poll live)
}

// Rounds reports how many reduction rounds the root performed (rank 0 only).
// Safe from any goroutine.
func (p *Proc) Rounds() int { return int(p.wave.rounds.Load()) }

// stampEpoch extracts the membership epoch from a wave stamp.
func stampEpoch(stamp int64) int64 { return stamp >> 32 }

// stamp is the current round's stamp.
func (p *Proc) stamp() int64 { return p.mem.epoch.Load()<<32 | int64(uint32(p.wave.round)) }

// root returns the current wave coordinator: the lowest-ranked live process.
// With no failure detection this is always rank 0.
func (p *Proc) root() int {
	for r, dead := range p.mem.dead {
		if !dead {
			return r
		}
	}
	return 0
}

// liveCount returns how many ranks this process believes are alive: the
// epoch counts the deaths it has applied.
func (p *Proc) liveCount() int { return len(p.world.procs) - int(p.mem.epoch.Load()) }

// localCounts returns this rank's wave contribution, excluding traffic
// exchanged with confirmed-dead peers (whose own counters are lost forever).
func (p *Proc) localCounts() (s, r int64) { return p.det.CountsExcluding(p.mem.dead) }

func (p *Proc) handleProbe(m message) {
	if stampEpoch(m.ep) != p.mem.epoch.Load() {
		return // probe from an abandoned membership epoch
	}
	if p.det.Quiescent() {
		s, r := p.localCounts()
		p.emit(m.src, tagReply, s, r, m.ep, nil)
	} else {
		p.wave.owedStamp = m.ep // latest probe wins; reply echoes its stamp
	}
}

// handleTerminate ends the run on this rank. Its workers stop polling, so
// it pays the acks it owes — the terminate frame's own included — which the
// peers' Drain waits for.
func (p *Proc) handleTerminate(message) {
	if !p.terminated {
		p.terminated = true
		p.payAcks(true)
		if p.onTerminate != nil {
			p.onTerminate()
		}
	}
}

// handleQuiescent runs, under rx, for a quiescence notification the local
// detector (or a fence) owed the rank (unlockRx).
//
// A batch still buffered here needs no flush: its link has unacked
// messages whose ack ships it (batch.go, "Flush rule"), and until then the
// activations it holds keep the wave unbalanced.
func (p *Proc) handleQuiescent() {
	if p.terminated || !p.det.Quiescent() {
		return // done, or stale: work arrived meanwhile
	}
	if p.halted.Load() {
		// A fail-stopped rank is cut off from the wave: its first quiescence
		// after the fence is its local termination.
		p.handleTerminate(message{})
		return
	}
	if stamp := p.wave.owedStamp; stamp != 0 {
		p.wave.owedStamp = 0
		if stampEpoch(stamp) == p.mem.epoch.Load() {
			s, r := p.localCounts()
			p.emit(p.root(), tagReply, s, r, stamp, nil)
		}
		// An owed reply from a pre-death epoch is discarded: the restarted
		// wave will re-probe, and a stale contribution must not be counted
		// against the new round.
	}
	if p.rank == p.root() && !p.wave.inRound {
		p.startRound()
	}
	p.maybePrune()
}

// waveBroadcast sends a root message to itself and to every live rank.
func (p *Proc) waveBroadcast(tag int, stamp int64) {
	p.emit(p.rank, tag, 0, 0, stamp, nil)
	p.broadcast(p.mem.dead, -1, tag, 0, 0, stamp, nil)
}

func (p *Proc) startRound() {
	p.wave.inRound = true
	p.wave.round++
	p.wave.rounds.Add(1)
	p.wave.replies = 0
	p.wave.sumS, p.wave.sumR = 0, 0
	p.waveBroadcast(tagProbe, p.stamp())
}

func (p *Proc) handleReply(m message) {
	wv := &p.wave
	if m.ep != p.stamp() || !wv.inRound {
		return // contribution to an abandoned round (e.g. pre-restart)
	}
	wv.replies++
	wv.sumS += m.a
	wv.sumR += m.b
	if wv.replies < p.liveCount() {
		return
	}
	// Reduction complete: terminate after two consecutive identical
	// reductions with sent == received (the 4-counter wave condition).
	stable := wv.havePrev && wv.sumS == wv.sumR && wv.sumS == wv.prevS && wv.sumR == wv.prevR
	wv.prevS, wv.prevR = wv.sumS, wv.sumR
	wv.havePrev = true
	wv.inRound = false
	if stable {
		p.waveBroadcast(tagTerminate, 0)
		return
	}
	// Not stable yet: immediately try another round if still quiescent,
	// otherwise wait for the next quiescence notification.
	if p.det.Quiescent() {
		p.startRound()
	}
}

// restartWave abandons any in-flight round after a membership change (its
// stamped replies will be discarded); counters contributed by the dead rank
// are forgotten via CountsExcluding.
func (p *Proc) restartWave() {
	p.wave.inRound = false
	p.wave.havePrev = false
	p.wave.owedStamp = 0
	if p.rank == p.root() {
		p.world.waveRestarts.Add(1)
	}
}
