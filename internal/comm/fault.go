package comm

import "time"

// FaultPlan describes randomized faults injected into every cross-rank
// transmission (application payloads, wave control, and acks alike).
// Probabilities are independent per transmission; retransmissions roll
// again. Self-sends (src == dst) are never faulted.
type FaultPlan struct {
	Seed     uint64        // RNG seed; 0 is replaced with 1
	Drop     float64       // probability a transmission is lost
	Dup      float64       // probability a transmission is delivered twice
	Reorder  float64       // probability a transmission is held back briefly, letting later sends pass it
	Delay    float64       // probability of an additional random delay of up to MaxDelay
	MaxDelay time.Duration // bound for Delay faults (default 1ms)
}

// SetFaultPlan installs a fault plan on the wire and engages the reliable
// link layer (sequence numbers, cumulative acks, retransmission) on every
// rank. Must be called after NewWorld and before any Proc is started.
func (w *World) SetFaultPlan(fp FaultPlan) {
	w.beforeStart("SetFaultPlan")
	if w.net != nil {
		panic("comm: SetFaultPlan applies to in-process worlds; inject socket faults in the transport instead")
	}
	if fp.Seed == 0 {
		fp.Seed = 1
	}
	if fp.MaxDelay <= 0 {
		fp.MaxDelay = time.Millisecond
	}
	w.fp = &fp
	w.rngState = fp.Seed
	w.reliable = true
}

// SetDropFilter installs a deterministic drop predicate consulted for every
// transmission (including retransmissions and acks); returning true drops
// that transmission. It engages the reliable link layer, making it the tool
// for scripted-loss tests ("drop the first tagTerminate on link 0→1").
// Composable with a FaultPlan. Must be called before any Proc is started.
func (w *World) SetDropFilter(f func(src, dst, tag int) bool) {
	w.beforeStart("SetDropFilter")
	if w.net != nil {
		panic("comm: SetDropFilter applies to in-process worlds; inject socket faults in the transport instead")
	}
	w.dropF = f
	w.reliable = true
}

// SetRetransmitTimeout adjusts the link layer's retransmission timeout
// (default 2ms; the retransmit ticker runs at half of it). Must be called
// before any Proc is started.
func (w *World) SetRetransmitTimeout(d time.Duration) {
	w.beforeStart("SetRetransmitTimeout")
	if d <= 0 {
		panic("comm: retransmit timeout must be positive")
	}
	w.rto = d
}

// SetStallHandler installs a watchdog: when a rank with the link layer
// active sees no inbound traffic for `after` while still holding undelivered
// or unacked messages, f fires once (per stall episode) with that rank's
// PendingSummary — surfacing a diagnostic instead of hanging silently.
// Must be called before any Proc is started.
func (w *World) SetStallHandler(after time.Duration, f func(rank int, summary string)) {
	w.beforeStart("SetStallHandler")
	w.stallAfter = after
	w.onStall = f
}

// wireDead reports whether a transmission between src and dst touches a
// fail-stopped rank. Its wire is silent in both directions: nothing it sends
// gets out (including in-flight retransmissions racing the kill) and nothing
// addressed to it gets in.
func (w *World) wireDead(src, dst int) bool {
	return w.deadWire != nil && (w.deadWire[src].Load() || w.deadWire[dst].Load())
}

// rng is a locked splitmix64 shared by all links so fault decisions are a
// deterministic function of the seed and the global transmission order.
func (w *World) rng() uint64 {
	w.rngMu.Lock()
	w.rngState += 0x9e3779b97f4a7c15
	z := w.rngState
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	w.rngMu.Unlock()
	return z
}

// roll returns a uniform float64 in [0, 1).
func (w *World) roll() float64 { return float64(w.rng()>>11) / (1 << 53) }

// transmit is the wire: it applies the drop filter and fault plan to one
// transmission and (maybe, maybe twice, maybe late) delivers it into the
// destination mailbox. Called for originals, retransmissions, and acks.
// After Shutdown the wire is down: every transmission is discarded, so no
// delivery — immediate or delayed — can land in a stopped rank's mailbox.
func (w *World) transmit(dst int, m message) {
	if w.closed.Load() {
		return
	}
	if w.net != nil {
		w.netTransmit(dst, m)
		return
	}
	if w.wireDead(m.src, dst) {
		return
	}
	if w.dropF != nil && w.dropF(m.src, dst, m.tag) {
		if mx := w.mx; mx != nil {
			mx.faultDrop.Inc(m.src)
		}
		return
	}
	fp := w.fp
	box := w.procs[dst].mbox
	if fp == nil {
		box.push(m)
		return
	}
	if fp.Drop > 0 && w.roll() < fp.Drop {
		if mx := w.mx; mx != nil {
			mx.faultDrop.Inc(m.src)
		}
		return
	}
	if fp.Dup > 0 && w.roll() < fp.Dup {
		if mx := w.mx; mx != nil {
			mx.faultDup.Inc(m.src)
		}
		box.push(m)
	}
	var delay time.Duration
	if fp.Reorder > 0 && w.roll() < fp.Reorder {
		// Hold the message back just long enough for later sends to pass.
		delay += time.Duration(50+w.rng()%450) * time.Microsecond
		if mx := w.mx; mx != nil {
			mx.faultReorder.Inc(m.src)
		}
	}
	if fp.Delay > 0 && w.roll() < fp.Delay {
		delay += time.Duration(w.rng() % uint64(fp.MaxDelay))
		if mx := w.mx; mx != nil {
			mx.faultDelay.Inc(m.src)
		}
	}
	if delay > 0 {
		w.deliverLater(dst, m, delay)
		return
	}
	box.push(m)
}

// deliverLater arms a tracked timer that pushes m into dst's mailbox after
// delay. Tracking lets Shutdown stop pending timers; the callback additionally
// re-checks closed (Stop may lose the race with an already-firing timer) and
// deregisters itself so the timer set stays bounded by in-flight deliveries.
func (w *World) deliverLater(dst int, m message, delay time.Duration) {
	w.timerMu.Lock()
	if w.closed.Load() {
		w.timerMu.Unlock()
		return
	}
	if w.timers == nil {
		w.timers = map[*time.Timer]struct{}{}
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		w.timerMu.Lock()
		delete(w.timers, t)
		w.timerMu.Unlock()
		if w.closed.Load() || w.wireDead(m.src, dst) {
			return // an endpoint was killed while this delivery was in flight
		}
		w.procs[dst].mbox.push(m)
	})
	w.timers[t] = struct{}{}
	w.timerMu.Unlock()
}
