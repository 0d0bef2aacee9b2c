package comm

import (
	"encoding/binary"
	"sync"
	"time"
)

// FaultPlan describes randomized faults injected into every frame a rank
// sends (application payloads, wave control, and acks alike). Probabilities
// are independent per frame; retransmissions roll again. Self-sends never
// reach the wire and are never faulted.
type FaultPlan struct {
	Seed     uint64        // RNG seed; 0 is replaced with 1
	Drop     float64       // probability a transmission is lost
	Dup      float64       // probability a transmission is delivered twice
	Reorder  float64       // probability a transmission is held back briefly, letting later sends pass it
	Delay    float64       // probability of an additional random delay of up to MaxDelay
	MaxDelay time.Duration // bound for Delay faults (default 1ms)
}

// SetFaultPlan installs a fault plan on the transport of every local rank
// (see faultWire), over memory and TCP alike. Must be called after NewWorld
// or NewNetWorld and before any Proc is started.
func (w *World) SetFaultPlan(fp FaultPlan) {
	w.beforeStart("SetFaultPlan")
	if fp.Seed == 0 {
		fp.Seed = 1
	}
	if fp.MaxDelay <= 0 {
		fp.MaxDelay = time.Millisecond
	}
	for _, p := range w.local {
		f := p.faults()
		f.plan = fp
		f.rng = fp.Seed + uint64(p.rank)*0x9e3779b97f4a7c15
	}
}

// SetDropFilter installs a deterministic drop predicate consulted for every
// frame a local rank sends (including retransmissions and acks); returning
// true drops that frame. It is the tool for scripted-loss tests ("drop the
// first tagTerminate on link 0→1"). Composable with a FaultPlan. Must be
// called before any Proc is started.
func (w *World) SetDropFilter(f func(src, dst, tag int) bool) {
	w.beforeStart("SetDropFilter")
	for _, p := range w.local {
		p.faults().drop = f
	}
}

// faults returns the fault decorator over p's transport, wrapping the
// transport in one on first use.
func (p *Proc) faults() *faultWire {
	f, ok := p.tr.(*faultWire)
	if !ok {
		f = &faultWire{Transport: p.tr, w: p.world}
		p.tr = f
	}
	return f
}

// faultWire is the Transport decorator behind SetFaultPlan and
// SetDropFilter. Every frame its rank sends first passes the drop filter,
// then rolls the plan's drop, duplicate, reorder and delay faults from a
// splitmix64 stream seeded by the plan and the rank, so a run's faults are a
// function of the seed and each rank's send order. Source and tag are read
// from the frame header. A held-back frame waits in a tracked timer that
// Close stops, so no delivery outlives the world.
type faultWire struct {
	Transport
	w    *World // for the fault counters
	plan FaultPlan
	drop func(src, dst, tag int) bool

	mu     sync.Mutex
	rng    uint64
	timers map[*time.Timer]struct{}
	closed bool
}

// Send rolls the faults for one frame and passes on what survives.
func (f *faultWire) Send(dst int, frame []byte) error {
	src := int(int32(binary.LittleEndian.Uint32(frame[0:])))
	tag := int(int32(binary.LittleEndian.Uint32(frame[4:])))
	mx, fp := f.w.mx, &f.plan
	if f.drop != nil && f.drop(src, dst, tag) || f.roll(fp.Drop) {
		if mx != nil {
			mx.faultDrop.Inc(src)
		}
		return nil
	}
	if f.roll(fp.Dup) {
		if mx != nil {
			mx.faultDup.Inc(src)
		}
		f.Transport.Send(dst, append([]byte(nil), frame...))
	}
	var delay time.Duration
	if f.roll(fp.Reorder) {
		// Hold the frame back just long enough for later sends to pass.
		delay += time.Duration(50+f.rand()%450) * time.Microsecond
		if mx != nil {
			mx.faultReorder.Inc(src)
		}
	}
	if f.roll(fp.Delay) {
		delay += time.Duration(f.rand() % uint64(fp.MaxDelay))
		if mx != nil {
			mx.faultDelay.Inc(src)
		}
	}
	if delay > 0 {
		f.later(dst, frame, delay)
		return nil
	}
	return f.Transport.Send(dst, frame)
}

// rand steps the decorator's splitmix64 stream.
func (f *faultWire) rand() uint64 {
	f.mu.Lock()
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	f.mu.Unlock()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// roll reports true with probability p, drawing from the stream only when
// p > 0 (a plan without a fault kind leaves the stream alone).
func (f *faultWire) roll(p float64) bool {
	return p > 0 && float64(f.rand()>>11)/(1<<53) < p
}

// later hands frame to the wrapped transport after d, unless Close comes
// first. The callback deregisters its timer, so the set stays bounded by the
// frames in flight; one that finds itself gone lost the race with Close and
// sends nothing.
func (f *faultWire) later(dst int, frame []byte, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if f.timers == nil {
		f.timers = map[*time.Timer]struct{}{}
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		f.mu.Lock()
		_, live := f.timers[t]
		delete(f.timers, t)
		f.mu.Unlock()
		if live {
			f.Transport.Send(dst, frame)
		}
	})
	f.timers[t] = struct{}{}
}

// Close stops every pending delayed frame, then closes the wrapped transport.
func (f *faultWire) Close() error {
	f.mu.Lock()
	f.closed = true
	for t := range f.timers {
		t.Stop()
	}
	f.timers = nil
	f.mu.Unlock()
	return f.Transport.Close()
}

// MarkDead reaches the wrapped transport's PeerMarker, if it has one.
func (f *faultWire) MarkDead(peer int) {
	if pm, ok := f.Transport.(PeerMarker); ok {
		pm.MarkDead(peer)
	}
}

// Reconnects reaches the wrapped transport's TransportStats, if it has one.
func (f *faultWire) Reconnects() int64 {
	if s, ok := f.Transport.(TransportStats); ok {
		return s.Reconnects()
	}
	return 0
}
