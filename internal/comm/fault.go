package comm

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"
)

// FaultPlan describes randomized faults injected into the frames a rank
// sends (application payloads, wave control, and acks alike), within the
// Transport contract: a dropped frame cuts its link, and a delayed frame
// keeps its link's order. Probabilities are independent per frame, and
// resent frames roll again. Self-sends never reach the wire and are never
// faulted.
type FaultPlan struct {
	Seed     uint64        // RNG seed; 0 is replaced with 1
	Drop     float64       // probability a transmission is lost, cutting its link for a short, seeded while
	Delay    float64       // probability of an additional random delay of up to MaxDelay
	MaxDelay time.Duration // bound for Delay faults (default 1ms)
}

// errFaultCut is the error on the PeerDown that reports a simulated cut.
var errFaultCut = errors.New("comm: fault plan cut the link")

// Cut windows: a cut lasts a seeded while in [cutMin, cutMin+cutSpread),
// far below any heartbeat suspicion timeout, so a cut never looks like a
// dead rank.
const (
	cutMin    = 200 * time.Microsecond
	cutSpread = 800 * time.Microsecond
)

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
// frame a local rank sends (including resent frames and acks); returning
// true drops that frame and cuts its link, like a FaultPlan drop. It is the
// tool for scripted-loss tests ("drop the first tagTerminate on link
// 0→1"). Composable with a FaultPlan. Must be called before any Proc is
// started.
func (w *World) SetDropFilter(f func(src, dst, tag int) bool) {
	w.beforeStart("SetDropFilter")
	for _, p := range w.local {
		p.faults().drop = f
	}
}

// faults returns the fault decorator over p's transport, wrapping the
// transport in one on first use. Its simulated cuts report to the rank's
// event callback, as the transport's own do.
func (p *Proc) faults() *faultWire {
	if p.fw == nil {
		p.fw = &faultWire{Transport: p.tr, w: p.world, events: p.peerEvent}
		p.tr = p.fw
	}
	return p.fw
}

// faultWire is the Transport decorator behind SetFaultPlan and
// SetDropFilter. Every frame its rank sends first passes the drop filter,
// then rolls the plan's drop and delay faults from a splitmix64 stream
// seeded by the plan and the rank, so a run's faults are a function of the
// seed and each rank's send order. Source and tag are read from the frame
// header.
//
// A drop cuts the link toward the frame's destination: that frame and every
// later one is dropped until, a short seeded while later, the link's timer
// reports the simulated cut as PeerDown and then PeerUp, after which the
// link layer resends. A delayed frame waits in the held queue, and so does
// every later frame until the queue has drained, so release times stay
// monotone and every link keeps its order. Frames pass to the wrapped
// transport under mu, so no two releases overtake each other. Close stops
// the timers, so no delivery outlives the world.
type faultWire struct {
	Transport
	w      *World // for the fault counters
	events func(PeerEvent)
	plan   FaultPlan
	drop   func(src, dst, tag int) bool

	mu     sync.Mutex
	rng    uint64
	cuts   map[int]*time.Timer // the links cut, each until its timer ends the cut
	held   []heldFrame         // delayed frames, and the frames behind them, in send order
	timer  *time.Timer         // releases held frames
	closed bool
}

type heldFrame struct {
	dst   int
	frame []byte
	at    time.Time
}

// Send rolls the faults for one frame and passes on what survives.
func (f *faultWire) Send(dst int, frame []byte) error {
	src := int(int32(binary.LittleEndian.Uint32(frame[0:])))
	tag := int(int32(binary.LittleEndian.Uint32(frame[4:])))
	mx, fp := f.w.mx, &f.plan
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if f.cuts[dst] != nil || f.drop != nil && f.drop(src, dst, tag) || f.roll(fp.Drop) {
		if mx != nil {
			mx.faultDrop.Inc(src)
		}
		if f.cuts[dst] == nil {
			f.cut(dst)
		}
		return errFaultCut
	}
	now := time.Now()
	at := now
	if f.roll(fp.Delay) {
		at = now.Add(time.Duration(f.rand() % uint64(fp.MaxDelay)))
		if mx != nil {
			mx.faultDelay.Inc(src)
		}
	}
	if n := len(f.held); n > 0 && at.Before(f.held[n-1].at) {
		at = f.held[n-1].at // behind the last held frame: links keep their order
	}
	if len(f.held) == 0 && !at.After(now) {
		return f.Transport.Send(dst, frame)
	}
	f.held = append(f.held, heldFrame{dst, frame, at})
	if len(f.held) == 1 {
		f.release()
	}
	return nil
}

// cut starts a cut of the link toward dst, which its timer ends a seeded
// while from now: it reports PeerDown and then PeerUp, outside mu, once
// frames pass again, so every frame the cut dropped was dropped before the
// report. Under mu.
func (f *faultWire) cut(dst int) {
	if f.cuts == nil {
		f.cuts = map[int]*time.Timer{}
	}
	f.cuts[dst] = time.AfterFunc(cutMin+time.Duration(f.rand()%uint64(cutSpread)), func() {
		f.mu.Lock()
		closed := f.closed
		delete(f.cuts, dst)
		f.mu.Unlock()
		if !closed && f.events != nil {
			f.events(PeerEvent{Peer: dst, Kind: PeerDown, Err: errFaultCut})
			f.events(PeerEvent{Peer: dst, Kind: PeerUp})
		}
	})
}

// release hands the held frames whose time has come to the wrapped
// transport, in order, and sets the timer for the next one. Under mu.
func (f *faultWire) release() {
	now := time.Now()
	k := 0
	for ; k < len(f.held) && !f.held[k].at.After(now); k++ {
		f.Transport.Send(f.held[k].dst, f.held[k].frame)
	}
	n := copy(f.held, f.held[k:])
	clear(f.held[n:])
	f.held = f.held[:n]
	if n == 0 {
		return
	}
	if f.timer == nil {
		f.timer = time.AfterFunc(time.Hour, func() {
			f.mu.Lock()
			if !f.closed {
				f.release()
			}
			f.mu.Unlock()
		})
	}
	f.timer.Reset(f.held[0].at.Sub(now))
}

// rand steps the decorator's splitmix64 stream. Under mu.
func (f *faultWire) rand() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// roll reports true with probability p, drawing from the stream only when
// p > 0 (a plan without a fault kind leaves the stream alone). Under mu.
func (f *faultWire) roll(p float64) bool {
	return p > 0 && float64(f.rand()>>11)/(1<<53) < p
}

// Close stops the timers of the held frames and of the cuts, then closes
// the wrapped transport.
func (f *faultWire) Close() error {
	f.mu.Lock()
	f.closed = true
	if f.timer != nil {
		f.timer.Stop()
	}
	for _, t := range f.cuts {
		t.Stop()
	}
	f.held = nil
	f.mu.Unlock()
	return f.Transport.Close()
}
