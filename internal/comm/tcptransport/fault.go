package tcptransport

import (
	"errors"
	"sync"
	"time"
)

// Socket-level fault injection. Unlike the in-process fault plan (which
// perturbs individual messages), these faults attack the connection
// lifecycle itself: established connections are killed, frames are written
// torn (length prefix promises more bytes than arrive), whole peers are
// black-holed for a partition window, and reads are slowed or fragmented.
// Everything is driven by a seeded splitmix64 stream, so a failing chaos
// run replays from its seed.

// Errors attached to injected PeerDown events, so tests and logs can tell
// injected faults from organic ones.
var (
	errInjectedConnKill  = errors.New("tcptransport: injected connection kill")
	errInjectedTornWrite = errors.New("tcptransport: injected torn write")
	errInjectedPartition = errors.New("tcptransport: injected partition")
)

// FaultConfig parameterizes the injector. Probabilities are per opportunity
// (per frame write for ConnKillProb/TornWriteProb/PartitionProb, per read
// call for SlowReadProb) and range [0,1].
type FaultConfig struct {
	// Seed drives the fault stream; the same seed replays the same faults
	// relative to the same sequence of opportunities.
	Seed uint64

	// ConnKillProb closes the established connection instead of writing the
	// frame (the frame drops in the cut; the writer reconnects with
	// backoff).
	ConnKillProb float64
	// TornWriteProb writes the length prefix and only half the frame, then
	// kills the connection — the receiver sees a short read mid-frame.
	TornWriteProb float64

	// PartitionProb starts a partition episode toward the destination peer:
	// for PartitionFor, every frame toward it is dropped, any established
	// connection is torn down and none is dialed, simulating a one-way
	// network partition.
	PartitionProb float64
	// PartitionFor is the partition episode length. Default 20ms. Keep it
	// shorter than the failure detector's SuspectAfter when the test expects
	// reconnection rather than a declared death.
	PartitionFor time.Duration

	// SlowReadProb delays an inbound read by a seeded duration in
	// (0, SlowReadMax] and truncates it to at most 3 bytes, exercising the
	// receiver's handling of fragmented frames. A poller's read is truncated
	// but not delayed: Poll never parks. Default SlowReadMax 1ms.
	SlowReadProb float64
	SlowReadMax  time.Duration
}

// writeFault outcomes.
type faultKind int

const (
	faultNone faultKind = iota
	faultConnKill
	faultTornWrite
)

// rng is a splitmix64 stream: tiny, seedable, and good enough for fault
// scheduling and backoff jitter.
type rng struct {
	mu sync.Mutex
	s  uint64
}

func newRng(seed uint64) *rng {
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.mu.Lock()
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// n returns a value in [0, max); 0 when max is 0.
func (r *rng) n(max uint64) uint64 {
	if max == 0 {
		return 0
	}
	return r.next() % max
}

// roll returns true with probability p.
func (r *rng) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.next()>>11)/float64(1<<53) < p
}

// injector holds the fault state shared by a transport's connections.
type injector struct {
	cfg FaultConfig
	rng *rng

	mu         sync.Mutex
	partitions map[int]time.Time // peer -> partition episode end
}

func newInjector(cfg FaultConfig) *injector {
	if cfg.PartitionFor <= 0 {
		cfg.PartitionFor = 20 * time.Millisecond
	}
	if cfg.SlowReadMax <= 0 {
		cfg.SlowReadMax = time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &injector{
		cfg:        cfg,
		rng:        newRng(seed),
		partitions: map[int]time.Time{},
	}
}

// partitioned reports whether a partition episode toward peer is active,
// rolling to start a new one when none is.
func (inj *injector) partitioned(peer int) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if until, ok := inj.partitions[peer]; ok {
		if time.Now().Before(until) {
			return true
		}
		delete(inj.partitions, peer)
	}
	if inj.rng.roll(inj.cfg.PartitionProb) {
		inj.partitions[peer] = time.Now().Add(inj.cfg.PartitionFor)
		return true
	}
	return false
}

// partitionEnd returns when the partition episode toward peer ends: the
// zero time when none is active. It rolls nothing.
func (inj *injector) partitionEnd(peer int) time.Time {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.partitions[peer]
}

// writeFault rolls the per-frame write faults.
func (inj *injector) writeFault() faultKind {
	if inj.rng.roll(inj.cfg.ConnKillProb) {
		return faultConnKill
	}
	if inj.rng.roll(inj.cfg.TornWriteProb) {
		return faultTornWrite
	}
	return faultNone
}

// slowRead rolls the slow-read fault for one inbound read: when it fires,
// the read is delayed by the returned duration and shortened to 3 bytes.
func (inj *injector) slowRead() (time.Duration, bool) {
	if !inj.rng.roll(inj.cfg.SlowReadProb) {
		return 0, false
	}
	return time.Duration(1 + inj.rng.n(uint64(inj.cfg.SlowReadMax))), true
}
