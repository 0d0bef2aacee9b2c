// Package xsync provides low-level synchronization building blocks shared by
// the runtime: cache-line padding, spinlocks built on an atomic flag,
// exponential backoff, and padded per-thread counter cells.
//
// These primitives mirror the ones the paper's PaRSEC implementation relies
// on (C11 atomic_flag locks, cache-line-aligned counters). Go's sync/atomic
// operations are sequentially consistent; the paper's relaxed/acquire-release
// distinction therefore cannot be expressed. The *number* and *placement* of
// hand-placed atomic read-modify-write operations — the quantity the paper
// minimizes, and what Config.CountAtomics counts — is reproduced, but stores
// are not: on amd64 every sync/atomic Store is an XCHG, a full fence that
// costs what an RMW costs, where the paper's release under TSO is a plain
// MOV. CountAtomics does not count these stores; DESIGN.md §9 lists the
// ones left on a task's path.
package xsync

import (
	"runtime"
	"sync/atomic"
)

// CacheLineSize is the assumed size of a CPU cache line in bytes. Both the
// AMD EPYC Rome and IBM Power9 systems in the paper use 64-byte (128-byte on
// Power9 L3) lines; 64 is the safe padding unit on amd64/arm64.
const CacheLineSize = 64

// Pad is explicit cache-line padding to place between fields that must not
// share a line (false sharing avoidance).
type Pad [CacheLineSize]byte

// spinsBeforeYield is how many busy iterations a waiter performs before
// yielding the processor to the Go scheduler.
const spinsBeforeYield = 64

// Backoff implements bounded exponential backoff for spin loops. The zero
// value is ready to use.
type Backoff struct {
	n int
}

// Spin performs one backoff step: a short busy wait that doubles each call,
// falling back to a scheduler yield once the budget is exceeded. Yielding is
// essential on machines with fewer cores than spinning goroutines (a pinned
// busy loop would otherwise starve the lock holder).
func (b *Backoff) Spin() {
	if b.n < spinsBeforeYield {
		for i := 0; i < 1<<uint(b.n%7); i++ {
			spinHint()
		}
		b.n++
		return
	}
	runtime.Gosched()
}

// Reset clears the backoff state after a successful acquisition.
func (b *Backoff) Reset() { b.n = 0 }

// spinHint burns a few cycles. Go offers no direct PAUSE instruction; an
// empty atomic load is a cheap, non-optimizable stand-in.
//
//go:nosplit
func spinHint() {
	_ = dummy.Load()
}

var dummy atomic.Uint32

// SpinLock is a test-and-test-and-set spinlock equivalent to a C11
// atomic_flag lock. It is the bucket lock of the scalable hash table and the
// guard of the LFQ scheduler's bounded buffers.
//
// Lock performs exactly one successful atomic RMW. Unlock is an atomic
// store, which on amd64 compiles to XCHG and costs an RMW: the paper's
// "release is a regular store under TSO" does not carry over, and
// CountAtomics does not count the store.
type SpinLock struct {
	f atomic.Uint32
}

// Lock acquires the spinlock, spinning with backoff until available.
func (l *SpinLock) Lock() {
	if l.f.CompareAndSwap(0, 1) {
		return
	}
	var b Backoff
	for {
		for l.f.Load() != 0 {
			b.Spin()
		}
		if l.f.CompareAndSwap(0, 1) {
			return
		}
	}
}

// TryLock attempts to acquire the lock without blocking and reports whether
// it succeeded.
func (l *SpinLock) TryLock() bool {
	return l.f.Load() == 0 && l.f.CompareAndSwap(0, 1)
}

// Unlock releases the spinlock.
func (l *SpinLock) Unlock() {
	l.f.Store(0)
}

// Locked reports whether the lock is currently held (diagnostic only).
func (l *SpinLock) Locked() bool { return l.f.Load() != 0 }

// PaddedInt64 is an atomic int64 occupying its own cache line, used for
// per-thread counters that must never exhibit false sharing (Fig. 1's
// "thread-local" series).
type PaddedInt64 struct {
	V atomic.Int64
	_ [CacheLineSize - 8]byte
}

// PaddedUint32 is an atomic uint32 occupying its own cache line. BRAVO
// reader slots are built from these.
type PaddedUint32 struct {
	V atomic.Uint32
	_ [CacheLineSize - 4]byte
}

// Cell is a cache-line-padded plain (non-atomic) counter cell owned by
// exactly one thread. The optimized termination-detection scheme (paper
// §IV-B) accumulates task deltas in such cells without atomic operations and
// flushes them to process-wide atomics only when the owner falls idle.
type Cell struct {
	// Delta is discovered-minus-executed accumulated by the owning worker.
	// Only the owner may read or write it.
	Delta int64
	_     [CacheLineSize - 8]byte
}
