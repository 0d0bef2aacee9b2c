// Package hashtable implements PaRSEC's scalable, thread-safe hash table
// (paper §III-C, Fig. 3), the structure that tracks discovered-but-not-yet-
// eligible tasks per template task.
//
// Design:
//
//   - One array of cache-line-sized buckets, each with its own spinlock.
//     Lookups, inserts and removals lock the key's bucket and walk its chain.
//
//   - Threads performing bucket operations take a table-wide *reader* lock;
//     a thread resizing takes the *writer* lock. The reader lock is pluggable:
//     the baseline AtomicRW reproduces the contended behaviour of §III-C2,
//     and the BRAVO wrapper the optimized zero-RMW fast path of §IV-D.
//
//   - The table is sized by collision rate, not by bucket fill: each reader
//     slot counts, in its own padded cell, how many of its inserts land in an
//     already-occupied bucket. When more than 1/8 of a slot's last 64 inserts
//     collided, the slot asks for a grow. The grow doubles the array and
//     rehashes every resident into it under the writer lock, which excludes
//     every bucket holder, so there is never more than one array. A grow is
//     refused while residents × 8 ≤ buckets (the collisions then come from
//     hash clustering, not load), which bounds the table at 16 buckets per
//     peak resident; a refused slot doubles its sample window.
//
//     PaRSEC instead chains the old arrays and migrates entries lazily on
//     find, to avoid a stop-the-world over huge tables. Here the residents
//     are few and short-lived, the writer lock already stops the world, and
//     rehashing them is amortized O(1) per insert; lazy migration would make
//     every miss lock a bucket in each drained old array.
//
//   - Every chain field (bucket head, entry key and link) and every slot
//     counter is a plain field, read and written only under its bucket lock,
//     its slot's reader lock, or the writer lock that excludes them all. The
//     locks order them; a chain mutation costs no fenced store of its own.
//
// Keys are uint64 (already-hashed task IDs); values are arbitrary pointers
// boxed in `any`.
package hashtable

import (
	"sync/atomic"

	"gottg/internal/rwlock"
	"gottg/internal/xsync"
)

const (
	// sampleWindow is how many inserts a slot counts before judging the
	// collision rate.
	sampleWindow = 64
	// loadShift sets both the collision target (more than 1/8 of a window's
	// inserts collided) and the memory bound (a grow is refused while
	// residents<<loadShift <= buckets, so buckets stay below 16 per resident).
	loadShift = 3
)

// Entry is a chained hash-table node. Entries are exposed so callers can
// embed per-task state next to the key and Val without a second allocation.
// All fields are plain: while the entry is resident, its bucket lock guards
// them; before insertion and after removal, its owner does.
type Entry struct {
	key  uint64
	Val  any
	next *Entry
}

// Key returns the entry's key.
func (e *Entry) Key() uint64 { return e.key }

// SetKey sets the entry's key. Only legal while the entry is not resident in
// a table (callers set the key before NoLockInsert).
func (e *Entry) SetKey(k uint64) { e.key = k }

// Reset zeroes the entry for reuse (pool recycling). Only legal while the
// entry is not resident in a table.
func (e *Entry) Reset() { *e = Entry{} }

type bucket struct {
	head *Entry
	lock xsync.SpinLock
	_    [xsync.CacheLineSize - 8 - 4]byte // head, lock
}

type bucketArray struct {
	mask    uint64 // len(buckets)-1
	buckets []bucket
}

func newBucketArray(size int) *bucketArray {
	return &bucketArray{mask: uint64(size - 1), buckets: make([]bucket, size)}
}

func (a *bucketArray) bucketFor(key uint64) *bucket {
	// Multiplicative scramble so that dense integer keys spread across
	// buckets; the table sizes are powers of two.
	h := key * 0x9e3779b97f4a7c15
	return &a.buckets[(h>>32^h)&a.mask]
}

// residents counts the array's entries. Caller holds the writer lock.
func (a *bucketArray) residents() int {
	n := 0
	for i := range a.buckets {
		for e := a.buckets[i].head; e != nil; e = e.next {
			n++
		}
	}
	return n
}

// slotStats samples one reader slot's inserts. Only the goroutine holding
// that slot's reader lock, or the writer that excludes it, touches the cell.
type slotStats struct {
	inserts    int  // in the current window
	collisions int  // inserts of the current window that found their bucket occupied
	window     int  // inserts per sample; doubles after a refused grow
	wantGrow   bool // the last full window asked for a grow; UnlockKey runs it
	_          [xsync.CacheLineSize - 3*8 - 8]byte
}

// Table is the scalable hash table. All exported methods are safe for
// concurrent use; callers identify themselves with their reader slot, which
// the BRAVO reader lock and the per-slot collision sampling both key on.
type Table struct {
	main    atomic.Pointer[bucketArray]
	rw      rwlock.RW
	slots   []slotStats
	resizes atomic.Int64 // statistics: number of grow operations
	refused int          // grows refused by the memory bound; under the writer lock
}

// Options configures a Table.
type Options struct {
	// InitialSize is the starting bucket count (rounded up to a power of
	// two; default 64). Kept deliberately small: the paper notes tables must
	// start small to bound memory in TT instances with few tasks.
	InitialSize int
	// Slots is the number of reader slots (0..Slots-1) callers pass to the
	// locking methods, one per goroutine that may use the table at once
	// (default 1).
	Slots int
	// Lock guards resizes; defaults to a plain AtomicRW. Pass a BRAVO lock
	// for the optimized configuration.
	Lock rwlock.RW
}

// New creates a Table.
func New(opt Options) *Table {
	size := opt.InitialSize
	if size <= 0 {
		size = 64
	}
	// round up to power of two
	p := 1
	for p < size {
		p <<= 1
	}
	l := opt.Lock
	if l == nil {
		l = rwlock.NewAtomicRW()
	}
	t := &Table{rw: l, slots: make([]slotStats, max(opt.Slots, 1))}
	for i := range t.slots {
		t.slots[i].window = sampleWindow
	}
	t.main.Store(newBucketArray(p))
	return t
}

// LockKey takes the table reader lock and the key's bucket lock. Between
// LockKey and UnlockKey the caller may call the NoLock* methods for this key.
// This is the paper's "typical TTG pattern": lock the bucket for a task ID,
// look up, insert or remove, unlock.
func (t *Table) LockKey(slot int, key uint64) {
	t.rw.RLock(slot)
	t.main.Load().bucketFor(key).lock.Lock()
}

// UnlockKey releases the bucket and reader locks taken by LockKey, then
// performs any grow the caller's inserts asked for.
func (t *Table) UnlockKey(slot int, key uint64) {
	a := t.main.Load()
	a.bucketFor(key).lock.Unlock()
	s := &t.slots[slot]
	grow := s.wantGrow
	s.wantGrow = false
	t.rw.RUnlock(slot)
	if grow {
		t.grow(slot, a)
	}
}

// RLockShared takes only the table-wide reader lock — the prerequisite for
// FindFast. With the BRAVO wrapper this is the zero-RMW visible-readers fast
// path.
func (t *Table) RLockShared(slot int) { t.rw.RLock(slot) }

// RUnlockShared releases RLockShared.
func (t *Table) RUnlockShared(slot int) { t.rw.RUnlock(slot) }

// FindFast locks the key's bucket, finds and unlocks; ok is always true.
// It survives only for the benchmark's table probe and goes once that probe
// drops it. The caller must hold RLockShared.
func (t *Table) FindFast(key uint64) (*Entry, bool) {
	b := t.main.Load().bucketFor(key)
	b.lock.Lock()
	e := t.NoLockFind(key)
	b.lock.Unlock()
	return e, true
}

// NoLockFind returns the entry for key, or nil. The caller must hold the
// key's bucket via LockKey.
func (t *Table) NoLockFind(key uint64) *Entry {
	for e := t.main.Load().bucketFor(key).head; e != nil; e = e.next {
		if e.key == key {
			return e
		}
	}
	return nil
}

// NoLockInsert inserts the entry on behalf of reader slot `slot` (the
// caller must hold LockKey(slot, e.Key()) and must have verified the key is
// absent), and samples whether it collided.
func (t *Table) NoLockInsert(slot int, e *Entry) {
	b := t.main.Load().bucketFor(e.key)
	s := &t.slots[slot]
	s.inserts++
	if b.head != nil {
		s.collisions++
	}
	if s.inserts >= s.window {
		s.wantGrow = s.collisions<<loadShift > s.inserts
		s.inserts, s.collisions = 0, 0
	}
	e.next = b.head
	b.head = e
}

// NoLockRemove removes and returns the entry for key, or nil if absent.
// Caller must hold LockKey for key.
func (t *Table) NoLockRemove(key uint64) *Entry {
	b := t.main.Load().bucketFor(key)
	for p := &b.head; *p != nil; p = &(*p).next {
		if e := *p; e.key == key {
			*p = e.next
			e.next = nil
			return e
		}
	}
	return nil
}

// grow doubles the table if `from` is still the main array and holds enough
// residents, rehashing every one of them into the new array; otherwise it
// refuses and doubles the asking slot's sample window, so a table whose
// collisions come from clustered keys is not asked again every window. Runs
// under the writer lock, so no reader holds any bucket or slot cell.
func (t *Table) grow(slot int, from *bucketArray) {
	t.rw.Lock()
	defer t.rw.Unlock()
	if t.main.Load() != from { // someone else already grew it
		return
	}
	s := &t.slots[slot]
	if from.residents()<<loadShift <= len(from.buckets) {
		t.refused++
		s.window *= 2
		return
	}
	s.window = sampleWindow
	to := newBucketArray(2 * len(from.buckets))
	for i := range from.buckets {
		for e := from.buckets[i].head; e != nil; {
			next := e.next
			b := to.bucketFor(e.key)
			e.next = b.head
			b.head = e
			e = next
		}
	}
	t.main.Store(to)
	t.resizes.Add(1)
}

// Insert is a convenience: lock, insert-if-absent, unlock. It reports whether
// the entry was inserted (false if the key already existed).
func (t *Table) Insert(slot int, e *Entry) bool {
	key := e.key
	t.LockKey(slot, key)
	if t.NoLockFind(key) != nil {
		t.UnlockKey(slot, key)
		return false
	}
	t.NoLockInsert(slot, e)
	t.UnlockKey(slot, key)
	return true
}

// Find is a convenience: lock, find, unlock. The returned entry must only be
// inspected, not unlinked, by the caller.
func (t *Table) Find(slot int, key uint64) *Entry {
	t.LockKey(slot, key)
	e := t.NoLockFind(key)
	t.UnlockKey(slot, key)
	return e
}

// Remove is a convenience: lock, remove, unlock.
func (t *Table) Remove(slot int, key uint64) *Entry {
	t.LockKey(slot, key)
	e := t.NoLockRemove(key)
	t.UnlockKey(slot, key)
	return e
}

// Len returns the total number of resident entries. Like Keys it takes the
// table-wide writer lock, so it is for diagnostics, not hot paths.
func (t *Table) Len() int {
	t.rw.Lock()
	defer t.rw.Unlock()
	return t.main.Load().residents()
}

// Resizes returns how many grow operations have occurred (the paper observes
// rarely more than ~10 per table, which is why the reader-writer lock is so
// heavily reader-biased).
func (t *Table) Resizes() int { return int(t.resizes.Load()) }

// Buckets returns the current bucket count (diagnostics).
func (t *Table) Buckets() int { return len(t.main.Load().buckets) }

// Keys returns up to limit resident keys (limit <= 0 means all). It takes
// the table-wide writer lock, excluding every bucket holder and resizer for
// the duration — a consistent snapshot intended for diagnostics
// (hang reports), not hot paths.
func (t *Table) Keys(limit int) []uint64 {
	t.rw.Lock()
	defer t.rw.Unlock()
	var out []uint64
	a := t.main.Load()
	for i := range a.buckets {
		for e := a.buckets[i].head; e != nil; e = e.next {
			out = append(out, e.key)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// Drain unlinks and returns up to limit resident entries (limit <= 0 means
// all). It holds the table-wide writer lock for the duration, excluding
// every bucket holder.
func (t *Table) Drain(limit int) []*Entry {
	t.rw.Lock()
	defer t.rw.Unlock()
	var out []*Entry
	a := t.main.Load()
	for i := range a.buckets {
		b := &a.buckets[i]
		for b.head != nil {
			e := b.head
			b.head = e.next
			e.next = nil
			out = append(out, e)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}
