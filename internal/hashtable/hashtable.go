// Package hashtable implements PaRSEC's scalable, thread-safe hash table
// (paper §III-C, Fig. 3), the structure that tracks discovered-but-not-yet-
// eligible tasks per template task.
//
// Design, mirroring PaRSEC:
//
//   - The table is a chain of bucket arrays. New entries always go into the
//     newest ("main") array. When an insert observes a bucket whose fill
//     exceeds a high-water mark, the inserter grows the table by allocating a
//     new main array with twice the buckets and pushing the previous one onto
//     the chain of old arrays. Old entries are not rehashed eagerly.
//
//   - Lookups (and removals) lock the key's bucket in the main array, then
//     walk the chain of old arrays; a hit in an old array migrates the entry
//     into the main array so the next search is fast. Because entries live in
//     the table only for a bounded time, the old arrays eventually drain and
//     are unlinked.
//
//   - Threads performing bucket operations take a table-wide *reader* lock;
//     a thread resizing takes the *writer* lock. The reader lock is pluggable:
//     the baseline AtomicRW reproduces the contended behaviour of §III-C2,
//     and the BRAVO wrapper the optimized zero-RMW fast path of §IV-D.
//
//   - Every chain field (bucket head and fill, entry key and link) is a
//     plain field, read and written only under its bucket lock or under the
//     writer lock that excludes every bucket holder. The locks order them;
//     a chain mutation costs no fenced store of its own.
//
// Keys are uint64 (already-hashed task IDs); values are arbitrary pointers
// boxed in `any`.
package hashtable

import (
	"sync/atomic"

	"gottg/internal/rwlock"
	"gottg/internal/xsync"
)

// DefaultHighWaterMark is the bucket fill that triggers a table resize
// (PaRSEC uses 16).
const DefaultHighWaterMark = 16

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
	fill int32                                 // entries chained here; maintained under lock
	_    [xsync.CacheLineSize - 8 - 4 - 4]byte // head, lock, fill
}

type bucketArray struct {
	mask    uint64 // len(buckets)-1
	buckets []bucket
	older   *bucketArray
}

// fill sums the array's bucket fills. Caller holds the writer lock.
func (a *bucketArray) fill() int {
	n := 0
	for i := range a.buckets {
		n += int(a.buckets[i].fill)
	}
	return n
}

func newBucketArray(size int, older *bucketArray) *bucketArray {
	return &bucketArray{
		mask:    uint64(size - 1),
		buckets: make([]bucket, size),
		older:   older,
	}
}

func (a *bucketArray) bucketFor(key uint64) *bucket {
	// Multiplicative scramble so that dense integer keys spread across
	// buckets; the table sizes are powers of two.
	h := key * 0x9e3779b97f4a7c15
	return &a.buckets[(h>>32^h)&a.mask]
}

// Table is the scalable hash table. All exported methods are safe for
// concurrent use; callers identify themselves with their worker slot for the
// benefit of the BRAVO reader lock.
type Table struct {
	main       atomic.Pointer[bucketArray]
	rw         rwlock.RW
	highWater  int32
	resizes    atomic.Int64 // statistics: number of grow operations
	migrations atomic.Int64 // statistics: old-array hits migrated to main
}

// Options configures a Table.
type Options struct {
	// InitialSize is the starting bucket count (rounded up to a power of
	// two; default 64). Kept deliberately small: the paper notes tables must
	// start small to bound memory in TT instances with few tasks.
	InitialSize int
	// HighWaterMark is the per-bucket fill triggering a resize (default 16).
	HighWaterMark int
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
	hw := opt.HighWaterMark
	if hw <= 0 {
		hw = DefaultHighWaterMark
	}
	l := opt.Lock
	if l == nil {
		l = rwlock.NewAtomicRW()
	}
	t := &Table{rw: l, highWater: int32(hw)}
	t.main.Store(newBucketArray(p, nil))
	return t
}

// LockKey takes the table reader lock and the key's main-array bucket lock.
// Between LockKey and UnlockKey the caller may call the NoLock* methods for
// this key. This is the paper's "typical TTG pattern": lock the bucket for a
// task ID, look up, insert or remove, unlock.
func (t *Table) LockKey(slot int, key uint64) {
	t.rw.RLock(slot)
	t.main.Load().bucketFor(key).lock.Lock()
}

// UnlockKey releases the bucket and reader locks taken by LockKey, then
// performs any resize the caller's inserts made necessary.
func (t *Table) UnlockKey(slot int, key uint64) {
	a := t.main.Load()
	b := a.bucketFor(key)
	grow := b.fill > t.highWater
	b.lock.Unlock()
	t.rw.RUnlock(slot)
	if grow {
		t.grow(a)
	}
}

// RLockShared takes only the table-wide reader lock — the prerequisite for
// FindFast and LockBucket. With the BRAVO wrapper this is the zero-RMW
// visible-readers fast path.
func (t *Table) RLockShared(slot int) { t.rw.RLock(slot) }

// RUnlockShared releases RLockShared.
func (t *Table) RUnlockShared(slot int) { t.rw.RUnlock(slot) }

// LockBucket locks the key's main-array bucket. The caller must already hold
// RLockShared (which pins the main array: growing requires the writer lock).
func (t *Table) LockBucket(key uint64) {
	t.main.Load().bucketFor(key).lock.Lock()
}

// UnlockBucket releases LockBucket.
func (t *Table) UnlockBucket(key uint64) {
	t.main.Load().bucketFor(key).lock.Unlock()
}

// FindFast is LockBucket + NoLockFind + UnlockBucket; ok is always true.
// It survives only for the benchmark's table probe and goes once that probe
// drops it. The caller must hold RLockShared.
func (t *Table) FindFast(key uint64) (*Entry, bool) {
	t.LockBucket(key)
	e := t.NoLockFind(key)
	t.UnlockBucket(key)
	return e, true
}

// NoLockFind returns the entry for key, or nil. The caller must hold the
// key's bucket via LockKey. A hit in an old array is migrated into the main
// array (still under the caller's bucket lock, which covers the key in the
// main array; old-array buckets are locked individually during the walk).
func (t *Table) NoLockFind(key uint64) *Entry {
	a := t.main.Load()
	mb := a.bucketFor(key)
	for e := mb.head; e != nil; e = e.next {
		if e.key == key {
			return e
		}
	}
	// Walk older arrays; migrate on hit.
	for old := a.older; old != nil; old = old.older {
		ob := old.bucketFor(key)
		ob.lock.Lock()
		var prev *Entry
		for e := ob.head; e != nil; prev, e = e, e.next {
			if e.key == key {
				if prev == nil {
					ob.head = e.next
				} else {
					prev.next = e.next
				}
				ob.fill--
				ob.lock.Unlock()
				e.next = mb.head
				mb.head = e
				mb.fill++
				t.migrations.Add(1)
				return e
			}
		}
		ob.lock.Unlock()
	}
	return nil
}

// NoLockInsert inserts the entry (caller must hold LockKey for e.Key() and
// must have verified the key is absent).
func (t *Table) NoLockInsert(e *Entry) {
	b := t.main.Load().bucketFor(e.key)
	e.next = b.head
	b.head = e
	b.fill++
}

// NoLockRemove removes and returns the entry for key, or nil if absent.
// Caller must hold LockKey (or RLockShared+LockBucket) for key.
func (t *Table) NoLockRemove(key uint64) *Entry {
	b := t.main.Load().bucketFor(key)
	var prev *Entry
	for e := b.head; e != nil; prev, e = e, e.next {
		if e.key == key {
			if prev == nil {
				b.head = e.next
			} else {
				prev.next = e.next
			}
			b.fill--
			e.next = nil
			return e
		}
	}
	// The entry may still live in an old array (never touched since the
	// resize): find migrates it into the main bucket first.
	if t.NoLockFind(key) != nil {
		return t.NoLockRemove(key)
	}
	return nil
}

// grow doubles the table if `from` is still the main array. Runs under the
// writer lock, so no reader holds any bucket.
func (t *Table) grow(from *bucketArray) {
	t.rw.Lock()
	if t.main.Load() == from { // otherwise someone else already grew it
		t.main.Store(newBucketArray(len(from.buckets)*2, from))
		t.resizes.Add(1)
		t.pruneLocked()
	}
	t.rw.Unlock()
}

// pruneLocked unlinks empty old arrays. Caller holds the writer lock.
func (t *Table) pruneLocked() {
	a := t.main.Load()
	for a.older != nil {
		if a.older.fill() == 0 {
			a.older = a.older.older
		} else {
			a = a.older
		}
	}
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
	t.NoLockInsert(e)
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
	n := 0
	for a := t.main.Load(); a != nil; a = a.older {
		n += a.fill()
	}
	return n
}

// Resizes returns how many grow operations have occurred (the paper observes
// rarely more than ~10 per table, which is why the reader-writer lock is so
// heavily reader-biased).
func (t *Table) Resizes() int { return int(t.resizes.Load()) }

// Migrations returns how many old-array hits have been migrated into the
// main array (each one is a resize-displaced entry made fast again).
func (t *Table) Migrations() int64 { return t.migrations.Load() }

// Buckets returns the current main-array bucket count (diagnostics).
func (t *Table) Buckets() int { return len(t.main.Load().buckets) }

// Depth returns the number of arrays in the chain including the main one
// (diagnostics; 1 when fully drained/pruned).
func (t *Table) Depth() int {
	n := 0
	for a := t.main.Load(); a != nil; a = a.older {
		n++
	}
	return n
}

// Keys returns up to limit resident keys (limit <= 0 means all). It takes
// the table-wide writer lock, excluding every bucket holder and resizer for
// the duration — a consistent snapshot intended for diagnostics
// (hang reports), not hot paths.
func (t *Table) Keys(limit int) []uint64 {
	t.rw.Lock()
	defer t.rw.Unlock()
	var out []uint64
	for a := t.main.Load(); a != nil; a = a.older {
		for i := range a.buckets {
			for e := a.buckets[i].head; e != nil; e = e.next {
				out = append(out, e.key)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// Drain unlinks and returns up to limit resident entries (limit <= 0 means
// all), oldest arrays last. It holds the table-wide writer lock for the
// duration, excluding every bucket holder.
func (t *Table) Drain(limit int) []*Entry {
	t.rw.Lock()
	defer t.rw.Unlock()
	var out []*Entry
	for a := t.main.Load(); a != nil; a = a.older {
		for i := range a.buckets {
			b := &a.buckets[i]
			for b.head != nil {
				e := b.head
				b.head = e.next
				b.fill--
				e.next = nil
				out = append(out, e)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}
