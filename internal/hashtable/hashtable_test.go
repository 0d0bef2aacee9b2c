package hashtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"gottg/internal/rwlock"
)

// ent builds an Entry with the key set through the accessor (the key field
// is unexported).
func ent(k uint64, v any) *Entry {
	e := &Entry{Val: v}
	e.SetKey(k)
	return e
}

func TestBucketCacheLineSized(t *testing.T) {
	if s := unsafe.Sizeof(bucket{}); s != 64 {
		t.Fatalf("bucket size = %d, want 64", s)
	}
}

func TestInsertFindRemove(t *testing.T) {
	tb := New(Options{InitialSize: 8})
	for i := uint64(0); i < 100; i++ {
		if !tb.Insert(0, ent(i, int(i))) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tb.Len())
	}
	for i := uint64(0); i < 100; i++ {
		e := tb.Find(0, i)
		if e == nil || e.Val.(int) != int(i) {
			t.Fatalf("find %d: got %v", i, e)
		}
	}
	if tb.Find(0, 1000) != nil {
		t.Fatal("found nonexistent key")
	}
	for i := uint64(0); i < 100; i++ {
		if tb.Remove(0, i) == nil {
			t.Fatalf("remove %d failed", i)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after removals = %d, want 0", tb.Len())
	}
	if tb.Remove(0, 5) != nil {
		t.Fatal("second remove of same key returned an entry")
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tb := New(Options{})
	if !tb.Insert(0, ent(7, "a")) {
		t.Fatal("first insert failed")
	}
	if tb.Insert(0, ent(7, "b")) {
		t.Fatal("duplicate insert succeeded")
	}
	if got := tb.Find(0, 7).Val.(string); got != "a" {
		t.Fatalf("value clobbered: %q", got)
	}
}

func TestGrowthAndOldTableMigration(t *testing.T) {
	tb := New(Options{InitialSize: 2, HighWaterMark: 4})
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tb.Insert(0, ent(i, i))
	}
	if tb.Resizes() == 0 {
		t.Fatal("table never grew despite heavy fill")
	}
	if tb.Buckets() < 64 {
		t.Fatalf("buckets = %d, expected substantial growth", tb.Buckets())
	}
	// All entries must be findable even though most live in old arrays.
	for i := uint64(0); i < n; i++ {
		if tb.Find(0, i) == nil {
			t.Fatalf("key %d lost after growth", i)
		}
	}
	// After touching every key, entries have migrated to the main array and
	// removal must drain the chain of old arrays entirely.
	for i := uint64(0); i < n; i++ {
		if tb.Remove(0, i) == nil {
			t.Fatalf("key %d lost during drain", i)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after full drain", tb.Len())
	}
	// Force one more grow cycle so pruneLocked runs with empty old arrays.
	for i := uint64(0); i < 512; i++ {
		tb.Insert(0, ent(i+1_000_000, i))
	}
	for i := uint64(0); i < 512; i++ {
		tb.Remove(0, i+1_000_000)
	}
}

func TestRemoveFromOldArrayDirectly(t *testing.T) {
	tb := New(Options{InitialSize: 2, HighWaterMark: 2})
	for i := uint64(0); i < 256; i++ {
		tb.Insert(0, ent(i, i))
	}
	// Remove keys without a prior Find: NoLockRemove must reach into old
	// arrays via the migration path.
	for i := uint64(0); i < 256; i++ {
		if tb.Remove(0, i) == nil {
			t.Fatalf("key %d not removable from old array", i)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("%d entries leaked", tb.Len())
	}
}

// TestPruneAfterOldArraysDrain pins that pruning needs no residency gauge:
// once every key is gone, the next grow unlinks every old array whose
// buckets are all empty, and Len counts bucket fills.
func TestPruneAfterOldArraysDrain(t *testing.T) {
	tb := New(Options{InitialSize: 2, HighWaterMark: 2})
	const n = 256
	for i := uint64(0); i < n; i++ {
		tb.Insert(0, ent(i, i))
	}
	if tb.Resizes() < 2 {
		t.Fatalf("Resizes = %d, want >= 2", tb.Resizes())
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if tb.Remove(0, i) == nil {
			t.Fatalf("key %d lost", i)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after removing every key", tb.Len())
	}
	before, resizes := tb.Depth(), tb.Resizes()
	if before < 3 {
		t.Fatalf("Depth = %d before the last grow, want >= 3 (old arrays to prune)", before)
	}
	// Fill until one more grow happens; it prunes every empty old array.
	var forced []uint64
	for k := uint64(1 << 40); tb.Resizes() == resizes; k++ {
		tb.Insert(0, ent(k, nil))
		forced = append(forced, k)
	}
	for _, k := range forced {
		if tb.Remove(0, k) == nil {
			t.Fatalf("key %d lost", k)
		}
	}
	if d := tb.Depth(); d != 1 && d != 2 {
		t.Fatalf("Depth = %d after the grow, want 1 or 2 (was %d)", d, before)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tb.Len())
	}
}

// TestConcurrentLenAndKeysUnderChurn runs the writer-locked diagnostics
// against inserts, removes and resizes; under -race it checks that no chain
// field is read outside a lock.
func TestConcurrentLenAndKeysUnderChurn(t *testing.T) {
	tb := New(Options{InitialSize: 2, HighWaterMark: 2, Lock: rwlock.NewBRAVO(4, nil)})
	const writers, window = 3, 32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			base := uint64(slot) << 40
			for i := uint64(0); ; i++ {
				if i >= window {
					select {
					case <-stop:
						return
					default:
					}
				}
				tb.Insert(slot, ent(base|i, nil))
				if i >= window {
					tb.Remove(slot, base|(i-window))
				}
			}
		}(w)
	}
	const most = writers * (window + 1)
	for i := 0; i < 300; i++ {
		if n := tb.Len(); n < 0 || n > most {
			t.Errorf("Len = %d, want 0..%d", n, most)
			break
		}
		if keys := tb.Keys(0); len(keys) > most {
			t.Errorf("Keys returned %d, want at most %d", len(keys), most)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n, k := tb.Len(), len(tb.Keys(0)); n != k || n != writers*window {
		t.Fatalf("after churn Len = %d, len(Keys) = %d, want %d", n, k, writers*window)
	}
}

func concurrentHammer(t *testing.T, lock rwlock.RW) {
	t.Helper()
	const workers = 8
	const perWorker = 3000
	tb := New(Options{InitialSize: 4, HighWaterMark: 8, Lock: lock})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			base := uint64(slot) << 32
			for i := uint64(0); i < perWorker; i++ {
				k := base | i
				tb.Insert(slot, ent(k, k))
				if e := tb.Find(slot, k); e == nil || e.Val.(uint64) != k {
					t.Errorf("worker %d lost key %d", slot, i)
					return
				}
				if i%2 == 0 {
					if tb.Remove(slot, k) == nil {
						t.Errorf("worker %d failed to remove key %d", slot, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := workers * perWorker / 2
	if tb.Len() != want {
		t.Fatalf("Len = %d, want %d", tb.Len(), want)
	}
}

func TestConcurrentAtomicRW(t *testing.T) {
	concurrentHammer(t, rwlock.NewAtomicRW())
}

func TestConcurrentBRAVO(t *testing.T) {
	concurrentHammer(t, rwlock.NewBRAVO(8, nil))
}

func TestLockKeyProtocol(t *testing.T) {
	tb := New(Options{})
	// The TTG pattern: lock a key, find-or-insert, unlock.
	tb.LockKey(0, 42)
	if tb.NoLockFind(42) != nil {
		t.Fatal("phantom entry")
	}
	tb.NoLockInsert(ent(42, "pending"))
	tb.UnlockKey(0, 42)

	tb.LockKey(0, 42)
	e := tb.NoLockFind(42)
	if e == nil {
		t.Fatal("entry lost")
	}
	if got := tb.NoLockRemove(42); got != e {
		t.Fatal("remove returned different entry")
	}
	tb.UnlockKey(0, 42)
}

// Property test: the table behaves exactly like map[uint64]uint64 under an
// arbitrary sequence of insert/remove/find operations.
func TestQuickVsMapModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16 // small key space to force collisions and growth
	}
	f := func(ops []op) bool {
		tb := New(Options{InitialSize: 2, HighWaterMark: 3})
		model := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0:
				ins := tb.Insert(0, ent(k, k))
				if ins == model[k] { // must insert iff absent from model
					return false
				}
				model[k] = true
			case 1:
				e := tb.Remove(0, k)
				if (e != nil) != model[k] {
					return false
				}
				delete(model, k)
			case 2:
				e := tb.Find(0, k)
				if (e != nil) != model[k] {
					return false
				}
			}
		}
		return tb.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHTInsertRemove(b *testing.B) {
	tb := New(Options{})
	e := ent(1, nil)
	for i := 0; i < b.N; i++ {
		e.SetKey(uint64(i))
		tb.Insert(0, e)
		tb.Remove(0, uint64(i))
	}
}

func BenchmarkHTLookupHit(b *testing.B) {
	tb := New(Options{})
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = rand.Uint64()
		tb.Insert(0, ent(keys[i], nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Find(0, keys[i%len(keys)])
	}
}

func TestConcurrentGrowthUnderChurn(t *testing.T) {
	// Writers force repeated resizes while readers churn; invariants:
	// no entry lost, Depth eventually prunes back to a short chain.
	tb := New(Options{InitialSize: 2, HighWaterMark: 2, Lock: rwlock.NewBRAVO(4, nil)})
	var wg sync.WaitGroup
	const per = 4000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			base := uint64(slot) << 40
			for i := uint64(0); i < per; i++ {
				tb.Insert(slot, ent(base|i, i))
				if i >= 64 {
					if tb.Remove(slot, base|(i-64)) == nil {
						t.Errorf("slot %d lost key %d", slot, i-64)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != 4*64 {
		t.Fatalf("Len = %d, want %d", tb.Len(), 4*64)
	}
	if tb.Resizes() == 0 {
		t.Fatal("never resized under churn")
	}
	// Drain and force one more grow: the empty old arrays must prune.
	for w := 0; w < 4; w++ {
		base := uint64(w) << 40
		for i := uint64(per - 64); i < per; i++ {
			tb.Remove(0, base|i)
		}
	}
	before := tb.Depth()
	for i := uint64(0); i < 200; i++ {
		tb.Insert(0, ent(1<<50|i, nil))
	}
	if tb.Depth() > before+2 {
		t.Fatalf("chain depth %d did not prune (was %d)", tb.Depth(), before)
	}
}

func TestKeysSnapshot(t *testing.T) {
	tb := New(Options{InitialSize: 2, HighWaterMark: 2})
	want := map[uint64]bool{}
	for i := uint64(0); i < 100; i++ {
		tb.Insert(0, ent(i, nil))
		want[i] = true
	}
	keys := tb.Keys(0)
	if len(keys) != 100 {
		t.Fatalf("Keys returned %d", len(keys))
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("unexpected key %d", k)
		}
	}
	if got := tb.Keys(7); len(got) != 7 {
		t.Fatalf("limited Keys returned %d", len(got))
	}
}

func TestKeysConcurrentWithResizes(t *testing.T) {
	// Keys must snapshot safely while writers force resizes and removals.
	tb := New(Options{InitialSize: 2, HighWaterMark: 2, Lock: rwlock.NewBRAVO(4, nil)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			base := uint64(slot) << 40
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tb.Insert(slot, ent(base|i, nil))
				if i >= 32 {
					tb.Remove(slot, base|(i-32))
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		keys := tb.Keys(0)
		seen := map[uint64]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Errorf("duplicate key %d in snapshot", k)
				break
			}
			seen[k] = true
		}
	}
	close(stop)
	wg.Wait()
}
