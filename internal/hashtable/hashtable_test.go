package hashtable

import (
	"math/bits"
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
	if s := unsafe.Sizeof(slotStats{}); s != 64 {
		t.Fatalf("slotStats size = %d, want 64", s)
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

// TestGrowthAndOldTableMigration pins that a grow moves every resident of
// the old array into the new one: after each of at least three grows every
// key inserted so far is found and Len is exact, and every key is then
// removable.
func TestGrowthAndOldTableMigration(t *testing.T) {
	tb := New(Options{InitialSize: 2})
	const n = 4096
	resizes := 0
	for i := uint64(0); i < n; i++ {
		tb.Insert(0, ent(i, i))
		if tb.Resizes() == resizes {
			continue
		}
		resizes = tb.Resizes()
		for k := uint64(0); k <= i; k++ {
			if e := tb.Find(0, k); e == nil || e.Val.(uint64) != k {
				t.Fatalf("after grow %d: key %d lost", resizes, k)
			}
		}
		if got := tb.Len(); got != int(i+1) {
			t.Fatalf("after grow %d: Len = %d, want %d", resizes, got, i+1)
		}
	}
	if resizes < 3 {
		t.Fatalf("Resizes = %d, want >= 3", resizes)
	}
	for i := uint64(0); i < n; i++ {
		if tb.Find(0, i) == nil || tb.Remove(0, i) == nil {
			t.Fatalf("key %d lost", i)
		}
	}
	if tb.Len() != 0 || tb.Remove(0, 1) != nil {
		t.Fatalf("Len = %d after removing every key", tb.Len())
	}
}

// TestRemoveFromOldArrayDirectly pins that keys inserted before a grow are
// removable without a prior Find: the grow rehashed them, so Remove reaches
// them in the current array.
func TestRemoveFromOldArrayDirectly(t *testing.T) {
	tb := New(Options{InitialSize: 2})
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tb.Insert(0, ent(i, i))
	}
	if tb.Resizes() < 3 {
		t.Fatalf("Resizes = %d, want >= 3", tb.Resizes())
	}
	for i := uint64(0); i < n; i++ {
		if tb.Remove(0, i) == nil {
			t.Fatalf("key %d not removable after grows", i)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("%d entries leaked", tb.Len())
	}
}

// TestBucketsBoundedByResidents pins both sides of the sizing rule: a slot
// inserting random keys grows the table to at least one bucket per
// resident, and the memory bound keeps it at most 16 buckets per resident.
func TestBucketsBoundedByResidents(t *testing.T) {
	tb := New(Options{})
	rng := rand.New(rand.NewSource(1))
	const n = 1000
	for i := 0; i < n; i++ {
		tb.Insert(0, ent(rng.Uint64(), nil))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if b := tb.Buckets(); b < n || b > 16*n {
		t.Fatalf("Buckets = %d for %d residents, want %d..%d", b, n, n, 16*n)
	}
}

// TestSpreadKeysDoNotGrow pins that load alone does not grow the table:
// dense keys, which the multiplicative hash spreads across buckets, fill a
// quarter of it with few collisions, so no slot asks for the grow the
// memory bound would allow.
func TestSpreadKeysDoNotGrow(t *testing.T) {
	tb := New(Options{InitialSize: 1024})
	for i := uint64(0); i < 256; i++ {
		tb.Insert(0, ent(i, nil))
	}
	if tb.Resizes() != 0 {
		t.Fatalf("Resizes = %d for 256 spread keys in 1024 buckets, want 0", tb.Resizes())
	}
}

// TestCollidingKeysRefuseGrowth drives the table with 16 keys that share a
// bucket at every size it can reach, so nearly every insert collides however
// far it grows. The memory bound must refuse the grows that load does not
// justify (Buckets stays <= 16 per resident), and a refused slot must not
// ask again every window: refusals grow with the log of the inserts.
func TestCollidingKeysRefuseGrowth(t *testing.T) {
	const residents = 16
	var keys []uint64
	largest := newBucketArray(4096) // far beyond the 16 x 16 the bound allows
	for k := uint64(1); len(keys) < residents; k++ {
		if largest.bucketFor(k) == &largest.buckets[0] {
			keys = append(keys, k)
		}
	}
	tb := New(Options{InitialSize: 2})
	const rounds = 5000
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if !tb.Insert(0, ent(k, nil)) {
				t.Fatalf("round %d: insert %d failed", r, k)
			}
		}
		if b := tb.Buckets(); b > 16*residents {
			t.Fatalf("round %d: Buckets = %d, want <= %d", r, b, 16*residents)
		}
		for _, k := range keys {
			if tb.Remove(0, k) == nil {
				t.Fatalf("round %d: key %d lost", r, k)
			}
		}
	}
	if tb.Resizes() == 0 {
		t.Fatal("never grew under a full collision rate")
	}
	inserts := rounds * residents
	if most := bits.Len(uint(inserts)); tb.refused == 0 || tb.refused > most {
		t.Fatalf("refused %d grows over %d inserts, want 1..%d", tb.refused, inserts, most)
	}
}

// TestConcurrentLenAndKeysUnderChurn runs the writer-locked diagnostics
// against inserts, removes and resizes; under -race it checks that no chain
// field is read outside a lock.
func TestConcurrentLenAndKeysUnderChurn(t *testing.T) {
	tb := New(Options{InitialSize: 2, Slots: 3, Lock: rwlock.NewBRAVO(4, nil)})
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
	tb := New(Options{InitialSize: 4, Slots: workers, Lock: lock})
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
	if tb.Resizes() == 0 {
		t.Fatal("never resized")
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
	tb.NoLockInsert(0, ent(42, "pending"))
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
		tb := New(Options{InitialSize: 2})
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
	// Four slots churn a window of 64 keys each while their inserts grow the
	// table; invariants: no entry lost, Len exact, and the table stays within
	// 16 buckets per peak resident.
	const slots, window, per = 4, 64, 4000
	tb := New(Options{InitialSize: 2, Slots: slots, Lock: rwlock.NewBRAVO(slots, nil)})
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			base := uint64(slot) << 40
			for i := uint64(0); i < per; i++ {
				tb.Insert(slot, ent(base|i, i))
				if i >= window {
					if tb.Remove(slot, base|(i-window)) == nil {
						t.Errorf("slot %d lost key %d", slot, i-window)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != slots*window {
		t.Fatalf("Len = %d, want %d", tb.Len(), slots*window)
	}
	if tb.Resizes() < 3 {
		t.Fatalf("Resizes = %d under churn, want >= 3", tb.Resizes())
	}
	if peak := slots * (window + 1); tb.Buckets() > 16*peak {
		t.Fatalf("Buckets = %d, want <= 16 x %d peak residents", tb.Buckets(), peak)
	}
	for w := 0; w < slots; w++ {
		base := uint64(w) << 40
		for i := uint64(per - window); i < per; i++ {
			if tb.Remove(0, base|i) == nil {
				t.Fatalf("slot %d key %d lost", w, i)
			}
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after removing every key", tb.Len())
	}
}

func TestKeysSnapshot(t *testing.T) {
	tb := New(Options{InitialSize: 2})
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
	tb := New(Options{InitialSize: 2, Slots: 3, Lock: rwlock.NewBRAVO(4, nil)})
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

// BenchmarkTwoSlotResidency drives the table the way the stencil's Point
// template task does, without the runtime: two goroutines on slots 0 and 1
// each keep 64 keys resident (128 in all) and run insert → find → find →
// remove cycles over them, so their buckets share lines only when the table
// is too small for its residents. One op is one cycle on each slot.
func BenchmarkTwoSlotResidency(b *testing.B) {
	const slots, live = 2, 64
	tb := New(Options{Slots: slots, Lock: rwlock.NewBRAVO(slots, nil)})
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ring := make([]Entry, live)
			base := uint64(slot) << 40
			for i := 0; i < b.N+live; i++ {
				k := base | uint64(i)
				if i >= live {
					if tb.Remove(slot, k-live) == nil {
						panic("BenchmarkTwoSlotResidency: resident key lost")
					}
				}
				e := &ring[i%live]
				e.Reset()
				e.SetKey(k)
				tb.Insert(slot, e)
				if i >= live && (tb.Find(slot, k-live/3) == nil || tb.Find(slot, k-2*live/3) == nil) {
					panic("BenchmarkTwoSlotResidency: find missed a resident key")
				}
			}
		}(s)
	}
	wg.Wait()
}
