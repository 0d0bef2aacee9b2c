package hashtable

import (
	"sync"
	"testing"

	"gottg/internal/rwlock"
)

func TestFindFastHitMissAndFallback(t *testing.T) {
	tb := New(Options{InitialSize: 8})
	for i := uint64(0); i < 32; i++ {
		tb.Insert(0, ent(i, int(i)))
	}
	tb.RLockShared(0)
	for i := uint64(0); i < 32; i++ {
		e, ok := tb.FindFast(i)
		if !ok || e == nil {
			t.Fatalf("FindFast(%d) = (%v, %v), want hit", i, e, ok)
		}
		if e.Val.(int) != int(i) {
			t.Fatalf("FindFast(%d) wrong value %v", i, e.Val)
		}
	}
	// Single-array table: a clean miss is authoritative.
	if e, ok := tb.FindFast(1000); e != nil || !ok {
		t.Fatalf("FindFast(miss) = (%v, %v), want (nil, true)", e, ok)
	}
	tb.RUnlockShared(0)
}

// TestFindFastAfterGrows pins that FindFast sees the single array a grow
// leaves behind: every resident is found and a miss is authoritative.
func TestFindFastAfterGrows(t *testing.T) {
	tb := New(Options{InitialSize: 2})
	for i := uint64(0); i < 256; i++ {
		tb.Insert(0, ent(i, i))
	}
	if tb.Resizes() < 3 {
		t.Fatalf("Resizes = %d, want >= 3", tb.Resizes())
	}
	tb.RLockShared(0)
	defer tb.RUnlockShared(0)
	for i := uint64(0); i < 256; i++ {
		if e, ok := tb.FindFast(i); !ok || e == nil || e.Val.(uint64) != i {
			t.Fatalf("FindFast(%d) = (%v, %v) after grows", i, e, ok)
		}
	}
	if e, ok := tb.FindFast(1000); e != nil || !ok {
		t.Fatalf("FindFast(miss) = (%v, %v), want (nil, true)", e, ok)
	}
}

// TestFindFastConcurrent churns inserts/removes on half the key space while
// readers run FindFast on permanently-resident keys; run with -race this
// checks that its bucket lock orders every chain read.
func TestFindFastConcurrent(t *testing.T) {
	tb := New(Options{InitialSize: 64, Slots: 2, Lock: rwlock.NewBRAVO(8, nil)})
	const resident = 128
	for i := uint64(0); i < resident; i++ {
		tb.Insert(0, ent(i, int(i)))
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(slot int) {
			defer writers.Done()
			base := uint64(slot+1) << 32
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tb.Insert(slot, ent(base|(i%512), i))
				tb.Remove(slot, base|(i%512))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			for n := 0; n < 50000; n++ {
				k := uint64(n) % resident
				tb.RLockShared(slot)
				e, ok := tb.FindFast(k)
				if ok {
					if e == nil {
						t.Errorf("resident key %d reported absent", k)
						tb.RUnlockShared(slot)
						return
					}
					if e.Val.(int) != int(k) {
						t.Errorf("key %d wrong value %v", k, e.Val)
						tb.RUnlockShared(slot)
						return
					}
				}
				tb.RUnlockShared(slot)
			}
		}(4 + r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

func TestDrainReturnsEverything(t *testing.T) {
	tb := New(Options{InitialSize: 2})
	for i := uint64(0); i < 300; i++ {
		tb.Insert(0, ent(i, i))
	}
	var got int
	for {
		batch := tb.Drain(64)
		if len(batch) == 0 {
			break
		}
		got += len(batch)
		if len(batch) > 64 {
			t.Fatalf("Drain ignored limit: %d", len(batch))
		}
	}
	if got != 300 {
		t.Fatalf("drained %d entries, want 300", got)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after drain", tb.Len())
	}
}

func BenchmarkHTFindFastHit(b *testing.B) {
	tb := New(Options{})
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x1234567
		tb.Insert(0, ent(keys[i], nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.RLockShared(0)
		tb.FindFast(keys[i%len(keys)])
		tb.RUnlockShared(0)
	}
}
