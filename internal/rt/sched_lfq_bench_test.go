package rt

import (
	"math/rand"
	"testing"
)

// The LFQ bounded buffer used to pay an O(capacity) linear scan on every
// pop (find-max) and every full-buffer insert (find-min); the max-heap
// makes those O(log cap) and leaves only eviction scanning, and then only
// the heap's leaves. These benchmarks pin the claim at two capacities the
// scan cost shows up at, built with newLFQ directly: a shallow 8 (twice
// lfqBufCap) and a deep 64.

func benchmarkLFQBuf(b *testing.B, cap int, evict bool) {
	r := New(Config{Workers: 1}.Normalize())
	s := newLFQ(r.Workers(), cap)
	rng := rand.New(rand.NewSource(1))
	n := cap
	if evict {
		n = 2 * cap // the second half displaces minimums into the global FIFO
	}
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &Task{Priority: int32(rng.Intn(1 << 16))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tasks {
			s.Push(0, t)
		}
		for s.Pop(0) != nil {
		}
	}
}

func BenchmarkLFQBufPushPop8(b *testing.B)  { benchmarkLFQBuf(b, 8, false) }
func BenchmarkLFQBufPushPop64(b *testing.B) { benchmarkLFQBuf(b, 64, false) }
func BenchmarkLFQBufEvict8(b *testing.B)    { benchmarkLFQBuf(b, 8, true) }
func BenchmarkLFQBufEvict64(b *testing.B)   { benchmarkLFQBuf(b, 64, true) }
