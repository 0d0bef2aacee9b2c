package rt

import "testing"

// TestStealOrderPermutation: for any worker count and RNG state, stealOrder
// must yield every other worker exactly once — a permutation of
// {0..n-1} \ {wid}. A victim scan that skips or repeats workers either
// starves queues or double-polls them.
func TestStealOrderPermutation(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16} {
		r := New(Config{Workers: n})
		for _, w := range r.Workers() {
			for iter := 0; iter < 8; iter++ { // advance the RNG between scans
				got := stealOrder(w, n, w.victimBuf())
				if len(got) != n-1 {
					t.Fatalf("n=%d wid=%d: %d victims, want %d (%v)",
						n, w.ID, len(got), n-1, got)
				}
				seen := make([]bool, n)
				for _, v := range got {
					if v < 0 || v >= n {
						t.Fatalf("n=%d wid=%d: victim %d out of range", n, w.ID, v)
					}
					if v == w.ID {
						t.Fatalf("n=%d wid=%d: scan includes self", n, w.ID)
					}
					if seen[v] {
						t.Fatalf("n=%d wid=%d: victim %d repeated in %v", n, w.ID, v, got)
					}
					seen[v] = true
				}
			}
		}
	}
}
