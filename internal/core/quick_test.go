package core

import (
	"sync"
	"testing"
	"testing/quick"

	"gottg/internal/rt"
)

// TestQuickRandomLayeredDAG generates random layered DAGs and checks that
// TTG's dynamic discovery computes exactly the same node values as a
// sequential topological evaluation: value(node) = 1 + Σ value(preds).
func TestQuickRandomLayeredDAG(t *testing.T) {
	type spec struct {
		Layers   uint8
		Width    uint8
		EdgeSeed uint32
	}
	f := func(sp spec) bool {
		layers := int(sp.Layers%5) + 2 // 2..6 layers
		width := int(sp.Width%5) + 1   // 1..5 nodes per layer
		rng := uint64(sp.EdgeSeed) | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		// preds[l][i] = predecessor indices in layer l-1 (nonempty for l>0).
		preds := make([][][]int, layers)
		for l := 1; l < layers; l++ {
			preds[l] = make([][]int, width)
			for i := 0; i < width; i++ {
				k := next(width) + 1 // 1..width predecessors
				seen := map[int]bool{}
				for j := 0; j < k; j++ {
					seen[next(width)] = true
				}
				for p := range seen {
					preds[l][i] = append(preds[l][i], p)
				}
			}
		}
		// Sequential reference.
		ref := make([][]int64, layers)
		ref[0] = make([]int64, width)
		for i := range ref[0] {
			ref[0][i] = 1
		}
		for l := 1; l < layers; l++ {
			ref[l] = make([]int64, width)
			for i := 0; i < width; i++ {
				v := int64(1)
				for _, p := range preds[l][i] {
					v += ref[l-1][p]
				}
				ref[l][i] = v
			}
		}
		// succs[l][p] = successor list in layer l+1 for node (l,p).
		succs := make([][][]int, layers)
		for l := 0; l < layers-1; l++ {
			succs[l] = make([][]int, width)
			for i := 0; i < width; i++ {
				for _, p := range preds[l+1][i] {
					succs[l][p] = append(succs[l][p], i)
				}
			}
		}
		// TTG execution: node (l,i) aggregates len(preds) values.
		cfg := rt.OptimizedConfig(3)
		cfg.PinWorkers = false
		g := New(cfg)
		e := NewEdge("dag")
		got := make([][]int64, layers)
		for l := range got {
			got[l] = make([]int64, width)
		}
		var mu sync.Mutex
		node := g.NewTT("node", 1, 1, func(tc TaskContext) {
			l32, i32 := Unpack2(tc.Key())
			l, i := int(l32), int(i32)
			v := int64(1)
			agg := tc.Aggregate(0)
			for k := 0; k < agg.Len(); k++ {
				if x, ok := agg.Value(k).(int64); ok {
					v += x
				}
			}
			mu.Lock()
			got[l][i] = v
			mu.Unlock()
			if l+1 < layers {
				for _, s := range succs[l][i] {
					tc.Send(0, Pack2(uint32(l+1), uint32(s)), v)
				}
			}
		}).WithAggregator(0, func(key uint64) int {
			l, i := Unpack2(key)
			if l == 0 {
				return 1
			}
			return len(preds[l][i])
		})
		node.Out(0, e)
		e.To(node, 0)
		g.MakeExecutable()
		for i := 0; i < width; i++ {
			g.Invoke(node, Pack2(0, uint32(i)), nil)
		}
		waitOK(t, g)
		for l := 0; l < layers; l++ {
			for i := 0; i < width; i++ {
				if got[l][i] != ref[l][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
