package core

import (
	"testing"

	"gottg/internal/comm"
	"gottg/internal/rt"
	"gottg/internal/termdet"
)

// remoteBench drives the full outbound wire path — deliver → remoteSend →
// codec fast path → batch append → framed flush — from rank 0 into a raw
// rank-1 endpoint that unpacks and discards. Rank 0's seed guard stays held,
// so no termination wave interferes with the measurement.
type remoteBench struct {
	world *comm.World
	g     *Graph
	tt    *TT
	sw    *rt.Worker
	val   any // hoisted: boxing the payload is the caller's cost, not the wire's
}

func newRemoteBench(workers int) *remoteBench {
	world := comm.NewWorld(2)
	p1 := world.Proc(1)
	p1.RegisterBatched(activationTag, func(src int, payload []byte) {})
	det1 := termdet.New(1, false)
	p1.Start(det1, func() {})
	det1.EnterIdle(0)

	cfg := rt.OptimizedConfig(workers)
	cfg.PinWorkers = false
	g := NewDistributed(cfg, world.Proc(0))
	tt := g.NewTT("sink", 1, 0, func(tc TaskContext) {})
	tt.WithMapper(func(key uint64) int { return 1 })
	g.MakeExecutable()
	return &remoteBench{world: world, g: g, tt: tt, sw: g.rtm.ServiceWorker(0), val: float64(3.25)}
}

// send pushes one remote activation with an 8-byte fast-path payload.
func (rb *remoteBench) send(key uint64) {
	c := rb.sw.NewCopy(rb.val)
	rb.g.deliver(rb.sw, dest{tt: rb.tt, slot: 0}, key, c, true)
}

func (rb *remoteBench) close() {
	rb.world.Shutdown()
	rb.g.rtm.SignalDone()
	rb.g.Wait()
}

// BenchmarkRemoteActivation measures the steady-state cost of one coalesced
// remote activation (header + codec encode + batch append, frames flushed on
// the size threshold).
func BenchmarkRemoteActivation(b *testing.B) {
	rb := newRemoteBench(1)
	defer rb.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.send(uint64(i))
	}
}

// TestRemoteActivationAllocs pins the zero-allocation wire path: at most one
// heap allocation per remote activation in steady state (the occasional slab
// growth and frame chunk amortize far below that; the payload value itself
// is hoisted, as a real task body's already-boxed Copy would be).
func TestRemoteActivationAllocs(t *testing.T) {
	rb := newRemoteBench(1)
	defer rb.close()
	var key uint64
	// Warm the slab pool and the copy pool before measuring.
	for i := 0; i < 2000; i++ {
		rb.send(key)
		key++
	}
	avg := testing.AllocsPerRun(5000, func() {
		rb.send(key)
		key++
	})
	if avg > 1 {
		t.Fatalf("remote activation averaged %.3f allocs/op, want <= 1", avg)
	}
}
