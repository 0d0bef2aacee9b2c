package comm

import (
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// fdHarness is the common FD test setup: failure detection with fast
// heartbeats and a short suspicion window (there is no fault plan, so the
// only silence is a real kill).
func fdHarness(n int) *harness {
	h := newHarness(n)
	h.world.EnableFailureDetection(FDConfig{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 25 * time.Millisecond,
	})
	return h
}

// waitSurvivors is waitAll minus the victim (a killed rank never sees the
// wave's termination; its callback fires on its own drain instead, which
// TestKillRankDetectedByAllSurvivors checks).
func (h *harness) waitSurvivors(t *testing.T, victim int) {
	t.Helper()
	for i, d := range h.done {
		if i == victim {
			continue
		}
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never saw termination after the kill", i)
		}
	}
	h.world.Shutdown()
}

// waitEpoch polls until every survivor has applied `epoch` deaths.
func (h *harness) waitEpoch(t *testing.T, victim int, epoch int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := range h.done {
		if i == victim {
			continue
		}
		for h.world.Proc(i).Epoch() < epoch {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d stuck at epoch %d, want %d", i, h.world.Proc(i).Epoch(), epoch)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestKillRankDetectedByAllSurvivors: every survivor confirms the death
// once, and the victim's termination callback fires on its first quiescence
// after the fence — at once when it was quiescent already, with no later
// event to trigger it, or when its last pending action completes.
func TestKillRankDetectedByAllSurvivors(t *testing.T) {
	for _, busy := range []bool{false, true} {
		name := "victim-quiescent"
		if busy {
			name = "victim-busy"
		}
		t.Run(name, func(t *testing.T) { killRankDetectedByAllSurvivors(t, busy) })
	}
}

func killRankDetectedByAllSurvivors(t *testing.T, victimBusy bool) {
	const n, victim = 4, 2
	h := fdHarness(n)
	type death struct{ dead, epoch int }
	hooks := make([]chan death, n)
	for i := 0; i < n; i++ {
		ch := make(chan death, 4)
		hooks[i] = ch
		h.world.Proc(i).SetOnRankDead(func(dead, epoch int) {
			ch <- death{dead, epoch}
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	if victimBusy {
		h.dets[victim].Discovered(termdet.ExternalSlot)
	}
	h.start()
	h.world.KillRank(victim)
	if victimBusy {
		select {
		case <-h.done[victim]:
			t.Fatal("the victim terminated while it still held a pending action")
		case <-time.After(20 * time.Millisecond):
		}
		h.dets[victim].Completed(termdet.ExternalSlot)
	}
	select {
	case <-h.done[victim]:
	case <-time.After(10 * time.Second):
		t.Fatal("the killed rank's termination callback never fired on its drain")
	}
	h.waitEpoch(t, victim, 1)
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		select {
		case d := <-hooks[i]:
			if d.dead != victim || d.epoch != 1 {
				t.Fatalf("rank %d hook saw death %+v, want {%d 1}", i, d, victim)
			}
		default:
			t.Fatalf("rank %d applied epoch 1 without firing onRankDead", i)
		}
		if h.world.Proc(i).DeadView(victim) != true {
			t.Fatalf("rank %d does not consider %d dead", i, victim)
		}
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitSurvivors(t, victim)
	if d := h.world.Deaths(); d != 1 {
		t.Fatalf("Deaths() = %d, want 1 (exactly one confirmation)", d)
	}
	if w := h.world.WaveRestarts(); w < 1 {
		t.Fatalf("WaveRestarts() = %d, want >= 1", w)
	}
	// The dead rank's hook must never have fired.
	select {
	case d := <-hooks[victim]:
		t.Fatalf("victim's own onRankDead fired: %+v", d)
	default:
	}
}

func TestKillCoordinatorRankZeroSuccession(t *testing.T) {
	// Killing rank 0 removes both the failure-detection coordinator and the
	// termination-wave root; rank 1 must take over both roles and drive the
	// survivors to termination.
	const n, victim = 4, 0
	h := fdHarness(n)
	h.dets[1].Discovered(termdet.ExternalSlot) // survivor holds the graph open
	h.start()
	h.world.KillRank(victim)
	h.waitEpoch(t, victim, 1)
	h.dets[1].Completed(termdet.ExternalSlot)
	h.waitSurvivors(t, victim)
	if d := h.world.Deaths(); d != 1 {
		t.Fatalf("Deaths() = %d, want 1", d)
	}
}

func TestSendsToDeadRankDoNotBlockTermination(t *testing.T) {
	// Messages addressed to (or unacked toward) a dead rank must not wedge
	// the link layer or the termination wave: the death clears the
	// retransmit queue and the wave excludes the dead rank's traffic.
	const n, victim = 3, 2
	h := fdHarness(n)
	var handled atomic.Int64
	h.world.Proc(victim).Register(0, func(int, []byte) { handled.Add(1) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for k := 0; k < 5; k++ {
		h.world.Proc(0).Send(victim, 0, []byte("into the void"))
	}
	h.world.KillRank(victim)
	for k := 0; k < 5; k++ {
		h.world.Proc(0).Send(victim, 0, []byte("already dead"))
	}
	h.waitEpoch(t, victim, 1)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitSurvivors(t, victim)
}

func TestPruneNoticesAdvertiseDispatchCounts(t *testing.T) {
	// A receiver at local quiescence with an empty unacked queue
	// advertises its per-sender dispatch count; the sender's hook sees the
	// cumulative total.
	h := newHarness(2)
	var advertised atomic.Int64
	h.world.Proc(0).SetOnPrune(func(src int, n int64) {
		if src != 1 {
			t.Errorf("prune notice names src %d, want 1", src)
		}
		advertised.Store(n)
	})
	for i := 0; i < 2; i++ {
		h.world.Proc(i).EnablePruneNotices()
	}
	// The handler accounts a unit of local work per message (as the graph
	// layer does when an activation discovers a task): notices fire on the
	// quiescence transition after each batch is consumed.
	h.world.Proc(1).Register(0, func(int, []byte) {
		h.dets[1].Discovered(termdet.ExternalSlot)
		h.dets[1].Completed(termdet.ExternalSlot)
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	const sends = 3
	for k := 0; k < sends; k++ {
		h.world.Proc(0).Send(1, 0, []byte("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for advertised.Load() < sends {
		if time.Now().After(deadline) {
			t.Fatalf("advertised dispatch count stuck at %d, want %d", advertised.Load(), sends)
		}
		time.Sleep(time.Millisecond)
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}
