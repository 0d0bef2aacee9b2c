package comm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// TestShutdownCancelsDelayedDeliveries closes a world while delayed-fault
// timers are still pending. Shutdown must stop them (no deliveries into
// stopped ranks, no timers outliving the world) — this is the regression
// test for the time.AfterFunc leak. Run under -race.
func TestShutdownCancelsDelayedDeliveries(t *testing.T) {
	h := newHarness(2)
	// Every cross-rank transmission is delayed up to 200ms, so at shutdown
	// time essentially all of the burst below is held on its link.
	h.world.SetFaultPlan(FaultPlan{Seed: 7, Delay: 1.0, MaxDelay: 200 * time.Millisecond})
	var handled atomic.Int64
	h.world.Proc(1).Register(0, func(src int, payload []byte) { handled.Add(1) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for i := 0; i < 64; i++ {
		h.world.Proc(0).Send(1, 0, []byte{byte(i)})
	}
	h.world.Shutdown()
	afterShutdown := handled.Load()

	for _, p := range h.world.local {
		f := p.tr.(*faultWire)
		f.mu.Lock()
		pending := len(f.held)
		f.mu.Unlock()
		if pending != 0 {
			t.Fatalf("rank %d: %d delayed frames still held after Shutdown", p.rank, pending)
		}
	}

	// Any timer that raced Stop and fired anyway must see the closed wire
	// and deliver nothing.
	time.Sleep(250 * time.Millisecond)
	if got := handled.Load(); got != afterShutdown {
		t.Fatalf("handler ran %d more times after Shutdown", got-afterShutdown)
	}
}

// TestShutdownIdempotentWithUnstartedRanks covers the two Shutdown hangs:
// calling it twice, and calling it when some ranks never had Start called
// (they have no heartbeat timer and an idle endpoint, so stopping them must
// not wait on anything).
func TestShutdownIdempotentWithUnstartedRanks(t *testing.T) {
	w := NewWorld(3)
	det := termdet.New(1, false)
	w.Proc(0).Start(det, func() {})
	det.EnterIdle(0)
	done := make(chan struct{})
	go func() {
		w.Shutdown()
		w.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a world with unstarted ranks")
	}
}

// TestWorldMetricsAndTracing runs the ring relay over a wire that cuts its
// links with the observability layer on and checks the counters and the
// Chrome event log.
func TestWorldMetricsAndTracing(t *testing.T) {
	const n = 3
	const hops = 90
	h := newHarness(n)
	h.world.SetFaultPlan(FaultPlan{Seed: 42, Drop: 0.2})
	reg := h.world.EnableMetrics()
	if again := h.world.EnableMetrics(); again != reg {
		t.Fatal("EnableMetrics is not idempotent")
	}
	h.world.EnableTracing()
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).Register(0, func(src int, payload []byte) {
			if payload[0] == 0 {
				return
			}
			h.world.Proc(i).Send((i+1)%n, 0, []byte{payload[0] - 1})
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.world.Proc(0).Send(1, 0, []byte{hops})
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)

	snap := h.world.MetricsSnapshot()
	if got := snap.Counters["comm.msgs.sent"]; got != hops+1 {
		t.Fatalf("comm.msgs.sent = %d, want %d", got, hops+1)
	}
	if got := snap.Counters["comm.msgs.recvd"]; got != hops+1 {
		t.Fatalf("comm.msgs.recvd = %d, want %d", got, hops+1)
	}
	if got := snap.Counters["comm.bytes.sent"]; got != hops+1 {
		t.Fatalf("comm.bytes.sent = %d, want %d (1-byte payloads)", got, hops+1)
	}
	if snap.Counters["comm.fault.dropped"] == 0 {
		t.Fatal("a 20-percent-drop wire recorded no dropped transmissions")
	}
	if snap.Counters["comm.retransmits"] == 0 {
		t.Fatal("dropped transmissions were never resent")
	}
	if snap.Gauges["comm.rounds"] < 2 {
		t.Fatalf("comm.rounds = %d, want >= 2", snap.Gauges["comm.rounds"])
	}

	evs := h.world.ChromeEvents()
	var sends, recvBegins, recvEnds int
	for _, e := range evs {
		switch e.Phase {
		case "i":
			sends++
		case "b":
			recvBegins++
		case "e":
			recvEnds++
		}
		if e.Tid != commTraceTid {
			t.Fatalf("comm event on tid %d, want %d", e.Tid, commTraceTid)
		}
	}
	if sends != hops+1 || recvBegins != hops+1 || recvEnds != hops+1 {
		t.Fatalf("trace has %d sends / %d+%d recv begin/end pairs, want %d each",
			sends, recvBegins, recvEnds, hops+1)
	}
}

// TestStealTwoPhaseHoldsTerminationUntilInjection drives the full two-phase
// steal protocol over scripted hooks and pins the wave invariant the
// Drain/Shutdown ordering relies on: every steal message is sent/received
// counted, so the termination wave cannot balance while a donation is
// anywhere in flight — by the time any rank terminates (and Drain may run),
// the stolen tasks are already injected at the thief. Run under -race.
func TestStealTwoPhaseHoldsTerminationUntilInjection(t *testing.T) {
	h := newHarness(2)
	thief, victim := h.world.Proc(0), h.world.Proc(1)

	recs := [][]byte{{1}, {2}, {3}}
	var committed, injected atomic.Bool
	victim.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Fill: func(who, max int) (uint64, [][]byte) {
			if who != 0 {
				t.Errorf("Fill for thief %d, want 0", who)
			}
			return 7, recs
		},
		Commit: func(who int, id uint64) bool {
			if id != 7 {
				t.Errorf("Commit id %d, want 7", id)
			}
			committed.Store(true)
			return true
		},
		Cancel: func(who int, id uint64) {
			t.Errorf("donation %d cancelled; want commit", id)
		},
	})
	thief.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Inject: func(v int, got [][]byte) {
			if v != 1 || len(got) != 3 || got[0][0] != 1 || got[2][0] != 3 {
				t.Errorf("Inject from rank %d with %d recs, want 3 from rank 1", v, len(got))
			}
			select {
			case <-h.done[0]:
				t.Error("thief terminated before the stolen tasks were injected")
			default:
			}
			select {
			case <-h.done[1]:
				t.Error("victim terminated before the stolen tasks were injected")
			default:
			}
			injected.Store(true)
		},
	})

	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	thief.RequestSteal(1, 8)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)

	if !committed.Load() || !injected.Load() {
		t.Fatalf("committed=%v injected=%v, want both", committed.Load(), injected.Load())
	}
	w := h.world
	if w.StealReqs() != 1 || w.Steals() != 1 || w.StealTasks() != 3 || w.StealAborts() != 0 {
		t.Fatalf("counters reqs=%d steals=%d tasks=%d aborts=%d, want 1/1/3/0",
			w.StealReqs(), w.Steals(), w.StealTasks(), w.StealAborts())
	}
}

// TestStealRespDuringDrainRequeuesAtVictim is the drain-ordering regression
// test: a steal response that arrives while the thief is already draining
// must be declined so the victim re-queues the tasks — a donation completes
// or goes back to the victim, never into the void. The drain begins
// mid-protocol (the victim's Fill flips the flag before the response leaves,
// so the response is guaranteed to find a draining thief), modelling an
// abort racing the steal. Run under -race.
func TestStealRespDuringDrainRequeuesAtVictim(t *testing.T) {
	h := newHarness(2)
	thief, victim := h.world.Proc(0), h.world.Proc(1)

	var draining, cancelled, doneOK atomic.Bool
	var doneCalls atomic.Int64
	victim.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Fill: func(who, max int) (uint64, [][]byte) {
			draining.Store(true) // thief begins draining while the resp is in flight
			return 9, [][]byte{{1}, {2}}
		},
		Commit: func(who int, id uint64) bool {
			t.Errorf("donation %d committed to a draining thief", id)
			return false
		},
		Cancel: func(who int, id uint64) {
			if id != 9 {
				t.Errorf("Cancel id %d, want 9", id)
			}
			cancelled.Store(true)
		},
	})
	thief.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Aborting: draining.Load,
		Inject: func(v int, recs [][]byte) {
			t.Error("stolen tasks injected at a draining thief")
		},
		Done: func(victim int, ok bool) {
			doneOK.Store(ok)
			doneCalls.Add(1)
		},
	})

	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	thief.RequestSteal(1, 4)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)

	if !cancelled.Load() {
		t.Fatal("declined donation was never re-queued at the victim")
	}
	if doneCalls.Load() != 1 || doneOK.Load() {
		t.Fatalf("thief Done calls=%d ok=%v, want one failed attempt", doneCalls.Load(), doneOK.Load())
	}
	w := h.world
	if w.Steals() != 0 || w.StealTasks() != 0 || w.StealAborts() != 1 {
		t.Fatalf("counters steals=%d tasks=%d aborts=%d, want 0/0/1",
			w.Steals(), w.StealTasks(), w.StealAborts())
	}
}

// TestStealShutdownRaceNeverDoubleRuns hammers the steal protocol while the
// thief begins draining and the world is shut down underneath the traffic.
// Whatever the interleaving — responses in timers, accepts racing the wire
// close, commits lost to the closed wire — a donation must never end up BOTH
// injected at the thief and re-queued at the victim (double execution), and
// Shutdown must return promptly with steal control messages in flight. The
// delay fault plan pushes transmissions into timers (the windows Shutdown
// must close). Run under -race.
func TestStealShutdownRaceNeverDoubleRuns(t *testing.T) {
	h := newHarness(2)
	h.world.SetFaultPlan(FaultPlan{Seed: 11, Delay: 0.5, MaxDelay: 2 * time.Millisecond})
	thief, victim := h.world.Proc(0), h.world.Proc(1)

	type donation struct{ cancelled, committed, injected bool }
	var mu sync.Mutex
	donations := map[uint64]*donation{}
	var nextID uint64
	var draining atomic.Bool

	victim.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Fill: func(who, max int) (uint64, [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			nextID++
			donations[nextID] = &donation{}
			var rec [8]byte
			binary.LittleEndian.PutUint64(rec[:], nextID)
			return nextID, [][]byte{rec[:]}
		},
		Commit: func(who int, id uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			donations[id].committed = true
			return true
		},
		Cancel: func(who int, id uint64) {
			mu.Lock()
			defer mu.Unlock()
			donations[id].cancelled = true
		},
	})
	thief.SetStealHooks(&StealHooks{
		TwoPhase: true,
		Aborting: draining.Load,
		Inject: func(v int, recs [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range recs {
				donations[binary.LittleEndian.Uint64(r)].injected = true
			}
		},
	})

	h.dets[0].Discovered(termdet.ExternalSlot) // held: termination never preempts the race
	h.start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			thief.RequestSteal(1, 4)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	time.Sleep(3 * time.Millisecond)
	draining.Store(true) // thief starts draining with steals in flight
	time.Sleep(time.Millisecond)
	shutdownDone := make(chan struct{})
	go func() { h.world.Shutdown(); close(shutdownDone) }()
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung with steal traffic in flight")
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(donations) == 0 {
		t.Fatal("race produced no donations; the test exercised nothing")
	}
	injected, cancelled, retained := 0, 0, 0
	for id, d := range donations {
		switch {
		case d.injected && d.cancelled:
			t.Errorf("donation %d both injected at the thief and re-queued at the victim", id)
		case d.injected:
			injected++
		case d.cancelled:
			cancelled++
		default:
			// Neither: the response, accept, or commit died with the wire. The
			// victim still holds the donation record (two-phase retention), so
			// the tasks are re-queueable, never dropped.
			retained++
		}
	}
	t.Logf("%d donations: %d injected, %d cancelled, %d retained at the victim",
		len(donations), injected, cancelled, retained)
}
