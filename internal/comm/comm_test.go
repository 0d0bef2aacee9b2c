package comm

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

// harness builds a world where each rank's single "worker" is permanently
// idle and all activity happens in message handlers on the progress
// goroutine (counted through ExternalSlot pending actions implicitly by the
// dispatch ordering).
type harness struct {
	world *World
	dets  []*termdet.Detector
	done  []chan struct{}
}

func newHarness(n int) *harness {
	h := &harness{
		world: NewWorld(n),
		dets:  make([]*termdet.Detector, n),
		done:  make([]chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		h.dets[i] = termdet.New(1, false)
		h.done[i] = make(chan struct{})
	}
	return h
}

// start launches all ranks. Rank 0 must already hold its startup token
// (Discovered(ExternalSlot)) if it intends to seed work.
func (h *harness) start() {
	for i := range h.dets {
		i := i
		h.world.Proc(i).Start(h.dets[i], func() { close(h.done[i]) })
		h.dets[i].EnterIdle(0) // the lone worker idles immediately
	}
}

func (h *harness) waitAll(t *testing.T) {
	t.Helper()
	for i, d := range h.done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never saw termination", i)
		}
	}
	h.world.Shutdown()
}

func TestTerminationWithNoWork(t *testing.T) {
	h := newHarness(4)
	h.dets[0].Discovered(termdet.ExternalSlot) // startup token
	h.start()
	h.dets[0].Completed(termdet.ExternalSlot) // nothing to seed
	h.waitAll(t)
	if r := h.world.Proc(0).Rounds(); r < 2 {
		t.Fatalf("termination after %d rounds; the wave requires >= 2", r)
	}
}

func TestRingRelay(t *testing.T) {
	const n = 4
	const hops = 100
	h := newHarness(n)
	var handled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			left := binary.LittleEndian.Uint32(payload)
			if left == 0 {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], left-1)
			h.world.Proc(i).Send((i+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], hops)
	h.world.Proc(0).Send(1, 0, buf[:])
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if got := handled.Load(); got != hops+1 {
		t.Fatalf("handled %d messages, want %d", got, hops+1)
	}
}

func TestFanOutFanIn(t *testing.T) {
	// Rank 0 scatters one message to every rank; each responds; rank 0
	// counts responses. Termination must only occur after all responses.
	const n = 6
	h := newHarness(n)
	var responses atomic.Int64
	for i := 1; i < n; i++ {
		i := i
		h.world.Proc(i).Register(1, func(src int, payload []byte) {
			h.world.Proc(i).Send(0, 2, payload)
		})
	}
	h.world.Proc(0).Register(2, func(src int, payload []byte) {
		responses.Add(1)
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for i := 1; i < n; i++ {
		h.world.Proc(0).Send(i, 1, []byte{byte(i)})
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if got := responses.Load(); got != n-1 {
		t.Fatalf("responses = %d, want %d", got, n-1)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	const n = 2
	const msgs = 500
	h := newHarness(n)
	var last int32 = -1
	ooo := make(chan struct{}, 1)
	h.world.Proc(1).Register(0, func(src int, payload []byte) {
		v := int32(binary.LittleEndian.Uint32(payload))
		if v != last+1 {
			select {
			case ooo <- struct{}{}:
			default:
			}
		}
		last = v
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for i := 0; i < msgs; i++ {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(i))
		h.world.Proc(0).Send(1, 0, buf[:])
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	select {
	case <-ooo:
		t.Fatal("messages from a single sender were reordered")
	default:
	}
	if last != msgs-1 {
		t.Fatalf("last = %d, want %d", last, msgs-1)
	}
}

func TestReservedTagPanics(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a reserved tag did not panic")
		}
	}()
	w.Proc(0).Register(tagProbe, func(int, []byte) {})
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(3)
	if w.Size() != 3 {
		t.Fatalf("Size = %d", w.Size())
	}
	if w.Proc(2).Rank() != 2 {
		t.Fatalf("Rank = %d", w.Proc(2).Rank())
	}
	if w.Proc(1).Size() != 3 {
		t.Fatalf("proc Size = %d", w.Proc(1).Size())
	}
}

func TestApplicationSendWithReservedTagPanics(t *testing.T) {
	h := newHarness(2)
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send with negative tag did not panic")
			}
		}()
		h.world.Proc(0).Send(1, tagProbe, nil)
	}()
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}

func TestUnknownTagInvokesOnErrorAndTerminates(t *testing.T) {
	// A message for an unregistered tag is remote-supplied input: it must
	// not take the receiving rank down. Instead the OnError
	// hook fires, the message is dropped, and — because the drop is still
	// counted as a receipt — the termination wave completes normally.
	h := newHarness(2)
	errs := make(chan error, 1)
	h.world.Proc(1).SetOnError(func(err error) {
		select {
		case errs <- err:
		default:
		}
	})
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.world.Proc(0).Send(1, 42, []byte("who handles this?"))
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("OnError invoked with nil error")
		}
	default:
		t.Fatal("OnError hook was not invoked for an unknown tag")
	}
}

func TestUnknownTagWithoutHookStillTerminates(t *testing.T) {
	// Even without an OnError hook, an unknown tag must only drop the
	// message (counted), never panic the receiving rank or stall the
	// wave.
	h := newHarness(2)
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	h.world.Proc(0).Send(1, 99, nil)
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestRandomScatterChains(t *testing.T) {
	// Stress the wave: every rank forwards messages to pseudo-random peers
	// with decrementing hop budgets; termination must fire exactly when all
	// chains die out, whatever the interleaving.
	const n = 5
	const seeds = 40
	h := newHarness(n)
	var handled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		h.world.Proc(i).Register(0, func(src int, payload []byte) {
			handled.Add(1)
			hops := binary.LittleEndian.Uint32(payload)
			if hops == 0 {
				return
			}
			// Split: forward to two pseudo-random peers with half budget.
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], hops/2)
			h.world.Proc(i).Send(int(hops)%n, 0, buf[:])
			h.world.Proc(i).Send(int(hops+1)%n, 0, buf[:])
		})
	}
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	expected := int64(0)
	var count func(hops uint32) int64
	count = func(hops uint32) int64 {
		if hops == 0 {
			return 1
		}
		return 1 + 2*count(hops/2)
	}
	for s := 0; s < seeds; s++ {
		hops := uint32(s % 13)
		expected += count(hops)
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], hops)
		h.world.Proc(0).Send(s%n, 0, buf[:])
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	if handled.Load() != expected {
		t.Fatalf("handled %d messages, want %d", handled.Load(), expected)
	}
}
