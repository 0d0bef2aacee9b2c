package comm

import (
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/termdet"
)

func TestRTOEstimatorUnit(t *testing.T) {
	var l sendLink
	floor := 2 * time.Millisecond

	// No samples: the floor rules.
	if got := l.rto(floor); got != floor {
		t.Fatalf("rto with no samples = %v, want floor %v", got, floor)
	}

	// First sample initializes srtt and rttvar = srtt/2.
	l.observeRTT(10 * time.Millisecond)
	if l.srtt != int64(10*time.Millisecond) || l.rttvar != int64(5*time.Millisecond) {
		t.Fatalf("after first sample: srtt=%v rttvar=%v", time.Duration(l.srtt), time.Duration(l.rttvar))
	}
	// srtt + 4*rttvar = 10ms + 20ms = 30ms.
	if got := l.rto(floor); got != 30*time.Millisecond {
		t.Fatalf("rto after first sample = %v, want 30ms", got)
	}

	// Repeated identical samples collapse the variance; the estimate
	// converges toward srtt and eventually the floor is the binding bound
	// for small RTTs.
	var tiny sendLink
	for i := 0; i < 200; i++ {
		tiny.observeRTT(100 * time.Microsecond)
	}
	if got := tiny.rto(floor); got != floor {
		t.Fatalf("fast-wire rto = %v, want floored at %v", got, floor)
	}

	// Huge samples are capped.
	var slow sendLink
	slow.observeRTT(10 * time.Second)
	if got := slow.rto(floor); got != maxLinkRTO {
		t.Fatalf("rto after 10s sample = %v, want cap %v", got, maxLinkRTO)
	}

	// Garbage samples are ignored.
	var g sendLink
	g.observeRTT(0)
	g.observeRTT(-time.Millisecond)
	if g.srtt != 0 {
		t.Fatalf("non-positive samples must be ignored, srtt=%v", time.Duration(g.srtt))
	}
}

func TestRTOStaysAtFloorOnCleanWire(t *testing.T) {
	h := newHarness(2)
	// A 50ms floor towers over any in-process ack latency (even under the
	// race detector), so the adaptive estimate must stay clamped to it.
	h.world.SetRetransmitTimeout(50 * time.Millisecond)
	var handled atomic.Int64
	h.world.Proc(1).Register(0, func(src int, payload []byte) { handled.Add(1) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	for i := 0; i < 200; i++ {
		h.world.Proc(0).Send(1, 0, []byte{byte(i)})
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
	// In-process ack latencies are microseconds; the adaptive estimate must
	// stay clamped at the configured floor, preserving historic behavior.
	if got, want := h.world.Proc(0).LinkRTO(1), h.world.rto; got != want {
		t.Fatalf("clean-wire LinkRTO = %v, want floor %v", got, want)
	}
}

func TestRTOAdaptsToSlowLink(t *testing.T) {
	// Delay every transmission (data and acks) by up to 4ms against a 2ms
	// floor. Ack latencies straddle the floor, so Karn-filtered samples get
	// through, and SRTT + 4*RTTVAR must rise above the static floor — the
	// retransmission timer then tracks the link instead of blind-firing.
	h := newHarness(2)
	h.world.SetFaultPlan(FaultPlan{Seed: 5, Delay: 1.0, MaxDelay: 4 * time.Millisecond})
	var handled atomic.Int64
	h.world.Proc(1).Register(0, func(src int, payload []byte) { handled.Add(1) })
	h.dets[0].Discovered(termdet.ExternalSlot)
	h.start()
	floor := h.world.rto
	deadline := time.Now().Add(15 * time.Second)
	adapted := false
	for i := 0; !adapted && time.Now().Before(deadline); i++ {
		h.world.Proc(0).Send(1, 0, []byte{byte(i)})
		time.Sleep(500 * time.Microsecond)
		adapted = h.world.Proc(0).LinkRTO(1) > floor
	}
	if !adapted {
		t.Fatalf("LinkRTO never rose above the %v floor on a ~4ms-delay link (handled=%d)",
			floor, handled.Load())
	}
	h.dets[0].Completed(termdet.ExternalSlot)
	h.waitAll(t)
}
