package layers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
	"gottg/internal/taskbench"
	"gottg/internal/termdet"
)

// frameLen is an empty comm wire frame: the 40-byte header every activation
// batch, ack and wave message carries.
const frameLen = 40

// replyTimeout bounds the wait for one reply; a probe that loses a message
// fails instead of hanging the benchmark.
const replyTimeout = 5 * time.Second

var errNoReply = errors.New("no reply within 5s")

// probeComm measures the in-process message layer between two started ranks:
// appending one 16-byte activation to a destination's batch buffer (the
// flush on size and the peer's dispatch included, amortized), and the round
// trip of an unbatched Send through both progress goroutines.
func probeComm(e Env) (map[string]float64, error) {
	const batched, single = 1, 2
	w := comm.NewWorld(2)
	defer w.Shutdown()
	p0, p1 := w.Proc(0), w.Proc(1)
	pong := make(chan struct{}, 1)
	nop := func(int, []byte) {}
	p0.RegisterBatched(batched, nop)
	p1.RegisterBatched(batched, nop)
	p0.Register(single, func(int, []byte) { pong <- struct{}{} })
	p1.Register(single, func(_ int, b []byte) { p1.Send(0, single, b) })
	// The detectors never see an idle worker, so no termination wave starts.
	p0.Start(termdet.New(1, true), func() {})
	p1.Start(termdet.New(1, true), func() {})

	var entry [16]byte
	appendNs := e.perCall("comm.batch_append", 0.5, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			p0.BatchEnd(1, append(p0.BatchBegin(1), entry[:]...))
		}
		p0.FlushBatches(comm.FlushIdle)
	})

	var lost bool
	payload := make([]byte, 16)
	rtt := e.perCall("comm.send_rtt", 0.5, 2_000, func(n int) {
		for i := 0; i < n && !lost; i++ {
			p0.Send(1, single, payload)
			select {
			case <-pong:
			case <-time.After(replyTimeout):
				lost = true
			}
		}
	})
	if lost {
		return nil, fmt.Errorf("comm ping-pong: %w", errNoReply)
	}
	return map[string]float64{"comm.batch_append_ns": appendNs, "comm.send_rtt_us": rtt / 1e3}, nil
}

// tcpPair is two tcptransport endpoints over loopback. Rank 1 echoes every
// frame while echo is set and counts it otherwise; rank 0 reports the
// sequence number each echoed frame starts with.
type tcpPair struct {
	tr    [2]*tcptransport.Transport
	pong  chan uint64
	seq   uint64
	echo  atomic.Bool
	count atomic.Int64
}

func newTCPPair() (*tcpPair, error) {
	p := &tcpPair{pong: make(chan uint64, 1)}
	p.echo.Store(true)
	lns, addrs, err := taskbench.LoopbackAddrs(2)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*tcpPair, error) {
		for _, ln := range lns { // a transport's Close closes its listener again, harmlessly
			ln.Close()
		}
		p.close()
		return nil, err
	}
	for i := range p.tr {
		tr, err := tcptransport.New(tcptransport.Config{Self: i, Peers: addrs, Listener: lns[i]})
		if err != nil {
			return fail(err)
		}
		p.tr[i] = tr
	}
	deliver := [2]func([]byte){
		func(f []byte) { p.pong <- binary.LittleEndian.Uint64(f) },
		func(f []byte) {
			if p.echo.Load() {
				p.tr[1].Send(0, f) // best effort, as the link layer uses it
			} else {
				p.count.Add(1)
			}
		},
	}
	for i, tr := range p.tr {
		if err := tr.Start(deliver[i], nil); err != nil {
			return fail(err)
		}
	}
	return p, nil
}

func (p *tcpPair) close() {
	for _, tr := range p.tr {
		if tr != nil {
			tr.Close()
		}
	}
}

// ping sends one frame 0 -> 1 and waits for its echo. The transport is
// best-effort (a frame sent while the connection is still being dialled may
// be dropped), so the first ping of a pair is sent again every 50 ms; the
// sequence number lets a late echo of an earlier copy be told from this one.
func (p *tcpPair) ping(retries int) error {
	p.seq++
	for try := 0; ; try++ {
		frame := make([]byte, frameLen) // Send takes ownership
		binary.LittleEndian.PutUint64(frame, p.seq)
		p.tr[0].Send(1, frame)
		timeout := replyTimeout
		if try < retries {
			timeout = 50 * time.Millisecond
		}
		timer := time.NewTimer(timeout)
		for waiting := true; waiting; {
			select {
			case got := <-p.pong:
				if got == p.seq {
					timer.Stop()
					return nil
				}
			case <-timer.C:
				waiting = false
			}
		}
		if try >= retries {
			return errNoReply
		}
	}
}

// probeTCP measures the socket transport alone, with 40-byte frames and no
// link layer above it: the frame round trip (what a halo exchange waits
// for), a one-way stream (what a coalesced shuffle is bounded by) with its
// system calls per frame, and the cost of bringing a pair up and down.
func probeTCP(e Env) (map[string]float64, error) {
	p, err := newTCPPair()
	if err != nil {
		return nil, fmt.Errorf("tcp pair: %w", err)
	}
	defer p.close()
	if err := p.ping(20); err != nil {
		return nil, fmt.Errorf("tcp first ping: %w", err)
	}

	var pingErr error
	rtt := e.perCall("tcptransport.rtt", 0.4, 500, func(n int) {
		for i := 0; i < n && pingErr == nil; i++ {
			pingErr = p.ping(0)
		}
	})
	if pingErr != nil {
		return nil, fmt.Errorf("tcp ping-pong: %w", pingErr)
	}

	// One-way stream: a full outbox refuses the frame, so the sender yields
	// and offers it again — closed loop on the transport's own backpressure.
	p.echo.Store(false)
	var sys0, sys1 uint64
	var sysOK, stalled bool
	var frames int64
	perFrame := e.perCall("tcptransport.stream", 0.3, 10_000, func(n int) {
		if stalled {
			return
		}
		s0, ok0 := e.Syscalls()
		base := p.count.Load()
		for i := 0; i < n; i++ {
			frame := make([]byte, frameLen) // Send takes ownership
			for p.tr[0].Send(1, frame) != nil {
				runtime.Gosched()
			}
		}
		deadline := time.Now().Add(replyTimeout)
		for p.count.Load() < base+int64(n) {
			if time.Now().After(deadline) {
				stalled = true
				return
			}
			runtime.Gosched()
		}
		s1, ok1 := e.Syscalls()
		sys0, sys1, sysOK = sys0+s0, sys1+s1, ok0 && ok1
		frames += int64(n)
	})
	if stalled {
		return nil, fmt.Errorf("tcp stream: frames lost on an idle loopback")
	}
	out := map[string]float64{
		"tcptransport.rtt_us":              rtt / 1e3,
		"tcptransport.stream_frames_per_s": 1e9 / perFrame,
	}
	if sysOK {
		out["tcptransport.syscalls_per_frame"] = float64(sys1-sys0) / float64(frames)
	}

	// Bring-up and teardown of a fresh pair, first frame included.
	var upErr error
	up := e.perCall("tcptransport.bringup", 0.3, 1, func(n int) {
		for i := 0; i < n && upErr == nil; i++ {
			var q *tcpPair
			if q, upErr = newTCPPair(); upErr == nil {
				upErr = q.ping(20)
				q.close()
			}
		}
	})
	if upErr != nil {
		return nil, fmt.Errorf("tcp bring-up: %w", upErr)
	}
	out["tcptransport.bringup_ms"] = up / 1e6
	return out, nil
}

// probeNet is the message-passing floor under tcptransport: a raw loopback
// socket echoing one length-prefixed 40-byte frame.
func probeNet(e Env) (map[string]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 4+frameLen)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				served <- nil // the client closed: the probe is over
				return
			}
			if _, err := c.Write(buf); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4+frameLen)
	var ioErr error
	rtt := e.perCall("net.rtt", 1, 500, func(n int) {
		c.SetDeadline(time.Now().Add(replyTimeout + time.Duration(n)*time.Millisecond))
		for i := 0; i < n && ioErr == nil; i++ {
			if _, ioErr = c.Write(buf); ioErr == nil {
				_, ioErr = io.ReadFull(c, buf)
			}
		}
	})
	c.Close()
	if err := <-served; ioErr == nil {
		ioErr = err
	}
	if ioErr != nil {
		return nil, fmt.Errorf("raw loopback echo: %w", ioErr)
	}
	return map[string]float64{"net.rtt_us": rtt / 1e3}, nil
}
