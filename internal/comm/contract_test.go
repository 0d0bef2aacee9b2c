package comm_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
)

// transportCase is one Transport the contract tests run over: endpoints
// returns n unstarted endpoints, ranks 0..n-1 of one world, that never cut
// a link, and cutting, when the transport can be cut, n endpoints whose
// seeded faults cut links now and then.
type transportCase struct {
	name      string
	endpoints func(t *testing.T, n int) []comm.Transport
	cutting   func(t *testing.T, n int) []comm.Transport
}

// transportCases lists every Transport the contract covers: memory, the
// fault decorator over memory (it delays frames, and its drops cut links),
// and loopback TCP (its socket faults kill connections and tear writes).
func transportCases() []transportCase {
	mem := func(_ *testing.T, n int) []comm.Transport {
		trs := make([]comm.Transport, n)
		for i, tr := range comm.NewMemNetwork(n) {
			trs[i] = tr
		}
		return trs
	}
	faulty := func(drop float64) func(t *testing.T, n int) []comm.Transport {
		return func(t *testing.T, n int) []comm.Transport {
			trs := mem(t, n)
			for i, tr := range trs {
				trs[i] = comm.FaultWireOver(tr, comm.FaultPlan{Seed: uint64(i + 1), Drop: drop, Delay: 0.2, MaxDelay: time.Millisecond})
			}
			return trs
		}
	}
	return []transportCase{
		{"memory", mem, nil},
		{"faults-over-memory", faulty(0), faulty(0.02)},
		{"tcp", func(t *testing.T, n int) []comm.Transport { return tcpTransports(t, n, nil) },
			func(t *testing.T, n int) []comm.Transport {
				return tcpTransports(t, n, &tcptransport.FaultConfig{ConnKillProb: 0.003, TornWriteProb: 0.003})
			}},
	}
}

// TestDeliverNeverRunsInsideSend checks the Transport contract the receive
// path rests on: a transport never calls deliver from within Send. Each
// endpoint's deliver callback takes its endpoint's mutex — as deliverFrame
// takes the rank's receive lock — and answers a ping with a pong sent under
// it, while the pings go out with the sender's mutex held across Send, as
// post holds a link lock. A transport that delivered inside Send would make
// a goroutine take a mutex it already holds: the test then fails by timeout
// (leaving that goroutine behind) instead of hanging the suite.
func TestDeliverNeverRunsInsideSend(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			const pings = 200
			const ping, pong = 1, 2
			trs := tc.endpoints(t, 2)
			var mu [2]sync.Mutex
			pongs := make(chan struct{}, pings)
			for i, tr := range trs {
				i := i
				deliver := func(f []byte) {
					mu[i].Lock()
					defer mu[i].Unlock()
					if f[8] == ping {
						trs[i].Send(1-i, wireFrame(int32(i), 0, pong, 0, 0, 0, nil))
					} else {
						pongs <- struct{}{}
					}
				}
				if err := tr.Start(deliver, nil); err != nil {
					t.Fatalf("Start(%d): %v", i, err)
				}
			}
			go func() {
				for k := 0; k < pings; k++ {
					mu[0].Lock()
					trs[0].Send(1, wireFrame(0, 0, ping, 0, 0, int64(k+1), nil))
					mu[0].Unlock()
				}
			}()
			timeout := time.After(10 * time.Second)
			for k := 0; k < pings; k++ {
				select {
				case <-pongs:
				case <-timeout:
					t.Fatalf("%d of %d pongs after 10s: the transport delivers inside Send", k, pings)
				}
			}
			for _, tr := range trs {
				tr.Close()
			}
		})
	}
}

// TestPollersAndDeliveryExactlyOnce checks Poll against the transport's own
// delivery goroutines: two senders stream sequenced frames to one endpoint
// that several goroutines Poll back to back, as idle workers do. Every frame
// is delivered exactly once, never while another frame of its sender is
// being delivered, and in its sender's order. The senders go on past perSender frames until the pollers have
// delivered some. Once all arrived, Poll on the drained endpoint returns 0
// at once.
func TestPollersAndDeliveryExactlyOnce(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			const senders, pollers, perSender = 2, 3, 2000
			trs := tc.endpoints(t, senders+1)
			var (
				mu       sync.Mutex
				seen     [senders + 1]map[int64]bool
				last     [senders + 1]int64
				busy     [senders + 1]atomic.Bool
				bad      []string
				received atomic.Int64
			)
			for s := range seen {
				seen[s] = map[int64]bool{}
			}
			deliver := func(f []byte) {
				src := int(binary.LittleEndian.Uint32(f[0:]))
				seq := int64(binary.LittleEndian.Uint64(f[32:]))
				if !busy[src].CompareAndSwap(false, true) {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("sender %d: overlapping deliveries", src))
					mu.Unlock()
				}
				mu.Lock()
				switch {
				case seen[src][seq]:
					bad = append(bad, fmt.Sprintf("sender %d: frame %d delivered twice", src, seq))
				case seq != last[src]+1:
					bad = append(bad, fmt.Sprintf("sender %d: frame %d after %d", src, seq, last[src]))
				}
				seen[src][seq], last[src] = true, seq
				mu.Unlock()
				busy[src].Store(false)
				received.Add(1)
			}
			for i, tr := range trs {
				if err := tr.Start(deliver, nil); err != nil {
					t.Fatalf("Start(%d): %v", i, err)
				}
			}
			var quit atomic.Bool
			var polled atomic.Int64
			var pwg sync.WaitGroup
			for i := 0; i < pollers; i++ {
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					for !quit.Load() {
						polled.Add(int64(trs[0].Poll()))
						runtime.Gosched()
					}
				}()
			}
			var swg sync.WaitGroup
			var sent atomic.Int64
			giveUp := time.Now().Add(20 * time.Second)
			for src := 1; src <= senders; src++ {
				swg.Add(1)
				go func(src int) {
					defer swg.Done()
					for seq := int64(1); seq <= perSender || polled.Load() == 0 && time.Now().Before(giveUp); seq++ {
						f := wireFrame(int32(src), 0, 0, 0, 0, seq, nil)
						for trs[src].Send(0, f) != nil { // tcp: not connected yet, or a full outbox
							time.Sleep(time.Millisecond)
						}
						sent.Add(1)
						if seq%64 == 0 {
							time.Sleep(50 * time.Microsecond) // let some frames arrive alone
						}
					}
				}(src)
			}
			swg.Wait()
			for deadline := time.Now().Add(30 * time.Second); received.Load() < sent.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames delivered after 30s", received.Load(), sent.Load())
				}
			}
			quit.Store(true)
			pwg.Wait()

			returned := make(chan time.Duration, 1)
			go func() {
				start := time.Now()
				for i := 0; i < 100; i++ {
					if n := trs[0].Poll(); n != 0 {
						t.Errorf("Poll on a drained endpoint delivered %d frames", n)
					}
				}
				returned <- time.Since(start)
			}()
			select {
			case d := <-returned:
				t.Logf("100 empty polls took %v", d)
			case <-time.After(5 * time.Second):
				t.Fatal("Poll waited on an empty endpoint")
			}
			for _, tr := range trs {
				tr.Close()
			}

			mu.Lock()
			defer mu.Unlock()
			if len(bad) != 0 {
				t.Fatalf("%d bad deliveries, first: %s", len(bad), bad[0])
			}
			if got := received.Load(); got != sent.Load() {
				t.Fatalf("delivered %d frames, want %d", got, sent.Load())
			}
			if polled.Load() == 0 {
				t.Fatalf("the pollers delivered none of %d frames", received.Load())
			}
			t.Logf("pollers delivered %d of %d frames", polled.Load(), received.Load())
		})
	}
}

// tcpTransports returns n unstarted loopback TCP transports, ranks 0..n-1
// of one world, each with its own seed of fault when fault is not nil.
func tcpTransports(t *testing.T, n int, fault *tcptransport.FaultConfig) []comm.Transport {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	trs := make([]comm.Transport, n)
	for i := range trs {
		cfg := tcptransport.Config{Self: i, Peers: peers, Listener: lns[i]}
		if fault != nil {
			f := *fault
			f.Seed = uint64(i + 1)
			cfg.Fault = &f
		}
		tr, err := tcptransport.New(cfg)
		if err != nil {
			t.Fatalf("tcptransport.New(%d): %v", i, err)
		}
		trs[i] = tr
	}
	return trs
}
