package comm_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/comm/tcptransport"
)

// TestDeliverNeverRunsInsideSend checks the Transport contract the receive
// path rests on: a transport never calls deliver from within Send. Each
// endpoint's deliver callback takes its endpoint's mutex — as deliverFrame
// takes the rank's receive lock — and answers a ping with a pong sent under
// it, while the pings go out with the sender's mutex held across Send, as
// post holds a link lock. A transport that delivered inside Send would make
// a goroutine take a mutex it already holds: the test then fails by timeout
// (leaving that goroutine behind) instead of hanging the suite.
func TestDeliverNeverRunsInsideSend(t *testing.T) {
	mem := func(t *testing.T) [2]comm.Transport {
		trs := comm.NewMemNetwork(2)
		return [2]comm.Transport{trs[0], trs[1]}
	}
	for _, tc := range []struct {
		name string
		pair func(*testing.T) [2]comm.Transport
	}{
		{"memory", mem},
		{"faults-over-memory", func(t *testing.T) [2]comm.Transport {
			trs := mem(t)
			for i, tr := range trs {
				trs[i] = comm.FaultWireOver(tr, comm.FaultPlan{Seed: uint64(i + 1), Reorder: 0.2, Delay: 0.2, MaxDelay: time.Millisecond})
			}
			return trs
		}},
		{"tcp", tcpTransportPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pings = 200
			const ping, pong = 1, 2
			trs := tc.pair(t)
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

// tcpTransportPair returns two unstarted loopback TCP transports, ranks 0
// and 1 of one world.
func tcpTransportPair(t *testing.T) [2]comm.Transport {
	t.Helper()
	var lns [2]net.Listener
	peers := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	var trs [2]comm.Transport
	for i := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Self: i, Peers: peers, Listener: lns[i]})
		if err != nil {
			t.Fatalf("tcptransport.New(%d): %v", i, err)
		}
		trs[i] = tr
	}
	return trs
}
