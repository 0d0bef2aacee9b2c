// Package obs surfaces the repo's observability substrate to the outside
// world: a Prometheus text-exposition writer for metrics.Registry snapshots
// and an opt-in HTTP endpoint (Serve) for live mid-run inspection — the
// merged metrics in Prometheus and JSON form plus net/http/pprof. ServeCluster
// is the rank-0 variant backed by the telemetry plane: it additionally serves
// the merged cluster model (/cluster.json) and rank-labelled exposition.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"gottg/internal/metrics"
)

// SnapshotFunc returns a point-in-time metrics snapshot. Registry.Snapshot
// and the graph/world MetricsSnapshot methods satisfy it directly.
type SnapshotFunc func() metrics.Snapshot

// Merge combines snapshots from independent registries (e.g. a graph's
// runtime registry and the comm world's wire registry). Names collide only
// if two sources export the same metric; counters are summed, histograms
// merge bucket-wise (counts, sums, and each log2 bucket add), and gauges
// take the later source (a level has no meaningful cross-registry sum).
func Merge(snaps ...metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]metrics.HistSnapshot{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			h := out.Histograms[k]
			h.Count += v.Count
			h.Sum += v.Sum
			for i := range h.Buckets {
				h.Buckets[i] += v.Buckets[i]
			}
			out.Histograms[k] = h
		}
	}
	return out
}

// promName maps a registry metric name onto the Prometheus naming grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and every other foreign rune become
// underscores, and a leading digit is prefixed.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// helpText holds `# HELP` strings for the metrics the runtime registers;
// names missing here fall back to a generic line so every family still
// carries HELP.
var helpText = map[string]string{
	"rt.task.executed":      "tasks executed by the runtime",
	"rt.task.ns":            "per-task execution time in nanoseconds",
	"rt.sched.push":         "tasks pushed onto worker deques",
	"rt.sched.pop":          "tasks popped from the owner's deque",
	"rt.sched.steal":        "tasks stolen between workers",
	"rt.sched.inject":       "tasks injected through the global queue",
	"rt.sched.park":         "worker park episodes",
	"termdet.pending":       "tasks pending per the termination detector",
	"termdet.wave_restarts": "four-counter termination waves restarted",
	"comm.msgs.sent":        "application messages sent",
	"comm.msgs.recvd":       "application messages dispatched to handlers",
	"comm.bytes.sent":       "application payload bytes sent",
	"comm.bytes.recvd":      "application payload bytes dispatched",
	"comm.retransmits":      "link-layer frames retransmitted",
	"comm.acks.sent":        "link-layer acknowledgements posted",
	"comm.rank_deaths":      "ranks confirmed dead by the failure detector",
	"comm.steal_reqs":       "inter-rank steal requests issued",
	"comm.steals":           "inter-rank steals completed",
	"comm.steal_tasks":      "tasks migrated by inter-rank stealing",
	"comm.telemetry.frames": "telemetry-plane interval frames shipped to rank 0",
	"comm.telemetry.bytes":  "telemetry-plane payload bytes shipped to rank 0",
}

// helpFor returns the HELP string for a registry metric name.
func helpFor(name string) string {
	if h, ok := helpText[name]; ok {
		return h
	}
	return "gottg metric " + name
}

// labelSuffix renders a sorted {k="v",...} label set ("" when empty).
func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// promFamily renders one metric family (HELP+TYPE header plus the samples of
// one labelled snapshot) into b. The header is written only when withHeader
// is set, so cluster exposition can emit it once above many ranks' series.
func promFamily(b *strings.Builder, name string, snap metrics.Snapshot, labels map[string]string, withHeader bool) {
	n := promName(name)
	ls := labelSuffix(labels)
	if v, ok := snap.Counters[name]; ok {
		if withHeader {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", n, helpFor(name), n)
		}
		fmt.Fprintf(b, "%s%s %d\n", n, ls, v)
		return
	}
	if v, ok := snap.Gauges[name]; ok {
		if withHeader {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", n, helpFor(name), n)
		}
		fmt.Fprintf(b, "%s%s %d\n", n, ls, v)
		return
	}
	h, ok := snap.Histograms[name]
	if !ok {
		return
	}
	if withHeader {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", n, helpFor(name), n)
	}
	// The log2 histograms become cumulative `le` buckets at the power-of-two
	// boundaries (bucket i counts values v with 2^(i-1) <= v < 2^i, so its
	// cumulative upper bound is le = 2^i - 1).
	bucketLabel := func(le string) string {
		inner := fmt.Sprintf("le=%q", le)
		if ls != "" {
			return "{" + ls[1:len(ls)-1] + "," + inner + "}"
		}
		return "{" + inner + "}"
	}
	hi := 0
	for i, c := range h.Buckets {
		if c != 0 {
			hi = i
		}
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += h.Buckets[i]
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", n, bucketLabel(fmt.Sprint(le)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", n, bucketLabel("+Inf"), h.Count)
	fmt.Fprintf(b, "%s_sum%s %d\n", n, ls, h.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", n, ls, h.Count)
}

// snapNames returns every metric name in the snapshot, sorted.
func snapNames(snap metrics.Snapshot) []string {
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for k := range snap.Counters {
		names = append(names, k)
	}
	for k := range snap.Gauges {
		names = append(names, k)
	}
	for k := range snap.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4) with `# HELP` and `# TYPE` headers. Counters and
// gauges map directly; the log2 histograms become cumulative `le` buckets,
// plus the standard _sum/_count series. Output is sorted by name, so it is
// diff-stable.
func WritePrometheus(w io.Writer, snap metrics.Snapshot) error {
	return WritePrometheusLabeled(w, snap, nil)
}

// WritePrometheusLabeled is WritePrometheus with a constant label set (e.g.
// {rank="2"}) attached to every sample line; labels render sorted by key.
func WritePrometheusLabeled(w io.Writer, snap metrics.Snapshot, labels map[string]string) error {
	var b strings.Builder
	for _, name := range snapNames(snap) {
		promFamily(&b, name, snap, labels, true)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteClusterPrometheus renders per-rank snapshots as one exposition: each
// metric family appears once (HELP/TYPE header) followed by a {rank="N"}
// series per reporting rank, ranks ascending, families sorted by name.
// A name must not change kind across ranks (all snapshots come from the
// same metric schema, so it cannot in practice); if it somehow did, the
// kind of the lowest reporting rank wins for the header.
func WriteClusterPrometheus(w io.Writer, perRank map[int]metrics.Snapshot) error {
	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	seen := map[string]bool{}
	var names []string
	for _, r := range ranks {
		for _, n := range snapNames(perRank[r]) {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		header := true
		for _, r := range ranks {
			snap := perRank[r]
			labels := map[string]string{"rank": fmt.Sprint(r)}
			before := b.Len()
			promFamily(&b, name, snap, labels, header)
			if b.Len() != before {
				header = false
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Server is a live observability endpoint. Close when done; the zero value
// is not usable — create with Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// mergedFunc folds the sources into one snapshot per call.
func mergedFunc(sources []SnapshotFunc) func() metrics.Snapshot {
	return func() metrics.Snapshot {
		snaps := make([]metrics.Snapshot, len(sources))
		for i, f := range sources {
			snaps[i] = f()
		}
		return Merge(snaps...)
	}
}

// baseMux builds the endpoint common to Serve and ServeCluster:
// /snapshot.json, /metrics/self, and the pprof handlers.
func baseMux(merged func() metrics.Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(merged())
	})
	mux.HandleFunc("/metrics/self", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, merged())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMux binds a listener on addr and runs mux on it.
func serveMux(addr string, mux *http.ServeMux) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Serve starts an HTTP endpoint on addr (use "127.0.0.1:0" to let the
// kernel pick a port; read it back with Addr) exposing:
//
//	/metrics        merged snapshot, Prometheus text exposition
//	/metrics/self   alias for /metrics
//	/snapshot.json  merged snapshot, JSON
//	/debug/pprof/   the standard net/http/pprof handlers
//
// sources are polled per request, so a scrape observes the live run.
// Registry snapshots are safe at any time by design; pass e.g.
// graph.MetricsSnapshot and world.MetricsSnapshot.
func Serve(addr string, sources ...SnapshotFunc) (*Server, error) {
	merged := mergedFunc(sources)
	mux := baseMux(merged)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, merged())
	})
	return serveMux(addr, mux)
}

// ClusterSource is the aggregated cluster model a rank-0 endpoint serves;
// telemetry.Aggregator satisfies it.
type ClusterSource interface {
	// ClusterJSON returns the merged cluster document for /cluster.json.
	ClusterJSON() any
	// RankSnapshots returns the latest reconstructed snapshot per rank for
	// rank-labelled exposition.
	RankSnapshots() map[int]metrics.Snapshot
}

// ServeCluster starts the rank-0 observability endpoint: everything Serve
// offers, plus
//
//	/cluster.json   the merged cluster model (per-rank series, events)
//	/metrics        rank-labelled exposition across every reporting rank
//	/metrics/self   this rank's local merged snapshot, unlabelled
//
// /metrics is served from the telemetry plane's reconstructed per-rank
// snapshots (uniform {rank="N"} series) rather than the local registries,
// so a single scrape covers the whole cluster.
func ServeCluster(addr string, cluster ClusterSource, sources ...SnapshotFunc) (*Server, error) {
	merged := mergedFunc(sources)
	mux := baseMux(merged)
	mux.HandleFunc("/cluster.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(cluster.ClusterJSON())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteClusterPrometheus(w, cluster.RankSnapshots())
	})
	return serveMux(addr, mux)
}

// Addr returns the endpoint's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeDeadline bounds how long Close waits for in-flight scrapes to drain.
const closeDeadline = 2 * time.Second

// Close shuts the endpoint down gracefully: the listener closes immediately
// (no new scrapes), in-flight requests get up to closeDeadline to complete,
// and only then are lingering connections torn down hard.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
