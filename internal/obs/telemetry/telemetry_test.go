package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gottg/internal/metrics"
)

func TestFrameRoundTrip(t *testing.T) {
	cols := []Col{
		{Name: "rt.task.executed", Kind: KindCounter},
		{Name: "termdet.pending", Kind: KindGauge},
		{Name: "rt.task.ns.sum", Kind: KindCounter},
	}
	vals := []float64{1234, -5, 9.75e9}
	buf := encodeFrame(nil, 3, 42, 7, 1699999999000, cols, vals)
	f, err := decodeFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.rank != 3 || f.seq != 42 || f.epoch != 7 || f.tsNs != 1699999999000 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if len(f.cols) != len(cols) {
		t.Fatalf("got %d cols, want %d", len(f.cols), len(cols))
	}
	for i := range cols {
		if f.cols[i].Name != cols[i].Name || f.cols[i].Kind != cols[i].Kind {
			t.Fatalf("col %d: got %+v want %+v", i, f.cols[i], cols[i])
		}
		if f.vals[i] != vals[i] {
			t.Fatalf("val %d: got %v want %v", i, f.vals[i], vals[i])
		}
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	cols := []Col{{Name: "a", Kind: KindCounter}}
	buf := encodeFrame(nil, 1, 1, 0, 0, cols, []float64{1})
	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(buf); n++ {
		if _, err := decodeFrame(buf[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 99 // unknown version
	if _, err := decodeFrame(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// fakeSource builds a snapshot function over mutable counters.
type fakeSource struct {
	mu sync.Mutex
	c  map[string]uint64
	g  map[string]int64
	h  map[string]metrics.HistSnapshot
}

func (f *fakeSource) snap() metrics.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := metrics.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}, Histograms: map[string]metrics.HistSnapshot{}}
	for k, v := range f.c {
		s.Counters[k] = v
	}
	for k, v := range f.g {
		s.Gauges[k] = v
	}
	for k, v := range f.h {
		s.Histograms[k] = v
	}
	return s
}

func (f *fakeSource) set(name string, v uint64) {
	f.mu.Lock()
	f.c[name] = v
	f.mu.Unlock()
}

func newFakeSource() *fakeSource {
	return &fakeSource{c: map[string]uint64{}, g: map[string]int64{}, h: map[string]metrics.HistSnapshot{}}
}

func TestSamplerDeltasAndHistogramFlattening(t *testing.T) {
	src := newFakeSource()
	src.set("rt.task.executed", 100)
	src.g["termdet.pending"] = 7
	src.h["rt.task.ns"] = metrics.HistSnapshot{Count: 10, Sum: 5000}
	s := NewSampler(0, src.snap, time.Hour, 8, nil, nil)
	s.SampleNow()
	src.set("rt.task.executed", 160)
	src.g["termdet.pending"] = 3
	src.h["rt.task.ns"] = metrics.HistSnapshot{Count: 25, Sum: 9000}
	s.SampleNow()

	v := s.View()
	if v.LastSeq != 2 {
		t.Fatalf("LastSeq = %d, want 2", v.LastSeq)
	}
	if len(v.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1", len(v.Intervals))
	}
	iv := v.Intervals[0]
	if iv.Deltas["rt.task.executed"] != 60 {
		t.Errorf("counter delta = %v, want 60", iv.Deltas["rt.task.executed"])
	}
	if iv.Deltas["termdet.pending"] != 3 {
		t.Errorf("gauge level = %v, want 3", iv.Deltas["termdet.pending"])
	}
	if iv.Deltas["rt.task.ns.count"] != 15 || iv.Deltas["rt.task.ns.sum"] != 4000 {
		t.Errorf("histogram deltas = %v/%v, want 15/4000",
			iv.Deltas["rt.task.ns.count"], iv.Deltas["rt.task.ns.sum"])
	}
	if v.Totals["rt.task.executed"] != 160 {
		t.Errorf("total = %v, want 160", v.Totals["rt.task.executed"])
	}
}

func TestSamplerSteadyStateDoesNotGrow(t *testing.T) {
	src := newFakeSource()
	src.set("a", 1)
	src.set("b", 2)
	s := NewSampler(0, src.snap, time.Hour, 4, nil, nil)
	for i := 0; i < 100; i++ {
		src.set("a", uint64(i))
		s.SampleNow()
	}
	if got := s.Samples(); got != 100 {
		t.Fatalf("Samples = %d, want 100", got)
	}
	v := s.View()
	if len(v.Intervals) != 3 { // window 4 → 3 deltas
		t.Fatalf("ring retained %d intervals, want 3", len(v.Intervals))
	}
	if v.LastSeq != 100 {
		t.Fatalf("LastSeq = %d, want 100", v.LastSeq)
	}
}

func TestRingWrapOrdering(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 10; i++ {
		r.pushNext(int64(i*100), []float64{float64(i)})
	}
	if r.n != 4 {
		t.Fatalf("n = %d, want 4", r.n)
	}
	for i := 0; i < 4; i++ {
		want := uint64(7 + i)
		if got := r.at(i).seq; got != want {
			t.Fatalf("slot %d seq = %d, want %d", i, got, want)
		}
	}
}

func TestAggregatorDedupAndCoverage(t *testing.T) {
	a := NewAggregator(4, 8, DetectorConfig{})
	cols := []Col{{Name: "rt.task.executed", Kind: KindCounter}}
	for rank := 0; rank < 3; rank++ {
		a.Ingest(rank, 1, 0, 1000, cols, []float64{10})
		a.Ingest(rank, 2, 0, 2000, cols, []float64{30})
		a.Ingest(rank, 2, 0, 2000, cols, []float64{999}) // duplicate seq: dropped
		a.Ingest(rank, 1, 0, 1000, cols, []float64{888}) // stale seq: dropped
	}
	if got := a.Coverage(); got != 3 {
		t.Fatalf("Coverage = %d, want 3", got)
	}
	cv, ok := a.ClusterJSON().(ClusterView)
	if !ok {
		t.Fatal("ClusterJSON did not return a ClusterView")
	}
	if cv.Size != 4 || len(cv.PerRank) != 4 {
		t.Fatalf("per-rank list covers %d of size %d, want 4 of 4", len(cv.PerRank), cv.Size)
	}
	for rank := 0; rank < 3; rank++ {
		rv := cv.PerRank[rank]
		if rv.LastSeq != 2 {
			t.Errorf("rank %d LastSeq = %d, want 2 (duplicate not dropped?)", rank, rv.LastSeq)
		}
		if rv.Totals["rt.task.executed"] != 30 {
			t.Errorf("rank %d total = %v, want 30", rank, rv.Totals["rt.task.executed"])
		}
		if len(rv.Intervals) != 1 || rv.Intervals[0].Deltas["rt.task.executed"] != 20 {
			t.Errorf("rank %d intervals = %+v, want one delta of 20", rank, rv.Intervals)
		}
	}
	if cv.PerRank[3].LastSeq != 0 {
		t.Errorf("silent rank should render with empty series")
	}
	if cv.Merged["rt.task.executed"] != 90 {
		t.Errorf("merged total = %v, want 90", cv.Merged["rt.task.executed"])
	}
}

func TestAggregatorHandlesFrameWire(t *testing.T) {
	a := NewAggregator(2, 8, DetectorConfig{})
	cols := []Col{{Name: "comm.bytes.sent", Kind: KindCounter}}
	buf := encodeFrame(nil, 1, 1, 3, 5000, cols, []float64{4096})
	a.HandleFrame(1, buf)
	a.HandleFrame(1, []byte{0xde, 0xad}) // garbage: dropped, no panic
	v := a.View(1)
	if v.LastSeq != 1 || v.Totals["comm.bytes.sent"] != 4096 {
		t.Fatalf("frame not ingested: %+v", v)
	}
	cv := a.ClusterJSON().(ClusterView)
	if cv.Epoch != 3 {
		t.Fatalf("epoch = %d, want 3", cv.Epoch)
	}
}

func TestStragglerDetector(t *testing.T) {
	a := NewAggregator(4, 32, DetectorConfig{StragglerMin: 3})
	cols := []Col{{Name: "rt.task.executed", Kind: KindCounter}}
	// Ranks 1..3 complete 1000 tasks per 250ms interval; rank 0 completes 10.
	ts := int64(0)
	for seq := uint64(1); seq <= 8; seq++ {
		ts += int64(250 * time.Millisecond)
		for rank := 0; rank < 4; rank++ {
			rate := 1000.0
			if rank == 0 {
				rate = 10
			}
			a.Ingest(rank, seq, 0, ts, cols, []float64{rate * float64(seq)})
		}
	}
	if n := a.EventCount(EvStraggler); n == 0 {
		t.Fatalf("straggler never detected; events: %+v", a.Events())
	}
	for _, e := range a.Events() {
		if e.Kind == EvStraggler && e.Rank != 0 {
			t.Fatalf("straggler fired for healthy rank %d: %+v", e.Rank, e)
		}
	}
}

func TestRetransmitSurgeDetector(t *testing.T) {
	a := NewAggregator(2, 64, DetectorConfig{})
	cols := []Col{{Name: "comm.retransmits", Kind: KindCounter}}
	ts, total := int64(0), 0.0
	for seq := uint64(1); seq <= 20; seq++ {
		ts += int64(250 * time.Millisecond)
		if seq == 15 {
			total += 500 // surge
		}
		a.Ingest(0, seq, 0, ts, cols, []float64{total})
	}
	if n := a.EventCount(EvRetransSurge); n != 1 {
		t.Fatalf("retransmit surge events = %d, want 1; events: %+v", n, a.Events())
	}
}

func TestQuietClusterRaisesNoEvents(t *testing.T) {
	a := NewAggregator(4, 64, DetectorConfig{})
	cols := []Col{
		{Name: "rt.task.executed", Kind: KindCounter},
		{Name: "comm.retransmits", Kind: KindCounter},
		{Name: "termdet.pending", Kind: KindGauge},
	}
	ts := int64(0)
	for seq := uint64(1); seq <= 30; seq++ {
		ts += int64(250 * time.Millisecond)
		for rank := 0; rank < 4; rank++ {
			a.Ingest(rank, seq, 0, ts, cols, []float64{1000 * float64(seq), 0, 5})
		}
	}
	if evs := a.Events(); len(evs) != 0 {
		t.Fatalf("healthy cluster raised events: %+v", evs)
	}
}

func TestRecorderDump(t *testing.T) {
	dir := t.TempDir()
	src := newFakeSource()
	src.set("rt.task.executed", 50)
	s := NewSampler(2, src.snap, time.Hour, 8, nil, nil)
	s.SampleNow()
	src.set("rt.task.executed", 80)
	s.SampleNow()

	rec := NewRecorder(2, dir, s, nil)
	rec.Note(Event{Kind: "steal", Rank: 2, Msg: "victim=1"})
	path, err := rec.Dump("abort")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !strings.Contains(filepath.Base(path), "flight-rank2-abort") {
		t.Fatalf("unexpected dump name %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Schema != "gottg.flight/v1" || d.Rank != 2 || d.Reason != "abort" {
		t.Fatalf("dump header: %+v", d)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "steal" {
		t.Fatalf("dump events: %+v", d.Events)
	}
	if d.Local.Totals["rt.task.executed"] != 80 {
		t.Fatalf("dump local totals: %+v", d.Local.Totals)
	}
	// Same reason again: no second file.
	p2, err := rec.Dump("abort")
	if err != nil || p2 != path {
		t.Fatalf("repeat dump: %q, %v (want original path)", p2, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory has %d files, want 1", len(ents))
	}
}

// loopWire wires N in-process planes together: SendTelemetry(0, …) invokes
// rank 0's handler synchronously.
type loopWire struct {
	rank, size int
	hub        *loopHub
}

type loopHub struct {
	mu sync.Mutex
	h  func(src int, payload []byte)
}

func (w *loopWire) Rank() int { return w.rank }
func (w *loopWire) Size() int { return w.size }
func (w *loopWire) SendTelemetry(dst int, payload []byte) {
	w.hub.mu.Lock()
	h := w.hub.h
	w.hub.mu.Unlock()
	if dst == 0 && h != nil {
		h(w.rank, payload)
	}
}
func (w *loopWire) SetTelemetryHandler(h func(src int, payload []byte)) {
	w.hub.mu.Lock()
	w.hub.h = h
	w.hub.mu.Unlock()
}

func TestPlaneEndToEndOverLoopWire(t *testing.T) {
	dir := t.TempDir()
	hub := &loopHub{}
	srcs := make([]*fakeSource, 3)
	planes := make([]*Plane, 3)
	for r := 0; r < 3; r++ {
		srcs[r] = newFakeSource()
		srcs[r].set("rt.task.executed", uint64(100*(r+1)))
		planes[r] = Start(&loopWire{rank: r, size: 3, hub: hub},
			srcs[r].snap, Options{Interval: time.Hour, FlightDir: dir})
	}
	for round := 2; round <= 3; round++ {
		for r := 0; r < 3; r++ {
			srcs[r].set("rt.task.executed", uint64(100*(r+1)*round))
			planes[r].Sampler().SampleNow()
		}
	}
	agg := planes[0].Aggregator()
	if agg == nil {
		t.Fatal("rank 0 has no aggregator")
	}
	if got := agg.Coverage(); got != 3 {
		t.Fatalf("coverage = %d, want 3", got)
	}
	cv := agg.ClusterJSON().(ClusterView)
	for r := 0; r < 3; r++ {
		if len(cv.PerRank[r].Intervals) == 0 {
			t.Fatalf("rank %d has no intervals in the cluster model", r)
		}
	}
	// Rank 1 dies: rank 0's plane dumps a flight record holding rank 1's
	// streamed intervals.
	planes[0].OnEvent("rank_dead", 1, "epoch 2")
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no flight dump after rank death (err=%v)", err)
	}
	raw, _ := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump JSON: %v", err)
	}
	if d.Cluster == nil {
		t.Fatal("rank-0 dump lacks the cluster model")
	}
	var dead *RankView
	for i := range d.Cluster.PerRank {
		if d.Cluster.PerRank[i].Rank == 1 {
			dead = &d.Cluster.PerRank[i]
		}
	}
	if dead == nil || !dead.Dead || len(dead.Intervals) == 0 {
		t.Fatalf("dump does not hold the dead rank's final intervals: %+v", dead)
	}
	for _, p := range planes {
		p.Stop()
	}
}

// FuzzDecodeFrame: telemetry frames ride the best-effort path from other
// ranks, so decodeFrame must reject (never panic on) any input, and a frame
// it accepts must re-encode to the bytes it consumed.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add(encodeFrame(nil, 3, 42, 7, 1699999999000, []Col{{Name: "rt.task.executed", Kind: KindCounter}}, []float64{1234}))
	f.Add(encodeFrame(nil, 0, 1, 0, 0, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		if re := encodeFrame(nil, fr.rank, fr.seq, fr.epoch, fr.tsNs, fr.cols, fr.vals); !bytes.HasPrefix(data, re) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, re)
		}
	})
}
