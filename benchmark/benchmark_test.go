package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// shrink cuts every workload to a few steps so that a rep takes
// milliseconds; the graph, the transports and the verification are the real
// ones.
func shrink(t *testing.T) {
	saved := append([]workload(nil), workloads...)
	for i := range workloads {
		workloads[i].steps = 40
	}
	t.Cleanup(func() { copy(workloads, saved) })
}

func TestEstimatorsOnABimodalSample(t *testing.T) {
	// A bimodal sample, 100 ns and 150 ns, as the slow mode's share crosses
	// one half: the median jumps by the whole gap, the interquartile mean
	// moves with the share, the fast band does not move at all.
	mix := func(slow int) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 100
			if i < slow {
				xs[i] = 150
			}
		}
		return xs
	}
	iqm := func(xs []float64) float64 { return bandMean(xs, 0.25, 0.75) }
	lo, hi := mix(48), mix(52)
	if d := median(hi) - median(lo); d != 50 {
		t.Errorf("median moved by %v across the half, want the full 50", d)
	}
	if got, want := iqm(lo), 123.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("iqm(48%% slow) = %v, want %v", got, want)
	}
	if d := iqm(hi) - iqm(lo); math.Abs(d-4) > 1e-9 {
		t.Errorf("iqm moved by %v across the half, want 4", d)
	}
	if fastBand(lo) != 100 || fastBand(hi) != 100 {
		t.Errorf("fast band = %v, %v, want 100 while a quarter of the reps is fast", fastBand(lo), fastBand(hi))
	}
	// One lucky rep in 100 stays below the band's 5 % floor.
	lucky := mix(50)
	lucky[99] = 10
	if got := fastBand(lucky); got != 100 {
		t.Errorf("fast band with one lucky rep = %v, want 100", got)
	}
	// Fractional boundaries: n=6 keeps [1.5, 4.5) of the sorted sample.
	if got, want := iqm([]float64{6, 1, 3, 2, 5, 4}), (0.5*2+3+4+0.5*5)/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("iqm of 1..6 = %v, want %v", got, want)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := fastBand(nil) + median(nil); got != 0 {
		t.Errorf("empty sample gave %v, want 0", got)
	}
}

func TestParseProcIO(t *testing.T) {
	const text = "rchar: 4096\nwchar: 512\nsyscr: 17\nsyscw: 5\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if want := (ioCounts{syscr: 17, syscw: 5, rchar: 4096, wchar: 512}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "rchar: 1\nsyscr: 2\n", "syscr: x\nsyscw: 1\n"} {
		if _, err := parseProcIO([]byte(bad)); err == nil {
			t.Errorf("parseProcIO(%q) succeeded", bad)
		}
	}
	// Off Linux there is no such file: the reader says so and nothing else.
	if _, ok := (&procIO{}).read(); ok {
		t.Error("a reader without a file reported counters")
	}
	p := openProcIO()
	defer p.close()
	if a, ok := p.read(); ok {
		b, _ := p.read()
		if b.syscr != a.syscr+1 {
			t.Errorf("a reading cost %d read calls, want exactly 1", b.syscr-a.syscr)
		}
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var gated []workload
	for _, wl := range workloads {
		if wl.gated {
			gated = append(gated, wl)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness gates %d", len(bj.Workloads), len(gated))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			checkName(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
}

// runShort runs reps timed reps of every workload, untraced.
func runShort(t *testing.T, reps int) result {
	t.Helper()
	shrink(t)
	h := &harness{io: openProcIO()}
	defer h.io.close()
	var sel []*workload
	for i := range workloads {
		sel = append(sel, &workloads[i])
	}
	return h.runEndToEnd(sel, 7, reps, 0)
}

func TestSmokeEveryWorkloadVerifies(t *testing.T) {
	res := runShort(t, 3)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if want := len(workloads) * (warmupReps + 3); res.Attempted != want {
		t.Errorf("attempted %d reps, want %d", res.Attempted, want)
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v, ok := res.Metrics[wl.name+"."+d.Name]
			if !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s %s = %+v (present %v), want a positive value in %s", wl.name, d.Name, v, ok, d.Unit)
			}
		}
	}
}

func TestVerifyCatchesAWrongBit(t *testing.T) {
	shrink(t)
	wl := &workloads[0]
	in := makeInputs(wl.spec(), 3)
	if other := makeInputs(wl.spec(), 4); in.verify(other.want) == nil {
		t.Error("two seeds gave the same last step: the seed does not reach the inputs")
	}
	got := append([]float64(nil), in.want...)
	if err := in.verify(got); err != nil {
		t.Fatalf("the oracle does not verify against itself: %v", err)
	}
	got[5] = math.Float64frombits(math.Float64bits(got[5]) ^ 1)
	if in.verify(got) == nil {
		t.Error("a last-bit difference passed verification")
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	shrink(t)
	h := &harness{io: openProcIO()}
	defer h.io.close()
	file := filepath.Join(t.TempDir(), "spans", "trace.json")
	res, err := h.runTraced([]*workload{findWorkload("shuffle_tcp")}, 7, 2, 400*time.Millisecond, file)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	_, haveIO := h.io.read()
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok && !haveIO {
			continue // the syscall counters exist on Linux only
		}
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
		}
	}
	if len(res.Metrics) > len(perLayer) {
		t.Errorf("the traced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(perLayer))
	}
	// The ladder telescopes: the floor plus the three terms is stencil_tcp.
	m := res.Metrics
	sum := m["taskbench.seq_ns"].Value/float64(findWorkload("stencil_local").threads()) + m["ladder.runtime_ns"].Value + m["ladder.comm_ns"].Value + m["ladder.wire_ns"].Value
	if tcp := m["ladder.step_us"].Value * 1e3 / 64; math.Abs(sum-tcp) > 1e-6*tcp {
		t.Errorf("ladder sums to %v ns/task, stencil_tcp ran at %v", sum, tcp)
	}

	// The span file loads, and every parent is a span of the file.
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("span file does not load: %v", err)
	}
	ids := map[int]string{}
	for _, ev := range tr.TraceEvents {
		ids[ev.Args["id"]] = ev.Name
	}
	phases := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("event %+v is not a complete span", ev)
		}
		if p := ev.Args["parent"]; p != 0 && ids[p] == "" {
			t.Fatalf("span %q names parent %d, which is not in the file", ev.Name, p)
		}
		if parent := ids[ev.Args["parent"]]; len(parent) > 4 && parent[:4] == "rep:" {
			phases[ev.Name]++
		}
	}
	for _, ph := range []string{"bringup", "seed", "run", "drain", "shutdown"} {
		if phases[ph] == 0 {
			t.Errorf("no %q span under any rep", ph)
		}
	}
}

func TestRecorderParentsAndNil(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 1, 0); id != 0 {
		t.Errorf("a nil recorder handed out span %d", id)
	}
	off.end(0)

	r := newRecorder()
	root := r.begin("root", 0, 1, 0)
	child := r.begin("child", root, 1, 1)
	open := r.begin("never closed", root, 1, 0)
	r.end(child)
	r.end(root)
	_ = open
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 2 {
		t.Fatalf("wrote %d events, want the 2 closed spans", len(tr.TraceEvents))
	}
	if ev := tr.TraceEvents[1]; ev.Name != "child" || ev.Args["parent"] != int(root) || ev.Tid != 1 {
		t.Errorf("child written as %+v", ev)
	}
}
