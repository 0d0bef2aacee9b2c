package main

import (
	"fmt"
	"os"

	"gottg/internal/bench"
	"gottg/internal/metrics"
	"gottg/internal/obs/critpath"
)

// The -critpath reports of a causally traced run: the `critpath` field of
// the BENCH record, the human-readable attribution, and (with -trace) the
// merged Chrome trace, flow arrows included.

func critpathRecord(rep *critpath.Report) *bench.CritPath {
	if rep == nil {
		return nil
	}
	return &bench.CritPath{
		Spans:             rep.Spans,
		Tasks:             rep.Tasks,
		LenNs:             rep.LenNs,
		BodyNs:            rep.BodyNs,
		QueueNs:           rep.QueueNs,
		CommNs:            rep.CommNs,
		RemoteHops:        rep.RemoteHops,
		PerTaskOverheadNs: rep.PerTaskOverheadNs,
	}
}

func printCritpath(rep *critpath.Report) {
	pct := func(ns int64) float64 { return float64(ns) / float64(rep.LenNs) * 100 }
	fmt.Printf("  critpath: %d spans, path of %d tasks, %d remote hops\n",
		rep.Spans, rep.Tasks, rep.RemoteHops)
	fmt.Printf("  len %.3fms = body %.3fms (%.1f%%) + queue-wait %.3fms (%.1f%%) + comm %.3fms (%.1f%%)\n",
		float64(rep.LenNs)/1e6,
		float64(rep.BodyNs)/1e6, pct(rep.BodyNs),
		float64(rep.QueueNs)/1e6, pct(rep.QueueNs),
		float64(rep.CommNs)/1e6, pct(rep.CommNs))
	fmt.Printf("  per-task overhead along path: %.0f ns\n", rep.PerTaskOverheadNs)
}

func writeTrace(path string, events []metrics.ChromeEvent) {
	f, err := os.Create(path)
	if err != nil {
		fatal("trace:", err)
	}
	defer f.Close()
	if err := metrics.WriteChromeTrace(f, events); err != nil {
		fatal("trace:", err)
	}
	if !*flagJSON {
		fmt.Printf("  trace written to %s\n", path)
	}
}
