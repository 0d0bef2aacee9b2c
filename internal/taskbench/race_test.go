//go:build race

package taskbench

// raceEnabled reports a -race build. Under the race detector the overhead
// gates would time the detector's own instrumentation rather than the
// metrics or telemetry layer, so they skip; the non-race CI steps enforce
// them.
const raceEnabled = true
