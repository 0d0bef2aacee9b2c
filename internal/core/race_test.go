//go:build race

package core

// raceEnabled reports a -race build, under which the long stress shapes run
// fewer rounds: the detector slows each task tenfold, and the shapes that
// fail do so in their first rounds.
const raceEnabled = true
