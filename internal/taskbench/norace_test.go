//go:build !race

package taskbench

const raceEnabled = false
