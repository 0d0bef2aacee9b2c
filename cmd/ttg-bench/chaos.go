package main

import (
	"fmt"
	"os"
	"time"

	"gottg/internal/bench"
	"gottg/internal/taskbench"
)

// figChaos demonstrates fail-stop rank fault tolerance on Task-Bench: for
// each victim rank (including the coordinator, rank 0), one distributed run
// is fail-stopped mid-flight and the recovered checksum is compared
// bit-for-bit against the sequential reference. This is the worked example
// from docs/ROBUSTNESS.md.
func figChaos(c *ctx) {
	s := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: 32, Flops: 20000}
	if c.full {
		s = taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 64, Steps: 128, Flops: 20000}
	}
	const ranks = 4
	want := s.Reference()
	fmt.Printf("# chaos: %s width=%d steps=%d over %d simulated ranks, killing one rank per run\n",
		s.Pattern, s.Width, s.Steps, ranks)

	t := bench.NewTable("Chaos: fail-stop one rank mid-run (stencil_1d)", "victim rank", "seconds")
	ok := true
	for victim := -1; victim < ranks; victim++ {
		res, rep, err := taskbench.RunDist(s, taskbench.DistOptions{
			Ranks:          ranks,
			Workers:        2,
			FT:             true,
			KillRank:       victim, // -1 = fault-free baseline
			KillAfterTasks: 8,
			Pruning:        true,
			SuspectAfter:   400 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		name := "fault-free"
		if victim >= 0 {
			name = fmt.Sprintf("kill rank %d", victim)
		}
		t.Add(name, float64(victim), res.Elapsed.Seconds())
		match := "bit-identical"
		if res.Checksum != want {
			match = fmt.Sprintf("MISMATCH got %v want %v", res.Checksum, want)
			ok = false
		}
		fmt.Printf("#   %-12s deaths=%d wave_restarts=%d reexecuted=%d remapped=%d pruned=%d keymap=%v checksum %s\n",
			name, rep.Deaths, rep.WaveRestarts, rep.Reexecuted, rep.Remapped, rep.Pruned, rep.Keymap, match)
	}
	c.printTable(t)
	if !ok {
		fmt.Fprintln(os.Stderr, "chaos: recovered checksum diverged from the reference")
		os.Exit(1)
	}
}
