package core_test

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"gottg/internal/comm"
	"gottg/internal/core"
	"gottg/internal/rt"
	"gottg/internal/taskbench"
)

// faultPlanHeavy composes the message-level chaos: a double-digit share of
// frames cut their link, and random delay on every link — the same shape
// the comm package's own acceptance plan uses.
func faultPlanHeavy(seed uint64) comm.FaultPlan {
	return comm.FaultPlan{
		Seed:  seed,
		Drop:  0.10,
		Delay: 0.10,
	}
}

// chaosSeed returns the soak seed: CHAOS_SEED from the environment (the CI
// matrix sets it) or 1.
func chaosSeed(t *testing.T) uint64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// TestChaosKillRankAllPatterns is the end-to-end soak for fail-stop
// recovery: every Task-Bench pattern under both work-stealing schedulers,
// with a heavy message-fault plan on the wire AND one rank fail-stopped at a
// seed-randomized point mid-run. The checksum must stay bit-identical to the
// sequential reference, the victim must report ErrRankKilled, every survivor
// must complete cleanly, and the run must show actual recovery activity
// (confirmed death, re-executed tasks).
func TestChaosKillRankAllPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not -short")
	}
	seed := chaosSeed(t)
	const ranks = 4
	patterns := []taskbench.Pattern{
		taskbench.Trivial, taskbench.NoComm, taskbench.Stencil1D,
		taskbench.FFT, taskbench.Random,
	}
	scheds := []rt.SchedKind{rt.SchedLLP, rt.SchedLFQ}
	for pi, pat := range patterns {
		for si, sched := range scheds {
			pat, sched := pat, sched
			mix := seed + uint64(pi)*31 + uint64(si)*131
			t.Run(fmt.Sprintf("%v/%v/seed=%d", pat, sched, seed), func(t *testing.T) {
				t.Parallel()
				s := taskbench.Spec{Pattern: pat, Width: 16, Steps: 24, Flops: 20000}
				want := s.Reference()
				// Seed-randomized kill point: any rank (including the wave
				// coordinator, rank 0), triggered after a varying number of
				// the victim's tasks have run.
				victim := int(mix % ranks)
				killAfter := int64(4 + mix%24)
				plan := faultPlanHeavy(mix | 1)
				res, rep, err := taskbench.RunDist(s, taskbench.DistOptions{
					Ranks:          ranks,
					Workers:        2,
					FT:             true,
					Sched:          sched,
					Plan:           &plan,
					KillRank:       victim,
					KillAfterTasks: killAfter,
					// Pruning is exercised on half the matrix; taskbench has
					// no rank-local side effects, so it is safe here.
					Pruning:      pi%2 == 0,
					SuspectAfter: 400 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Checksum != want {
					t.Fatalf("checksum %v after killing rank %d, want bit-identical %v", res.Checksum, victim, want)
				}
				for r, err := range rep.Errs {
					if r == victim {
						if !errors.Is(err, core.ErrRankKilled) {
							t.Fatalf("victim rank %d Wait() = %v, want ErrRankKilled", r, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("survivor rank %d Wait() = %v, want nil", r, err)
					}
				}
				if rep.Deaths != 1 {
					t.Fatalf("confirmed %d deaths, want 1", rep.Deaths)
				}
				if rep.Reexecuted == 0 {
					t.Fatal("no tasks were re-executed for the dead rank's keys")
				}
				if rep.WaveRestarts == 0 {
					t.Fatal("the termination wave was never restarted")
				}
				if len(rep.Keymap) != ranks || rep.Keymap[victim] == victim {
					t.Fatalf("RecoveryKeymap %v does not re-home rank %d", rep.Keymap, victim)
				}
			})
		}
	}
}

// TestChaosFaultFreeFTMatches pins the zero-failure path: with fault
// tolerance enabled but nobody killed, the run must behave exactly like the
// plain distributed runner — no deaths, no re-execution, identity keymap.
func TestChaosFaultFreeFTMatches(t *testing.T) {
	s := taskbench.Spec{Pattern: taskbench.Stencil1D, Width: 16, Steps: 16, Flops: 2000}
	res, rep, err := taskbench.RunDist(s, taskbench.DistOptions{Ranks: 4, Workers: 2, FT: true, Pruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Reference(); res.Checksum != want {
		t.Fatalf("checksum %v, want %v", res.Checksum, want)
	}
	for r, err := range rep.Errs {
		if err != nil {
			t.Fatalf("rank %d Wait() = %v", r, err)
		}
	}
	if rep.Deaths != 0 || rep.Reexecuted != 0 {
		t.Fatalf("fault-free run reports deaths=%d reexec=%d", rep.Deaths, rep.Reexecuted)
	}
	for r, m := range rep.Keymap {
		if m != r {
			t.Fatalf("fault-free keymap %v is not the identity", rep.Keymap)
		}
	}
}
