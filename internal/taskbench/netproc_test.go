//go:build linux

package taskbench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gottg/internal/comm/tcptransport"
)

// Multi-process network tests: the test binary re-execs itself once per
// rank (TestNetChildProcess below, selected via environment), every rank is
// a real OS process with its own TCP transport over loopback, and the
// parent merges the children's JSON reports. The SIGKILL variant fail-stops
// one child for real — kill -9, no cooperation — and the survivors must
// detect the death, re-home its work, and still produce the bit-identical
// checksum.

const netResultMarker = "GOTTG_NET_RESULT "

func netChildEnv() bool { return os.Getenv("GOTTG_NET_CHILD") == "1" }

// TestNetChildProcess is the re-exec target, inert in normal runs.
func TestNetChildProcess(t *testing.T) {
	if !netChildEnv() {
		t.Skip("multi-process child helper; driven by TestMultiProcess*")
	}
	atoi := func(k string) int {
		v, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			t.Fatalf("bad %s: %v", k, err)
		}
		return v
	}
	rank := atoi("GOTTG_NET_RANK")
	peers := strings.Split(os.Getenv("GOTTG_NET_PEERS"), ",")
	pat, err := ParsePattern(os.Getenv("GOTTG_NET_PATTERN"))
	if err != nil {
		t.Fatalf("bad pattern: %v", err)
	}
	skew, _ := strconv.ParseFloat(os.Getenv("GOTTG_NET_SKEW"), 64)
	s := Spec{
		Pattern: pat,
		Width:   atoi("GOTTG_NET_WIDTH"),
		Steps:   atoi("GOTTG_NET_STEPS"),
		Flops:   atoi("GOTTG_NET_FLOPS"),
		Skew:    skew,
	}
	var fault *tcptransport.FaultConfig
	if seed := os.Getenv("GOTTG_NET_FAULT_SEED"); seed != "" {
		sv, _ := strconv.ParseUint(seed, 10, 64)
		kill, _ := strconv.ParseFloat(os.Getenv("GOTTG_NET_CONNKILL"), 64)
		fault = &tcptransport.FaultConfig{
			Seed:         sv + uint64(rank)*0x9e3779b97f4a7c15,
			ConnKillProb: kill,
		}
	}
	tr, err := tcptransport.New(tcptransport.Config{
		Self:  rank,
		Peers: peers,
		Fault: fault,
	})
	if err != nil {
		t.Fatalf("rank %d: transport: %v", rank, err)
	}
	o := DistOptions{
		Workers:      2,
		FT:           true,
		Steal:        os.Getenv("GOTTG_NET_STEAL") == "1",
		SuspectAfter: time.Duration(atoi("GOTTG_NET_SUSPECT_MS")) * time.Millisecond,
	}
	if dir := os.Getenv("GOTTG_NET_FLIGHT_DIR"); dir != "" {
		o.Telemetry, o.TelemetryInterval, o.FlightDir = true, 20*time.Millisecond, dir
	}
	if after := atoi("GOTTG_NET_KILL_AFTER"); after > 0 {
		o.KillAfterTasks = int64(after)
		o.KillFunc = func() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL) // no deferred cleanup, no flushes: fail-stop
		}
	}
	res, err := RunRank(s, tr, o)
	if err != nil {
		t.Fatalf("rank %d: %v", rank, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("rank %d: marshal: %v", rank, err)
	}
	fmt.Println(netResultMarker + string(out))
}

// spawnNetChildren launches one child process per rank and returns the
// parsed reports of the ones that exited cleanly, plus each child's exit
// error (nil for success).
func spawnNetChildren(t *testing.T, n int, env func(rank int) []string) ([]RankReport, []error) {
	t.Helper()
	// Reserve distinct loopback ports, then free them for the children to
	// re-bind. The race window is negligible for tests.
	lns, addrs, err := LoopbackAddrs(n)
	if err != nil {
		t.Fatalf("reserve ports: %v", err)
	}
	for _, ln := range lns {
		ln.Close()
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	outs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		cmd := exec.Command(exe, "-test.run", "^TestNetChildProcess$", "-test.timeout", "120s")
		cmd.Env = append(os.Environ(),
			"GOTTG_NET_CHILD=1",
			fmt.Sprintf("GOTTG_NET_RANK=%d", r),
			"GOTTG_NET_PEERS="+strings.Join(addrs, ","),
		)
		cmd.Env = append(cmd.Env, env(r)...)
		cmd.Stdout = &outs[r]
		cmd.Stderr = &outs[r]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start rank %d: %v", r, err)
		}
		wg.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[r] = cmd.Wait()
		}(r, cmd)
	}
	wg.Wait()
	var results []RankReport
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			continue
		}
		found := false
		sc := bufio.NewScanner(bytes.NewReader(outs[r].Bytes()))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, netResultMarker) {
				continue
			}
			var res RankReport
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, netResultMarker)), &res); err != nil {
				t.Fatalf("rank %d: bad result JSON: %v\noutput:\n%s", r, err, outs[r].String())
			}
			results = append(results, res)
			found = true
		}
		if !found {
			t.Fatalf("rank %d exited cleanly but reported no result\noutput:\n%s", r, outs[r].String())
		}
	}
	return results, errs
}

func baseNetEnv(s Spec, suspectMS int) []string {
	return []string{
		"GOTTG_NET_PATTERN=" + s.Pattern.String(),
		fmt.Sprintf("GOTTG_NET_WIDTH=%d", s.Width),
		fmt.Sprintf("GOTTG_NET_STEPS=%d", s.Steps),
		fmt.Sprintf("GOTTG_NET_FLOPS=%d", s.Flops),
		fmt.Sprintf("GOTTG_NET_SKEW=%g", s.Skew),
		fmt.Sprintf("GOTTG_NET_SUSPECT_MS=%d", suspectMS),
		"GOTTG_NET_KILL_AFTER=0",
	}
}

// TestMultiProcessClean: 4 OS processes over loopback TCP, no faults,
// bit-identical checksum.
func TestMultiProcessClean(t *testing.T) {
	if netChildEnv() {
		t.Skip("child mode")
	}
	if testing.Short() {
		t.Skip("multi-process")
	}
	s := Spec{Pattern: Stencil1D, Width: 16, Steps: 40, Flops: 500}
	results, errs := spawnNetChildren(t, 4, func(rank int) []string {
		return baseNetEnv(s, 2000)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d process failed: %v", r, err)
		}
	}
	res, err := MergeNetResults(s, results)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if want := s.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v != reference %v", res.Checksum, want)
	}
}

// TestMultiProcessSocketFaults: seeded connection kills across real process
// boundaries; every rank must reconnect transparently and the checksum must
// stay bit-identical with zero rank deaths.
func TestMultiProcessSocketFaults(t *testing.T) {
	if netChildEnv() {
		t.Skip("child mode")
	}
	if testing.Short() {
		t.Skip("multi-process")
	}
	s := Spec{Pattern: Stencil1D, Width: 16, Steps: 60, Flops: 500}
	results, errs := spawnNetChildren(t, 4, func(rank int) []string {
		return append(baseNetEnv(s, 5000),
			"GOTTG_NET_FAULT_SEED=9001",
			"GOTTG_NET_CONNKILL=0.01",
		)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d process failed: %v", r, err)
		}
	}
	res, err := MergeNetResults(s, results)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if want := s.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("checksum %v != reference %v", res.Checksum, want)
	}
	var reconnects, deaths int64
	for _, r := range results {
		reconnects += r.Reconnects
		deaths += r.Deaths
	}
	if reconnects == 0 {
		t.Fatalf("socket faults produced zero reconnects across 4 processes")
	}
	if deaths != 0 {
		t.Fatalf("%d false-positive rank deaths under socket faults", deaths)
	}
	t.Logf("4-process fault run: %d reconnects, 0 deaths, checksum bit-identical", reconnects)
}

// TestMultiProcessSIGKILL: one rank process is SIGKILLed mid-run; the
// surviving processes must confirm the death through the heartbeat/epoch
// protocol, re-home and re-execute the dead rank's tasks, and produce the
// bit-identical checksum from their merged reports alone.
func TestMultiProcessSIGKILL(t *testing.T) {
	if netChildEnv() {
		t.Skip("child mode")
	}
	if testing.Short() {
		t.Skip("multi-process")
	}
	t.Run("rank 2", func(t *testing.T) { multiProcessSIGKILL(t, 2, "") })
	// The coordinator, with the telemetry plane on: rank 0 streams to nobody,
	// so the kill trigger must not wait for its first frame.
	t.Run("rank 0 with telemetry", func(t *testing.T) { multiProcessSIGKILL(t, 0, t.TempDir()) })
}

func multiProcessSIGKILL(t *testing.T, victim int, flightDir string) {
	s := Spec{Pattern: Stencil1D, Width: 16, Steps: 60, Flops: 2000}
	// The suspicion budget must cover process startup skew (children begin
	// heartbeating at different times) plus recovery stalls, or a survivor
	// gets falsely declared dead alongside the real victim.
	results, errs := spawnNetChildren(t, 4, func(rank int) []string {
		env := append(baseNetEnv(s, 2000), "GOTTG_NET_FLIGHT_DIR="+flightDir)
		if rank == victim {
			env = append(env, "GOTTG_NET_KILL_AFTER=50")
		}
		return env
	})
	// The victim must have died by signal, not exited cleanly.
	if errs[victim] == nil {
		t.Fatalf("victim rank %d exited cleanly; SIGKILL never fired", victim)
	}
	ee, ok := errs[victim].(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("victim rank %d: unexpected exit: %v", victim, errs[victim])
	}
	for r, err := range errs {
		if r != victim && err != nil {
			t.Fatalf("survivor rank %d failed: %v", r, err)
		}
	}
	if len(results) != 3 {
		t.Fatalf("expected 3 survivor reports, got %d", len(results))
	}
	res, err := MergeNetResults(s, results)
	if err != nil {
		t.Fatalf("survivor reports do not cover the victim's points: %v", err)
	}
	if want := s.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("post-kill checksum %v != reference %v", res.Checksum, want)
	}
	var deaths, reexecuted int64
	for _, r := range results {
		if r.Deaths > deaths {
			deaths = r.Deaths
		}
		reexecuted += r.Reexecuted
	}
	if deaths != 1 {
		for _, r := range results {
			t.Logf("rank %d: tasks=%d deaths=%d waveRestarts=%d reexec=%d reconnects=%d drained=%v err=%q points=%d",
				r.Rank, r.Tasks, r.Deaths, r.WaveRestarts, r.Reexecuted, r.Reconnects, r.Drained, r.Err, len(r.Points))
		}
		t.Fatalf("survivors confirmed %d deaths, want exactly 1", deaths)
	}
	if reexecuted == 0 {
		t.Fatalf("no tasks were re-executed after the kill; recovery did not run")
	}
	t.Logf("SIGKILL run: death confirmed, %d tasks re-executed, checksum bit-identical", reexecuted)
}

// TestMultiProcessSIGKILLWithSteal is the full steal-versus-death chaos
// variant across real process boundaries: the skewed instance concentrates
// work on the high ranks, the idle ranks steal from them over TCP with the
// two-phase commit (FT on), and the most-loaded rank — the steal VICTIM,
// whose donations are in flight when it goes — is SIGKILLed mid-run. The
// survivors must confirm the death, sweep and re-home the donations along
// with the rest of the dead rank's work, and the merged reports must cover
// every point with bit-identical values: MergeNetResults fails on any
// conflicting duplicate, so a double-executed nondeterministic task cannot
// slip through, and the FT journal must absorb re-sends from re-executed
// stolen tasks.
func TestMultiProcessSIGKILLWithSteal(t *testing.T) {
	if netChildEnv() {
		t.Skip("child mode")
	}
	if testing.Short() {
		t.Skip("multi-process")
	}
	const victim = 3 // owns the most expensive block under the skew: the steal victim
	s := Spec{Pattern: Stencil1D, Width: 32, Steps: 16, Flops: 40000, Skew: 8}
	results, errs := spawnNetChildren(t, 4, func(rank int) []string {
		env := append(baseNetEnv(s, 2000), "GOTTG_NET_STEAL=1")
		if rank == victim {
			env = append(env, "GOTTG_NET_KILL_AFTER=60")
		}
		return env
	})
	if errs[victim] == nil {
		t.Fatalf("victim rank %d exited cleanly; SIGKILL never fired", victim)
	}
	ee, ok := errs[victim].(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("victim rank %d: unexpected exit: %v", victim, errs[victim])
	}
	for r, err := range errs {
		if r != victim && err != nil {
			t.Fatalf("survivor rank %d failed: %v", r, err)
		}
	}
	if len(results) != 3 {
		t.Fatalf("expected 3 survivor reports, got %d", len(results))
	}
	res, err := MergeNetResults(s, results)
	if err != nil {
		t.Fatalf("survivor reports conflict or miss points (double execution?): %v", err)
	}
	if want := s.Reference(); math.Float64bits(res.Checksum) != math.Float64bits(want) {
		t.Fatalf("post-kill checksum %v != reference %v", res.Checksum, want)
	}
	var deaths, reexecuted, steals, stolenTasks, aborts int64
	for _, r := range results {
		if r.Deaths > deaths {
			deaths = r.Deaths
		}
		reexecuted += r.Reexecuted
		steals += r.Steals
		stolenTasks += r.StealTasks
		aborts += r.StealAborts
	}
	if deaths != 1 {
		for _, r := range results {
			t.Logf("rank %d: tasks=%d deaths=%d reexec=%d steals=%d stealTasks=%d aborts=%d err=%q",
				r.Rank, r.Tasks, r.Deaths, r.Reexecuted, r.Steals, r.StealTasks, r.StealAborts, r.Err)
		}
		t.Fatalf("survivors confirmed %d deaths, want exactly 1", deaths)
	}
	if reexecuted == 0 {
		t.Fatalf("no tasks were re-executed after the kill; recovery did not run")
	}
	// Steal activity is opportunistic: the stencil wavefront bounds victim
	// queue depth, so some runs legitimately complete zero steals before the
	// kill lands. The hard guarantees above (exactly one death, re-execution,
	// bit-identical merge with duplicate detection) are what this test pins;
	// steal counts are reported for visibility only.
	t.Logf("SIGKILL+steal run: death confirmed, %d reexecuted, %d steals (%d tasks), %d aborts, checksum bit-identical",
		reexecuted, steals, stolenTasks, aborts)
}
