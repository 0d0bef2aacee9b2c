// Multi-process network mode: with -net, rank 0's process (the launcher)
// reserves one loopback TCP port per rank, re-execs itself once per rank
// with -rank-id/-peers, and merges the children's JSON reports into the
// run's checksum — each rank is a real OS process talking real sockets.
// With -net-kill-rank, the victim process SIGKILLs itself mid-run and the
// launcher verifies the survivors recovered through the fail-stop path.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"gottg/internal/comm/tcptransport"
	"gottg/internal/taskbench"
)

var (
	flagNet       = flag.Bool("net", false, "with -ranks: run each rank as a separate OS process over loopback TCP")
	flagRankID    = flag.Int("rank-id", -1, "internal: run as this rank of a -net world (child mode)")
	flagPeers     = flag.String("peers", "", "internal: comma-separated rank addresses for -rank-id mode")
	flagSuspectMS = flag.Int("net-suspect-ms", 2000, "failure-detection suspicion budget (ms) for -net runs")

	flagNetKillRank  = flag.Int("net-kill-rank", -1, "with -net: SIGKILL this rank's process mid-run")
	flagNetKillAfter = flag.Int64("net-kill-after", 50, "kill the -net victim after it has executed this many tasks")

	flagFaultSeed     = flag.Uint64("net-fault-seed", 0, "with -net: seed the socket fault injector (0 = off)")
	flagFaultConnKill = flag.Float64("net-fault-connkill", 0, "per-frame probability of killing the connection")
	flagFaultTorn     = flag.Float64("net-fault-torn", 0, "per-frame probability of a torn write")
	flagFaultPart     = flag.Float64("net-fault-partition", 0, "per-frame probability of starting a partition episode")

	flagTelemetry    = flag.Bool("telemetry", false, "with -net: enable the cluster telemetry plane (per-rank sampling streamed to rank 0)")
	flagTelemetryInt = flag.Duration("telemetry-interval", 250*time.Millisecond, "with -telemetry: sampling interval")
	flagObs          = flag.String("obs", "", "with -telemetry: rank 0 serves /cluster.json and rank-labelled /metrics on this address")
	flagFlightDir    = flag.String("flight-dir", "", "with -telemetry: directory for flight-recorder dumps (default: working dir)")
)

const netResultMarker = "GOTTG_NET_RESULT "

// netFaultConfig assembles the child's fault injector config from flags
// (nil when no fault seed was given), offsetting the seed per rank so the
// fault streams differ across processes but replay deterministically.
func netFaultConfig(rank int) *tcptransport.FaultConfig {
	if *flagFaultSeed == 0 {
		return nil
	}
	return &tcptransport.FaultConfig{
		Seed:          *flagFaultSeed + uint64(rank)*0x9e3779b97f4a7c15,
		ConnKillProb:  *flagFaultConnKill,
		TornWriteProb: *flagFaultTorn,
		PartitionProb: *flagFaultPart,
	}
}

// runNetChild executes one rank and reports its RankReport on stdout.
func runNetChild(spec taskbench.Spec, o taskbench.DistOptions) {
	rank := *flagRankID
	tr, err := tcptransport.New(tcptransport.Config{
		Self:  rank,
		Peers: strings.Split(*flagPeers, ","),
		Fault: netFaultConfig(rank),
	})
	var res taskbench.RankReport
	if err == nil {
		res, err = taskbench.RunRank(spec, tr, o)
	}
	var out []byte
	if err == nil {
		out, err = json.Marshal(res)
	}
	if err != nil {
		fatal(fmt.Sprintf("rank %d: %v", rank, err))
	}
	fmt.Println(netResultMarker + string(out))
}

// launchNet runs the ranks as child processes and merges their reports.
func launchNet(spec taskbench.Spec, o taskbench.DistOptions) (taskbench.Result, taskbench.DistReport, error) {
	none := func(err error) (taskbench.Result, taskbench.DistReport, error) {
		return taskbench.Result{}, taskbench.DistReport{}, err
	}
	ranks := min(o.Ranks, spec.Width)
	lns, addrs, err := taskbench.LoopbackAddrs(ranks)
	if err != nil {
		return none(err)
	}
	// Free the reserved ports so the children can re-bind them.
	for _, ln := range lns {
		ln.Close()
	}
	exe, err := os.Executable()
	if err != nil {
		return none(err)
	}
	outs := make([]bytes.Buffer, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < ranks; r++ {
		args := []string{
			"-rank-id", fmt.Sprint(r),
			"-peers", strings.Join(addrs, ","),
			"-pattern", spec.Pattern.String(),
			"-width", fmt.Sprint(spec.Width),
			"-steps", fmt.Sprint(spec.Steps),
			"-flops", fmt.Sprint(spec.Flops),
			"-skew", fmt.Sprint(spec.Skew),
			"-sleep-ns", fmt.Sprint(spec.SleepNs),
			fmt.Sprintf("-steal=%v", *flagSteal),
			fmt.Sprintf("-priority=%v", *flagPriority),
			"-threads", fmt.Sprint(*flagThreads),
			"-net-suspect-ms", fmt.Sprint(*flagSuspectMS),
			"-net-kill-rank", fmt.Sprint(*flagNetKillRank),
			"-net-kill-after", fmt.Sprint(*flagNetKillAfter),
			"-net-fault-seed", fmt.Sprint(*flagFaultSeed),
			"-net-fault-connkill", fmt.Sprint(*flagFaultConnKill),
			"-net-fault-torn", fmt.Sprint(*flagFaultTorn),
			"-net-fault-partition", fmt.Sprint(*flagFaultPart),
			fmt.Sprintf("-telemetry=%v", *flagTelemetry),
			"-telemetry-interval", flagTelemetryInt.String(),
			"-obs", *flagObs,
			"-flight-dir", *flagFlightDir,
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &outs[r]
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return none(fmt.Errorf("start rank %d: %w", r, err))
		}
		wg.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[r] = cmd.Wait()
		}(r, cmd)
	}
	wg.Wait()
	wall := time.Since(t0)

	var results []taskbench.RankReport
	for r := 0; r < ranks; r++ {
		if errs[r] != nil {
			if r == *flagNetKillRank {
				continue // the victim is supposed to die
			}
			return none(fmt.Errorf("rank %d process failed: %w\n%s", r, errs[r], outs[r].String()))
		}
		sc := bufio.NewScanner(bytes.NewReader(outs[r].Bytes()))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, netResultMarker) {
				continue
			}
			var res taskbench.RankReport
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, netResultMarker)), &res); err != nil {
				return none(fmt.Errorf("rank %d: bad result: %w", r, err))
			}
			results = append(results, res)
			found = true
		}
		if !found {
			return none(fmt.Errorf("rank %d exited cleanly but reported nothing", r))
		}
	}
	if k := *flagNetKillRank; k >= 0 && k < ranks && errs[k] == nil {
		return none(fmt.Errorf("victim rank %d exited cleanly; the kill never fired", k))
	}

	res, err := taskbench.MergeNetResults(spec, results)
	res.Elapsed = wall // report launcher wall time (includes process spawn)
	return res, taskbench.Summarize(results), err
}
