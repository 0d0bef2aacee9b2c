// Command ttg-bench regenerates every figure of "Pushing the Boundaries of
// Small Tasks" (CLUSTER'22) as textual tables. Each subcommand corresponds
// to one figure; see EXPERIMENTS.md for the mapping and for recorded
// paper-vs-measured results.
//
// Usage:
//
//	ttg-bench [flags] fig1|fig5|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|model|all
//	ttg-bench [-json] bench            # LLP vs LFQ smoke matrix, BENCH records
//	ttg-bench [-json] metg             # METG(50%) granularity sweep, priorities off vs on, BENCH records
//	ttg-bench [-json] steal            # work-stealing matrix (balanced/skewed x off/on), BENCH records
//	ttg-bench [-json] [-trace f] critpath  # causal critical-path profile (docs/OBSERVABILITY.md)
//	ttg-bench [-json] telemetry        # telemetry-plane overhead A/B, BENCH records
//	ttg-bench [-url u] [-refresh d] [-count n] top  # live per-rank cluster table from /cluster.json
//	ttg-bench chaos                    # fail-stop recovery demo (docs/ROBUSTNESS.md)
//	ttg-bench validate [files...]      # validate BENCH record streams
//
// Thread-scaling figures print `measured` series for thread counts the host
// can actually run (<= NumCPU) and `modeled` series from the calibrated
// contention model (internal/perfmodel) for the paper's full thread range;
// -mode selects one or both.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"gottg/internal/bench"
	"gottg/internal/perfmodel"
	"gottg/internal/spin"
)

var (
	flagThreads = flag.Int("threads", 0, "max thread count for scaling figures (0 = paper value)")
	flagMode    = flag.String("mode", "both", "measured|modeled|both")
	flagFull    = flag.Bool("full", false, "paper-scale problem sizes (slow); default is laptop scale")
	flagGHz     = flag.Float64("ghz", 2.7, "nominal CPU clock for cycle accounting")
	flagArch    = flag.String("arch", "amd", "contention-model architecture: amd|power9")
	flagCSV     = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	flagJSON    = flag.Bool("json", false, "emit BENCH records as JSON lines (bench subcommand)")
	flagTrace   = flag.String("trace", "", "critpath: write the merged Chrome trace (with flow events) to this file")
)

// ctx bundles the harness configuration shared by all figures.
type ctx struct {
	csv      bool
	mode     string
	full     bool
	ghz      float64
	arch     perfmodel.ArchCosts
	maxT     int // paper thread count for modeled series
	hostCPUs int
	cal      perfmodel.Calibration
	calDone  bool
}

func (c *ctx) measured() bool { return c.mode == "measured" || c.mode == "both" }
func (c *ctx) modeled() bool  { return c.mode == "modeled" || c.mode == "both" }

// calibration lazily measures the model constants.
func (c *ctx) calibration() perfmodel.Calibration {
	if !c.calDone {
		fmt.Println("# calibrating contention model (single-worker runtime probes)...")
		c.cal = perfmodel.Calibrate(c.arch)
		c.calDone = true
		fmt.Printf("# calibration: LLP=%.0fns/task LFQ=%.0fns/task lock=%.0fns barrier=%.0fns/thread arch=%s slope=%.1fns\n",
			c.cal.LLPOverheadNs, c.cal.LFQOverheadNs, c.cal.LFQGlobalNs,
			c.cal.BarrierNsPerThread, c.arch.Name, c.arch.ContendedSlopeNs)
	}
	return c.cal
}

// measurableThreads clips a thread list to what the host can truly run in
// parallel.
func (c *ctx) measurableThreads(list []int) []int {
	out := []int{}
	for _, t := range list {
		if t <= c.hostCPUs {
			out = append(out, t)
		}
	}
	return out
}

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: ttg-bench [flags] fig1|fig2|fig5|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|model|chaos|all|bench|metg|steal|critpath|telemetry|top|validate [files...]")
		os.Exit(2)
	}
	spin.SetClockGHz(*flagGHz)
	arch := perfmodel.AMDRome
	if *flagArch == "power9" {
		arch = perfmodel.IBMPower9
	}
	c := &ctx{
		csv:      *flagCSV,
		mode:     *flagMode,
		full:     *flagFull,
		ghz:      *flagGHz,
		arch:     arch,
		maxT:     *flagThreads,
		hostCPUs: runtime.NumCPU(),
	}
	if !*flagJSON {
		bench.Env(os.Stdout)
	}
	args := flag.Args()
	for i := 0; i < len(args); i++ {
		cmd := args[i]
		switch cmd {
		case "bench":
			figBench(c)
		case "metg":
			cmdMETG(c)
		case "steal":
			figSteal(c)
		case "critpath":
			cmdCritpath(c)
		case "telemetry":
			cmdTelemetry(c)
		case "top":
			cmdTop(c)
		case "validate":
			// Remaining arguments are record files, not figure names.
			cmdValidate(args[i+1:])
			return
		case "fig1":
			fig1(c)
		case "fig2":
			fig2(c)
		case "fig5":
			fig5(c)
		case "fig6a":
			fig6(c, true)
		case "fig6b":
			fig6(c, false)
		case "fig7":
			figTaskBench(c, "Fig 7: Task-Bench on 1 core (stencil_1d)", 1, false)
		case "fig8":
			figTaskBench(c, "Fig 8: Task-Bench at full node scale (stencil_1d)", defaultInt(c.maxT, 64), true)
		case "fig9":
			fig9(c)
		case "fig10":
			figTaskBench(c, "Fig 10: Task-Bench on 1 core, Summit-style reduced set", 1, false)
		case "fig11":
			figTaskBench(c, "Fig 11: Task-Bench at 22 cores (Summit-style)", defaultInt(c.maxT, 22), true)
		case "fig12":
			fig12(c)
		case "model":
			figModel(c)
		case "chaos":
			figChaos(c)
		case "all":
			fig1(c)
			fig5(c)
			fig6(c, true)
			fig6(c, false)
			figTaskBench(c, "Fig 7: Task-Bench on 1 core (stencil_1d)", 1, false)
			figTaskBench(c, "Fig 8: Task-Bench at full node scale (stencil_1d)", defaultInt(c.maxT, 64), true)
			fig9(c)
			fig12(c)
			figModel(c)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", cmd)
			os.Exit(2)
		}
	}
}

// printTable renders a result table in the selected output format.
func (c *ctx) printTable(t *bench.Table) {
	if c.csv {
		t.PrintCSV(os.Stdout)
		return
	}
	t.Print(os.Stdout)
}

func defaultInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}
