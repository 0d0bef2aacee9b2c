#!/usr/bin/env bash
# repeat.sh [N] — is the benchmark steady enough to judge a change by?
#
# Builds once, then runs the same code as two sets, A and B, of N runs each
# (default 5; one run = every workload once, each in its own process with its
# own seed, exactly as the driver of BENCHMARK.json invokes it), alternating
# A and B so that both sets see the same drift of the host. For every
# workload x end-to-end metric it prints both medians and quartiles, the
# spread of each set and of both pooled (quartile distance over median,
# Python's statistics.quantiles as the driver uses), the difference between
# the two medians and the metric's bound; it fails if a difference or a spread
# exceeds its bound, and writes the table to benchmark/NOISE.md.
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:-5}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cpus=$(nproc)
load=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
if [ "$cpus" -lt 2 ]; then
	echo "repeat.sh: warning: $cpus CPU; the workloads want 2 worker threads and will timeshare" >&2
fi
if python3 -c "import sys; sys.exit(0 if float('$load') > 0.5 else 1)"; then
	echo "repeat.sh: warning: 1-min load average is $load; something else is running" >&2
fi

bash benchmark/run.sh -workload stencil_local -reps 1 >/dev/null # build
bin=.bench_build/ttg-benchmark
out=.bench_out/repeat
rm -rf "$out"
mkdir -p "$out"

seed=1000
for i in $(seq 1 "$n"); do
	order="A B"
	if [ $((i % 2)) -eq 0 ]; then order="B A"; fi
	for set in $order; do
		for w in $workloads; do
			seed=$((seed + 1))
			echo "repeat.sh: run $i/$n set $set $w seed $seed" >&2
			"$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >"$out/$set.$w.$i.json"
		done
	done
done

{
	echo "# Run-to-run noise of the benchmark"
	echo
	echo "Written by \`benchmark/repeat.sh $n\`: two sets of $n runs of the same code,"
	echo "alternating, $seconds s per run. A metric passes when the two medians differ by"
	echo "no more than its bound and each set's spread stays inside it."
	echo
	echo "- date: $(date -u +%Y-%m-%dT%H:%MZ)"
	echo "- nproc: $cpus, GOMAXPROCS: ${GOMAXPROCS:-$cpus}, 1-min load before the runs: $load"
	echo "- CPU: $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
	echo "- kernel: $(uname -sr)"
	echo "- $(go version)"
	echo
} >"$out/head.md"

python3 benchmark/noise.py "$out" >"$out/table.md" && ok=0 || ok=$?
cat "$out/head.md" "$out/table.md" | tee benchmark/NOISE.md
exit "$ok"
