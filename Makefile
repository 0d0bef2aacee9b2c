# go-ttg build/test/benchmark entry points.

GO ?= go

.PHONY: all build vet test race ci-filters bench benchmark noise figures examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every `go test -run FILTER` in .github/workflows/ci.yml must still select a
# test: go test exits 0 when a filter matches nothing.
ci-filters:
	GO=$(GO) sh scripts/ci-filters.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# The BENCHMARK.json benchmark, all five workloads interleaved (see
# benchmark/README.md); `noise` runs this commit against itself to show how
# far two medians of the same code differ on this host (-> benchmark/NOISE.md).
benchmark:
	bash benchmark/run.sh --workload all --seconds 30 --trace 0

noise:
	bash benchmark/repeat.sh 5

# Regenerate every paper figure at laptop scale (use FLAGS="-full -threads 64"
# on a big machine).
figures:
	$(GO) run ./cmd/ttg-bench $(FLAGS) all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/distributed
	$(GO) run ./examples/cholesky -n 256 -b 32
	$(GO) run ./examples/wavefront -n 1024 -b 128
	$(GO) run ./examples/heat -n 128 -b 32 -steps 30

clean:
	$(GO) clean ./...
