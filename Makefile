GO ?= go
VET_BIN := bin/divtopk-vet

.PHONY: all build test race bench bench-smoke lint lint-custom vet-tool clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# What the race CI job runs: the whole suite under the race detector with
# shuffled test order, so accidental inter-test ordering dependencies and
# data races both surface.
race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -run '^$$' -bench Baseline -benchmem -benchtime 1x ./internal/bench/

# bench-smoke runs the repository benchmark's smoke test: both perfbench
# workloads at toy size against a freshly built divtopkd, every declared
# metric printed with its unit, and a corrupted expected answer rejected.
# perfbench is a nested module that imports the root API and internal
# packages, so the root ./... patterns never build it — a root change can
# break the benchmark unnoticed unless this target runs.
bench-smoke:
	cd perfbench && $(GO) test .

# vet-tool builds the custom analyzer suite. tools/vet is a nested module
# (so the root module stays dependency-free), hence the cd: the root
# ./... patterns do not reach it.
vet-tool:
	cd tools/vet && $(GO) build -o ../../$(VET_BIN) ./cmd/divtopk-vet

# lint is the single local entry point for every static gate CI enforces:
# formatting, stock go vet, the analyzer suite's own tests (race detector
# on — the suite exercises the engine's concurrency shapes), and the
# divtopk-vet invariant checks over the repository AND over the analyzer
# suite itself, with the per-analyzer finding/suppression/stale summary.
# The gofmt sweep skips testdata trees: analyzer corpora are fixtures whose
# layout (want-comment alignment) is part of the test, and their src dirs
# are not packages of any module here.
lint: vet-tool
	@out=$$(find . -path ./bin -prune -o -name '*.go' -not -path '*/testdata/*' -print | xargs gofmt -l); \
		if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd tools/vet && $(GO) test -race -shuffle=on ./...
	./$(VET_BIN) -summary ./...
	./$(VET_BIN) -summary -dir tools/vet ./...

# lint-custom runs only the divtopk-vet invariant checks (fast inner loop).
lint-custom: vet-tool
	./$(VET_BIN) -summary ./...
	./$(VET_BIN) -summary -dir tools/vet ./...

clean:
	rm -rf bin
