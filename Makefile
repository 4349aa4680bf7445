GO ?= go

.PHONY: all build vet test race bench bench-engine experiments examples full validate sweep docs soak campaign resume-smoke churn-smoke clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... 2>&1 | tee test_output.txt

# -short skips the heaviest figure runners in internal/exp (hours under
# the race detector); the worker-pool and determinism-across-worker-count
# tests stay enabled so the concurrent paths are race-checked.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Engine microbenchmarks only: must report 0 allocs/op.
bench-engine:
	$(GO) test ./internal/sim/ -run '^$$' -bench Engine -benchtime 200ms

# The one way to produce experiments_output.md, the committed byte-exact
# table of every registered experiment at scale 0.15, seed 1 (~2 min on two
# cores). CI regenerates it and fails on any diff.
experiments:
	$(GO) run ./cmd/mptcp-bench -scale 0.15 -seed 1 -markdown > experiments_output.md

# Every example end to end, each under a time bound (the slowest, the
# datacentre one, takes ~20 s): go build alone does not show an example that
# wires the library wrongly or no longer finishes.
examples:
	for d in examples/*/; do echo "== $$d"; timeout 120 $(GO) run ./$$d || exit 1; done

full:
	$(GO) run ./cmd/mptcp-bench -full

# Fluid-vs-packet conformance for every algorithm (EXPERIMENTS.md,
# "Validation methodology"); CI diffs this against the committed golden,
# internal/backend/testdata/conformance_golden.txt.
validate:
	$(GO) run ./cmd/mptcp-bench -validate

# Hybrid fluid/packet sweep over the calibrated default grid
# (docs/backends.md): 1008 points solved on the fluid engine with a
# deterministic 5% packet spot check. Exit 3 names any disagreeing point.
sweep:
	$(GO) run ./cmd/mptcp-bench -sweep -loads 0:0.15:28

# Repository gates (docs_test.go), the one list CI's docs job runs:
# package comments, package-map coverage, CLI flag docs, markdown file
# references; supervision kept in internal/supervise (no stray recover,
# time.Sleep, os.Exit, exit-code error literal or internal/runner import
# outside it and its pool); runs wired and observed
# only through backend.Run; algorithm hooks called only from core and tcp;
# periodic work kept on sim.Ticker (no function that schedules itself);
# every exported func under internal/ called outside tests, every exported
# config field written, and no map range in the simulation packages.
docs:
	$(GO) test -run 'TestPackageComments|TestPackageMapCoversEveryPackage|TestCLIFlagsDocumented|TestMarkdownFileReferencesResolve|TestSupervisionLivesInOnePlace|TestRunsRunInOnePlace|TestAlgorithmHooksLiveInTcp|TestPeriodicWorkUsesTicker|TestExportedFuncsHaveCallers|TestConfigFieldsHaveWriters|TestNoMapRangeInSimulationPackages' -v .

# Bounded chaos soak (EXPERIMENTS.md, "Soak & quarantine methodology"):
# 60 generated scenarios under invariants and the run supervisor. Exit 3
# means failing scenarios were shrunk and quarantined into ./quarantine/;
# replay one with: go run ./cmd/mptcp-sim -replay quarantine/<file>.json
soak:
	$(GO) run ./cmd/mptcp-sim -soak 60 -seed 1 -soak-dir quarantine

# Checkpointed, resumable campaign of every figure across three seeds
# (EXPERIMENTS.md, "Resumable campaigns"). Kill it at any point — Ctrl-C,
# OOM, CI timeout — and continue with:
#   go run ./cmd/mptcp-bench -resume campaign_out
campaign:
	$(GO) run ./cmd/mptcp-bench -campaign campaign_out -scale 0.15 -seeds 1,2,3

# Kill/resume determinism through the real binary and the real signal path:
# SIGINT a campaign mid-flight, resume it, byte-diff the merged outputs
# against an uninterrupted run (scripts/resume_smoke.sh).
resume-smoke:
	$(GO) build -o mptcp-bench ./cmd/mptcp-bench
	./scripts/resume_smoke.sh ./mptcp-bench
	rm -f mptcp-bench

# Population-churn smoke (EXPERIMENTS.md, "Population workloads"): an
# open-loop and an overloaded run under the invariant checker; overload
# must degrade by deterministic shedding (exit 0), never by failure.
churn-smoke:
	$(GO) run ./cmd/mptcp-sim -topo fattree -alg lia -churn 2000 -check
	$(GO) run ./cmd/mptcp-sim -topo fattree -alg lia -churn 2000 -max-flows 120 -check

clean:
	rm -f test_output.txt bench_output.txt mptcp-bench mptcp-sim
	rm -rf quarantine campaign_out
