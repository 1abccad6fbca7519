# Tiered checks. tier1 is the seed gate (ROADMAP.md); race adds the race
# detector over the full suite — required on every PR now that the
# experiment engine fans simulations out across goroutines. check adds a
# gofmt cleanliness gate, a docs gate, and five explicit end-to-end gates
# on top of both tiers: ffdiff (fast-forward vs ticked simulation), ckdiff
# (compiled + batched circuit kernels vs interpreted loop), serve-smoke
# (clrserve daemon report vs direct sim.Run, byte-identical), compdiff
# (registry-composed default memory system vs the seed, bit-identical),
# and ffbench-smoke (fast-forward must not lose to planner-off on the
# memory-intensive profile) — plus bench-check, which builds and tests the
# standing benchmark's own module.

.PHONY: all tier1 race check fmt docs-check ffdiff ckdiff serve-smoke compdiff ffbench-smoke bench-check bench bench-ff bench-circuit report

all: check

tier1:
	go build ./...
	go vet ./...
	go test ./...

# race runs the simulator package first and by itself: the decoupled
# fast-forward stretch (DESIGN.md §15) shares core/controller state with the
# worker-fanned experiment engine, so its identity and lag-invariant tests are
# the suite's most race-sensitive surface. The second line covers the rest of
# the tree without re-running it.
race:
	go test -race ./internal/sim/...
	go test -race $$(go list ./... | grep -v '/internal/sim')

# fmt fails (listing the offending files) if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# docs-check is the documentation gate: gofmt cleanliness, go vet, and a
# godoc audit that every exported top-level identifier in the solver
# packages (internal/circuit, internal/spice) carries a doc comment — the
# batched-kernel PR's documentation pass keeps these two packages fully
# navigable from godoc alone.
docs-check: fmt
	go vet ./internal/circuit/ ./internal/spice/
	@bad="$$(awk 'FNR==1{prev=""} \
		/^(func|type|var|const) [A-Z]/ || /^func \([a-z] \*?[A-Z][A-Za-z0-9]*\) [A-Z]/ { \
			if (prev !~ /^\/\//) print FILENAME":"FNR": "$$0 } \
		{prev=$$0}' $$(ls internal/circuit/*.go internal/spice/*.go | grep -v _test))"; \
	if [ -n "$$bad" ]; then \
		echo "exported identifiers missing doc comments:"; echo "$$bad"; exit 1; fi

# ffdiff proves the next-event fast-forward path bit-identical to the
# ticked loop: same Result, same canonical RunReport, same figure CSVs,
# across the full 71-profile workload set, a 4-core mix, an end-to-end
# Fig. 12 CSV (DESIGN.md §9), and — for the decoupled per-core lag path
# (DESIGN.md §15) — the heterogeneous-mix matrix (1mcf+3gamess,
# 2mcf+2gamess, 4×random with fast-forward on vs off, plus an
# experiment-level sweep at workers 1 and 4), the RunFor retirement-ceiling
# legs, and the flush-boundary twin invariant. Also part of `go test ./...`;
# called out here so `make check` names the property it guards.
ffdiff:
	go test ./internal/sim -run 'TestFastForwardIdentity|TestDecoupled' -count=1

# ckdiff proves the compiled circuit-stepping kernel AND the batched
# K-draw kernel bit-identical to the interpreted reference loop: exact
# RawTimings equality over every netlist (6 modes × activate/precharge/
# write, nominal + Monte Carlo variation draws + the refresh-window
# sweep), the in-place Reparam path vs rebuilding from scratch,
# kernel-level stepwise identity under post-compile mutation, batched
# extraction vs the one-lane path at several widths, Monte Carlo
# invariance under the batch width, per-lane failure isolation, and the
# CheckStride overshoot bound on all three paths (DESIGN.md §10, §12).
# Both sides of those pairs run the same phase sequence, so
# TestSinglePathDigest also pins the one-lane outputs (Fig. 7 waveforms,
# the Fig. 11 sweep, nominal extractions, the depleted-cell error) to a
# recorded hash. Ends with a K>1 smoke run of the shipped binary. Also
# part of `go test ./...`.
ckdiff:
	go test ./internal/spice -run 'TestCompiledIdentity|TestReparamMatchesRebuild|TestBatchExtract|TestMonteCarloBatchWidthIdentity|TestCheckStrideOvershootBound|TestSinglePathDigest' -count=1
	go test ./internal/circuit -run 'TestKernelIdentity|TestRecompile|TestBatch' -count=1
	go run ./cmd/circuitsim -ckbatch 4 -iters 64 -table1 >/dev/null

# serve-smoke is the end-to-end determinism gate of the clrserve daemon:
# start it on a random port, submit a tiny Fig. 12 sweep over HTTP, poll
# to completion, and byte-diff the fetched report against the canonical
# report of a direct sim.Run with the same spec and options, then shut
# down cleanly (SERVING.md). The same property is also enforced
# in-process by TestServerReportMatchesDirectRun in `go test ./...`.
serve-smoke:
	go run ./cmd/clrserve -smoke

# compdiff is the composable-API identity gate (DESIGN.md §14): the
# registry-driven construction path must leave the paper's default
# composition bit-identical — a zero configuration and one with every
# default registry name (standard, scheduler, row policy, mapper) spelled
# out explicitly produce the same Result, canonical RunReport, and Fig. 12
# CSV bytes at any worker count — and every scheduler × row-policy pair
# must stay fast-forward/ticked bit-identical on the four-core mix. The
# second line runs the FR-FCFS(-Cap) one-walk scan in lockstep with the
# two-pass reference it replaced (DESIGN.md §16), plus its fuzz seed corpus.
# Also part of `go test ./...`.
compdiff:
	go test ./internal/sim -run 'TestDefaultComposition|TestCompositionIdentityMatrix' -count=1
	go test ./internal/mem -run 'TestScheduleWalkMatchesTwoPass|FuzzScheduleWalkMatchesTwoPass' -count=1

# ffbench-smoke is the fast-forward performance gate: a short interleaved
# off-vs-on measurement on the memory-intensive profile asserting planner
# overhead does not drag throughput below the plain per-cycle loop (within
# a 3% noise tolerance).
ffbench-smoke:
	go run ./cmd/ffbench -smoke -instructions 300000

# bench-check vets and tests the standing benchmark (clrbench/, BENCHMARK.json).
# It is a module of its own, so `go test ./...` above never builds it, yet it
# calls into spice and circuit directly; this catches an API change that
# breaks it (~5 s).
bench-check:
	cd clrbench && go vet ./... && go test ./...

check: tier1 race fmt docs-check ffdiff ckdiff serve-smoke compdiff ffbench-smoke bench-check

bench:
	go test -bench=. -benchmem -run=^$$ .

# bench-ff measures the fast-forward payoff (off vs on) over the
# compute-bound, memory-intensive, and random single-core profiles plus the
# heterogeneous multi-core mixes the decoupled lag path targets, and writes
# BENCH_ff.json (EXPERIMENTS.md tables W4/W6/W7).
bench-ff:
	go run ./cmd/ffbench -out BENCH_ff.json

# bench-circuit measures the compiled stepping kernel against the seed
# configuration (interpreted loop, stop condition checked every step) at
# three granularities — raw step, full extraction, parallel Monte Carlo
# campaign — then sweeps the campaign over batch widths (interleaved
# rounds, per-width minima as the least-interference estimate) and
# writes BENCH_circuit.json (EXPERIMENTS.md tables W2 and W3).
bench-circuit:
	go run ./cmd/circuitsim -bench -bench-out BENCH_circuit.json

# report runs a short canned experiment and emits its observability
# report as JSON (see OBSERVABILITY.md for the schema).
report:
	go run ./cmd/clrsim -workload 429.mcf-like -hp 0.5 \
		-instructions 200000 -stats-out -
