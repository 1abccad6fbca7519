# Tiered checks. tier1 is the seed gate (ROADMAP.md); race adds the race
# detector over the full suite — required on every PR now that the
# experiment engine fans simulations out across goroutines. check adds a
# gofmt cleanliness gate, a docs gate, and six explicit end-to-end gates
# on top of both tiers: ffdiff (fast-forward vs ticked simulation), ckdiff
# (compiled + batched circuit kernels vs interpreted loop), serve-smoke
# (clrserve daemon report vs direct sim.Run, byte-identical), compdiff
# (name-composed default memory system vs the seed, bit-identical),
# recdiff (record streams and LLC vs their references, bit-identical),
# and ffbench-smoke (fast-forward must not lose to the ticked loop on the
# memory-intensive profile) — plus bench-check, which builds and tests the
# standing benchmark's own module.

.PHONY: all tier1 race check fmt docs-check ffdiff ckdiff serve-smoke compdiff recdiff ffbench-smoke bench-check bench bench-ff bench-circuit report

all: check

tier1:
	go build ./...
	go vet ./...
	go test ./...

# race runs the simulator package first and by itself: the fast-forward
# loop's lagged cores (DESIGN.md §9) share core/controller state with the
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

# ffdiff proves the next-event fast-forward loop (DESIGN.md §9) bit-identical
# to the ticked loop: same Result, same canonical RunReport, same figure CSVs,
# across the full 71-profile workload set, a 4-core mix, an end-to-end
# Fig. 12 CSV, and — for per-core lag — the heterogeneous-mix matrix
# (1mcf+3gamess, 2mcf+2gamess, 4×random with fast-forward on vs off, plus an
# experiment-level sweep at workers 1 and 4), the RunFor retirement-ceiling
# legs, and the flush-boundary twin invariant on the 1mcf+3gamess mix and on
# mcf alone, whose single core lags through its memory stalls and jumps
# (TestDecoupled*, which also checks on the standing benchmark's three
# simulator configurations that jumped and lagged cycles are counted
# disjointly). The integer device clock the jumps rest on is checked here
# too: the derived clocks of both standards tick for tick against the
# float64 accumulator they replaced, the closed-form span and idle cycles
# against the per-cycle walk, and an on/off identity leg at a 3.3 GHz core
# (a 4/11 clock). TestFastForwardIdentityBackpressure runs a
# four-core mix on queues small enough that cores block on the memory port,
# which no fast-forward class covers, and TestFastForwardIdentityAcrossReconfigure
# runs a lagging mix across a stop-the-world migration, after which every
# core's own clock trails the system clock and a core's first lag replays
# the epoch boundaries the pause crossed. The second line checks the
# controller's half: TestSkipTicksMatchesTickedTwin against a ticked twin
# (its cap-trips leg trips the row-hit cap, so SkipTicks replays CapTrips),
# TestSkipTicksPanicsOutsideDrainFixpoint pins SkipTicks' precondition (a
# span starts only from a settled horizon, so never outside a drain
# fixpoint), the tick oracle (TestHorizonMatchesTicks on the default
# composition, TestCompositionHorizonNeverOvershoots on every scheduler ×
# row-policy pair) checks every NextEventCycle answer against what the
# ticked controller then does: no action before a horizon, and in
# refresh-free runs the first action exactly on it, and the memo-free twin
# (TestMemoFreeTwin, every pair with refresh) checks the controller's memos
# (the schedule memo with the CapTrips it replays, the row-close entries)
# against a twin that drops them all before every tick. Also part of
# `go test ./...`; called out here so `make check` names the property it
# guards.
ffdiff:
	go test ./internal/sim -run 'TestFastForwardIdentity|TestDecoupled|TestDeviceClock' -count=1
	go test ./internal/mem -run 'TestSkipTicks|TestHorizonMatchesTicks|TestCompositionHorizonNeverOvershoots|TestMemoFreeTwin' -count=1

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
# name-driven construction path must leave the paper's default
# composition bit-identical — a zero configuration and one with every
# default name (standard, scheduler and row policy) spelled out
# explicitly produce the same Result, canonical RunReport, and Fig. 12
# CSV bytes at any worker count — and every scheduler × row-policy pair
# must stay fast-forward/ticked bit-identical on the four-core mix. The
# gate also checks that the composition reaches the checkpoint namespace:
# TestCheckpointNamespaceCoversComposition runs an fcfs/closed Fig. 12
# sweep into a store holding a default sweep's shards and requires the
# result of the same sweep without a store (DESIGN.md §7). The gate also
# checks that each figure equals per-run references under content-keyed
# shards: TestSweepShardKeyCoversProfile sweeps a profile edited under an
# unchanged name into a store holding the original's shards and requires
# its store-free result, TestFig13AloneIPCPerProfile requires each mix's
# weighted speedup to divide by its own profiles' alone runs when two
# profiles share a name, and TestWarmupForkIdentityFig12CSV and the three
# *MatchesPerRunReference tests compare Figures 12, 13 and 15 and the §9
# comparison against references assembled from independent per-run Run
# calls, at workers 1 and 4. The
# second line runs the FR-FCFS(-Cap) scan over the per-bank candidate index
# in lockstep with the two-pass age-order reference (DESIGN.md §16), plus
# its fuzz seed corpus, and TestQueueIndexInvariant, which recounts the
# whole index on every tick for all three schedulers (each bank's
# oldest hit, oldest conflict and capped-hit count, the bank masks, whose
# hit bits answer the row policies' open-row exemption, and the at-cap
# mask) and requires the bank lists merged by sequence number to equal the
# queues' arrival order. Also part of `go test ./...`.
compdiff:
	go test ./internal/sim -run 'TestDefaultComposition|TestCompositionIdentityMatrix|TestCheckpointNamespaceCoversComposition|TestSweepShardKeyCoversProfile|TestFig13AloneIPCPerProfile|TestWarmupForkIdentityFig12CSV|MatchesPerRunReference' -count=1
	go test ./internal/mem -run 'TestScheduleWalkMatchesTwoPass|FuzzScheduleWalkMatchesTwoPass|TestQueueIndexInvariant' -count=1

# recdiff proves the record and warm-up path bit-identical to the code it
# replaced (DESIGN.md §17): every record stream and every LLC outcome,
# victim, waiter call and counter is the same. TestRecordStreamGoldens pins
# the first 100,000 records of all 71 built-in profiles to digests recorded
# before the by-value PRNG; TestLagFibMatchesMathRand draws a million
# interleaved Float64/Intn values per seed against math/rand itself (every
# Intn path: mask, Int31n's rejection loop, the Int63n branch), and
# TestCloneReaderContinuesStream forks generators around the source's
# 607-word lag and after 100,000 records. TestCacheMatchesReference runs
# the recency-ordered tag store in lockstep with the per-set timestamp
# model over five geometries with a mid-stream Clone,
# TestPackedKeyKeepsEveryTagBit writes back a dirty line at the largest tag
# (2^63−1), and FuzzCacheMatchesReference's seed corpus replays decoded
# operation streams on the same five geometries. Also part of
# `go test ./...`.
recdiff:
	go test ./internal/workload -run 'TestRecordStreamGoldens|TestLagFib|TestCloneReaderContinuesStream' -count=1
	go test ./internal/cache -run 'TestCacheMatchesReference|TestPackedKeyKeepsEveryTagBit|FuzzCacheMatchesReference' -count=1

# ffbench-smoke is the fast-forward performance gate: five short rounds on
# the memory-intensive profile, each running fast-forward off then on and
# printing their throughput ratio, asserting that the median ratio shows the
# fast-forward loop's bookkeeping does not drag throughput below the plain
# per-cycle loop (within a 3% noise tolerance). The median keeps one
# outlying run in either mode from deciding the verdict.
ffbench-smoke:
	go run ./cmd/ffbench -smoke -instructions 300000

# bench-check vets and tests the standing benchmark (clrbench/, BENCHMARK.json).
# It is a module of its own, so `go test ./...` above never builds it, yet it
# calls into spice and circuit directly; this catches an API change that
# breaks it (~5 s).
bench-check:
	cd clrbench && go vet ./... && go test ./...

check: tier1 race fmt docs-check ffdiff ckdiff serve-smoke compdiff recdiff ffbench-smoke bench-check

bench:
	go test -bench=. -benchmem -run=^$$ .

# bench-ff measures the fast-forward payoff (off vs on) over the
# compute-bound, memory-intensive, and random single-core profiles plus the
# heterogeneous multi-core mixes per-core lag targets, and writes
# BENCH_ff.json (EXPERIMENTS.md tables W4/W6/W7/W19).
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
