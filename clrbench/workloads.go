package main

import (
	"strings"

	"clrdram/internal/spice"
)

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 1

// hpFraction is the CLR-DRAM configuration every sim workload runs:
// CLR(0.5) maps the hottest half of the pages to high-performance rows, so
// both row modes (and both refresh streams) are exercised.
const hpFraction = 0.5

// benchWorkload is one set of inputs the benchmark runs. The sim workloads
// mirror the traffic of the Fig. 12 and Fig. 13 experiments on the default
// Table 2 system; circuit mirrors the Table 1 Monte Carlo build. Why each
// one was chosen is in README.md.
type benchWorkload struct {
	name string
	// profiles names one workload profile per core; nil selects the
	// circuit workload.
	profiles []string
	// target is the per-core instruction target of a full-size operation.
	target uint64
	// pinned is the digest of one operation's simulated statistics (or of
	// its timing table) at defaultSeed and full sizes.
	pinned uint64
}

var workloads = []benchWorkload{
	{name: "mcf", profiles: []string{"429.mcf-like"}, target: 2_000_000, pinned: 0x24f11b993ce8439c},
	{name: "gamess", profiles: []string{"416.gamess-like"}, target: 60_000_000, pinned: 0x41fa53e681a9434e},
	{name: "mix4", profiles: []string{"429.mcf-like", "470.lbm-like", "416.gamess-like", "416.gamess-like"},
		target: 1_000_000, pinned: 0xb4b6836b33fe3d5c},
	{name: "circuit", pinned: 0x1350028705027195},
}

func (w benchWorkload) isSim() bool { return w.profiles != nil }

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// sizes fixes how much work one operation and each probe does. fullSizes is
// what the benchmark runs; the tests run tinySizes.
type sizes struct {
	// targetDiv divides every workload's per-core instruction target.
	targetDiv uint64
	// warmupRecords are streamed through the LLC before timing: enough to
	// fill it on every sim workload (Result.LLC counts them too).
	warmupRecords int
	// circuitIters is the Monte Carlo draws per campaign of one table build.
	circuitIters int
	// circuitSetups is how many times one circuit operation builds and
	// compiles its netlists, for a steady setup_s median.
	circuitSetups int
	// minTimed is the fewest timed operations a run makes, however short
	// --seconds is.
	minTimed int
	// pin compares digests at defaultSeed with the pinned ones; only full
	// sizes have pins.
	pin bool

	// Probe sizes (see probes_sim.go and probes_circuit.go).
	probeBatches int // batches per probe, each its own span
	recordsPer   int // workload probe: records per core per batch
	profileReps  int // core probe: repetitions of profiling and mapping
	cacheRecords int // cache probe: measured records per core
	cpuCycles    int // cpu probe: cycles per batch
	memMinTicks  int // mem probe: fewest bus cycles ticked
	memMaxTicks  int // mem probe: most bus cycles ticked
	spiceDraws   int // spice probe: single draws per topology
	circuitSteps int // circuit probe: compiled single-circuit steps
	batchSteps   int // circuit probe: batched steps
	batchWidth   int // spice and circuit probes: lanes per batch
}

var fullSizes = sizes{
	targetDiv:     1,
	warmupRecords: 200_000,
	circuitIters:  200,
	circuitSetups: 5,
	minTimed:      3,
	pin:           true,
	probeBatches:  3,
	recordsPer:    100_000,
	profileReps:   3,
	cacheRecords:  200_000,
	cpuCycles:     300_000,
	memMinTicks:   200_000,
	memMaxTicks:   2_000_000,
	spiceDraws:    8,
	circuitSteps:  20_000,
	batchSteps:    4_000,
	batchWidth:    spice.DefaultBatchWidth,
}

var tinySizes = sizes{
	targetDiv:     200,
	warmupRecords: 5_000,
	circuitIters:  4,
	circuitSetups: 2,
	minTimed:      2,
	probeBatches:  2,
	recordsPer:    2_000,
	profileReps:   1,
	cacheRecords:  5_000,
	cpuCycles:     5_000,
	memMinTicks:   5_000,
	memMaxTicks:   50_000,
	spiceDraws:    1,
	circuitSteps:  200,
	batchSteps:    100,
	batchWidth:    4,
}
