package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEndMetrics are measured with tracing off. throughput is
// sim_instr_per_s on the sim workloads (simulated instructions, all cores,
// per process CPU second of System.Run) and draws_per_s on circuit (Monte
// Carlo draws per wall second of the table build): every workload reports
// every end-to-end metric, so the two share one name. throughput and
// setup_s are stated at the nominal host speed (hostspeed.go).
var endToEndMetrics = []metricDef{
	{"throughput", "work/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// layerMetrics are reported by the traced run. A workload that does not
// exercise a layer reports 0 for its metrics, and so does a metric whose
// symbol a later change removed (the run's notes say which).
var layerMetrics = []metricDef{
	{"workload.ns_per_record", "ns"},
	{"core.profile_ms", "ms"},
	{"core.mapping_ms", "ms"},
	{"cache.ns_per_access", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cpu.ns_per_tick", "ns"},
	{"mem.ns_per_tick", "ns"},
	{"mem.ns_per_request", "ns"},
	{"mem.reject_ratio", "ratio"},
	{"dram.ns_per_command", "ns"},
	{"sim.skip_coverage", "ratio"},
	{"sim.cycles_per_skip", "cycles"},
	{"sim.lag_coverage", "ratio"},
	{"sim.plan_yield", "ratio"},
	{"sim.unattributed_share", "ratio"},
	{"ledger.workload_share", "ratio"},
	{"ledger.cache_share", "ratio"},
	{"ledger.cpu_share", "ratio"},
	{"ledger.mem_share", "ratio"},
	{"ledger.dram_share", "ratio"},
	{"engine.utilization", "ratio"},
	{"spice.ms_per_draw", "ms"},
	{"spice.ms_per_batched_draw", "ms"},
	{"circuit.ns_per_step", "ns"},
	{"circuit.ns_per_lane_step", "ns"},
	{"mem.row_hit_ratio", "ratio"},
	{"mem.read_latency_p99_cycles", "cycles"},
	{"mem.write_drain_share", "ratio"},
	{"mem.cap_trips", "count"},
	{"cpu.mem_blocked_share", "ratio"},
	{"dram.hp_act_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// report is what one run prints: a human-readable block, then the JSON
// summary as the last line.
type report struct {
	workload  string
	seed      int64
	trace     bool
	attempted int
	failed    int
	failures  []string
	probeErrs []string
	defs      []metricDef
	values    map[string]float64
	notes     []string
	ledger    []string
	layers    []layerTime
}

func (b *bench) newReport(trace bool) *report {
	r := &report{workload: b.w.name, seed: b.seed, trace: trace, values: make(map[string]float64)}
	r.defs = endToEndMetrics
	if trace {
		r.defs = layerMetrics
	}
	for _, d := range r.defs {
		r.values[d.name] = 0
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		panic("clrbench: metric " + name + " is not part of this report")
	}
	r.values[name] = v
}

// probeFailed records a failed per-layer check; it makes the run incorrect.
func (r *report) probeFailed(err error) { r.probeErrs = append(r.probeErrs, err.Error()) }

// endToEnd fills the end-to-end metrics from the timed operations.
func (r *report) endToEnd(b *bench, timed []opResult) {
	var setups, rawSetups []float64
	for _, t := range timed {
		for _, s := range t.setup {
			setups = append(setups, atNominal(s, t.setupRef.wall))
		}
		rawSetups = append(rawSetups, t.setup...)
	}
	rate := func(t opResult) float64 { return t.work / atNominal(t.runCPU, t.runRef.cpu) }
	rawRate := func(t opResult) float64 { return t.work / t.runCPU }
	refTime := func(t opResult) float64 { return t.runRef.cpu }
	if !b.w.isSim() {
		rate = func(t opResult) float64 { return t.work / atNominal(t.runWall, t.runRef.wall) }
		rawRate = func(t opResult) float64 { return t.work / t.runWall }
		refTime = func(t opResult) float64 { return t.runRef.wall }
	}
	r.set("throughput", median(pick(timed, rate)))
	r.set("setup_s", median(setups))
	r.notes = append(r.notes, fmt.Sprintf(
		"host speed: reference loop %.2f ms (nominal %.2f ms); measured at host speed, throughput %.6g, setup_s %.6g",
		median(pick(timed, refTime))*1e3, refNominal*1e3, median(pick(timed, rawRate)), median(rawSetups)))
	r.set("alloc_mb", median(pick(timed, func(t opResult) float64 { return float64(t.alloc) / 1e6 })))
	r.set("live_heap_mb", median(pick(timed, func(t opResult) float64 { return float64(t.live) / 1e6 })))
	r.notes = append(r.notes, fmt.Sprintf("%d timed operations (the first of the run warms the process and is not timed)", len(timed)))
}

// write prints the report; the JSON summary is the last line. It reads the
// operation counters from b, so it runs after the run's last operation.
func (r *report) write(w io.Writer, b *bench) error {
	r.attempted, r.failed, r.failures = b.attempted, b.failed, b.failures
	if b.check.seen {
		r.notes = append(r.notes, fmt.Sprintf("digest %016x (seed %d)", b.check.first, r.seed))
	}
	for _, d := range r.defs {
		if v := r.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			r.probeFailed(fmt.Errorf("metric %s is %v", d.name, v))
			r.values[d.name] = 0
		}
	}
	correct := r.failed == 0 && len(r.probeErrs) == 0
	var sb strings.Builder
	mode := "end-to-end, tracing off"
	if r.trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(&sb, "clrbench %s seed %d (%s)\n", r.workload, r.seed, mode)
	fmt.Fprintf(&sb, "  operations attempted %d, failed %d\n", r.attempted, r.failed)
	const shown = 5
	for i, f := range r.failures {
		if i == shown {
			fmt.Fprintf(&sb, "  ... and %d more failed operations\n", len(r.failures)-shown)
			break
		}
		fmt.Fprintf(&sb, "  FAILED %s\n", f)
	}
	for _, e := range r.probeErrs {
		fmt.Fprintf(&sb, "  FAILED check: %s\n", e)
	}
	if !r.trace {
		name, unit := "sim_instr_per_s", "sim-instr/s"
		if !b.w.isSim() {
			name, unit = "draws_per_s", "draws/s"
		}
		fmt.Fprintf(&sb, "  %-30s %14.6g %s\n", name, r.values["throughput"], unit)
		fmt.Fprintf(&sb, "  %-30s %14.6g %s\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	}
	for _, d := range r.defs {
		fmt.Fprintf(&sb, "  %-30s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, l := range r.ledger {
		fmt.Fprintf(&sb, "  %s\n", l)
	}
	if len(r.layers) > 0 {
		fmt.Fprintf(&sb, "  self time by layer:\n")
		for _, l := range r.layers {
			fmt.Fprintf(&sb, "    %-10s %10.1f ms %6d spans %12d calls\n", l.Layer, l.SelfMS, l.Spans, l.Calls)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		metrics[d.name] = value{r.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	sb.Write(line)
	sb.WriteByte('\n')
	_, err = io.WriteString(w, sb.String())
	return err
}
