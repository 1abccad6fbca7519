package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/workload"
)

func reportOpts() Options {
	o := DefaultOptions()
	o.TargetInstructions = 30_000
	o.WarmupRecords = 5_000
	o.ProfileRecords = 5_000
	o.CollectStats = true
	o.StatsEpochCycles = 20_000
	return o
}

func TestRunReportPopulated(t *testing.T) {
	p, _ := workload.ByName("random_00")
	out, err := Run(context.Background(), SingleSpec(p, core.CLR(0.5)), reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	rep := res.Report
	if rep == nil {
		t.Fatal("CollectStats set but Result.Report is nil")
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Totals.Instructions != res.PerCore[0].Instructions {
		t.Errorf("totals instructions = %d, want %d", rep.Totals.Instructions, res.PerCore[0].Instructions)
	}
	if rep.Totals.IPC <= 0 || rep.Totals.RowHitRate < 0 || rep.Totals.RowHitRate > 1 {
		t.Errorf("implausible totals: %+v", rep.Totals)
	}
	if rep.Totals.BankUtil <= 0 || rep.Totals.BankUtil != res.BankUtil {
		t.Errorf("BankUtil = %v (result %v)", rep.Totals.BankUtil, res.BankUtil)
	}
	if len(rep.Cores) != 1 || rep.Cores[0].IPC != res.PerCore[0].IPC() {
		t.Errorf("cores section wrong: %+v", rep.Cores)
	}
	if rep.Cores[0].MLP <= 0 {
		t.Errorf("MLP = %v, want > 0 for a memory-bound run", rep.Cores[0].MLP)
	}
	if len(rep.Channels) != 1 {
		t.Fatalf("channels = %d, want 1", len(rep.Channels))
	}
	ch := rep.Channels[0]
	if ch.Commands["ACT"] == 0 || ch.Commands["RD"] == 0 {
		t.Errorf("command counts missing: %v", ch.Commands)
	}
	// A 50% HP run must issue commands in both CLR modes.
	if len(ch.ModeCommands) < 2 {
		t.Errorf("mode mix = %v, want both CLR modes", ch.ModeCommands)
	}
	var sumACT, sumUtil uint64
	var util float64
	for _, b := range ch.Banks {
		sumACT += b.ACT
		util += b.Utilization
		if b.Utilization > 0 {
			sumUtil++
		}
	}
	if sumACT != ch.Commands["ACT"] {
		t.Errorf("per-bank ACT sum = %d, device total = %d", sumACT, ch.Commands["ACT"])
	}
	if sumUtil == 0 {
		t.Error("no bank shows utilization")
	}
	if ch.ReadLatency.Samples == 0 || ch.ReadLatency.P50 <= 0 {
		t.Errorf("read latency summary empty: %+v", ch.ReadLatency)
	}
	// Registry contents: stall breakdown, queue occupancy, epoch series.
	for _, name := range []string{"mem.ch0.stall.bank", "mem.ch0.stall.refresh", "mem.ch0.stall.cap", "mem.ch0.cycles.idle"} {
		if _, ok := rep.Metrics.Counters[name]; !ok {
			t.Errorf("metrics missing counter %q", name)
		}
	}
	if _, ok := rep.Metrics.Histograms["mem.ch0.queue.read.occupancy"]; !ok {
		t.Error("metrics missing read-queue occupancy histogram")
	}
	series, ok := rep.Metrics.Series["cpu.core0.instructions"]
	if !ok || len(series.Deltas) == 0 {
		t.Fatalf("epoch IPC series missing or empty: %+v", series)
	}
	var sum float64
	for _, d := range series.Deltas {
		sum += d
	}
	if sum > float64(rep.Totals.Instructions) {
		t.Errorf("epoch deltas sum %v exceeds retired %d", sum, rep.Totals.Instructions)
	}
}

func TestRunReportDisabledByDefault(t *testing.T) {
	p, _ := workload.ByName("random_00")
	o := reportOpts()
	o.CollectStats = false
	out, err := Run(context.Background(), SingleSpec(p, core.CLR(0.5)), o)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	if res.Report != nil {
		t.Error("Report non-nil without CollectStats")
	}
	if res.BankUtil <= 0 {
		t.Error("BankUtil should be computed even without CollectStats")
	}
}

// TestRunReportDeterministic: two identical runs produce byte-identical
// canonical report JSON.
func TestRunReportDeterministic(t *testing.T) {
	p, _ := workload.ByName("429.mcf-like")
	run := func() []byte {
		out, err := Run(context.Background(), SingleSpec(p, core.CLR(0.25)), reportOpts())
		if err != nil {
			t.Fatal(err)
		}
		res := out.Single
		b, err := json.Marshal(res.Report.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
}

// TestSweepReportDeterministicAcrossWorkers is the PR's headline contract:
// the sweep report is bit-identical at -workers 1 and -workers 4 for the
// same seed, once the (deliberately non-deterministic) timing section is
// canonicalized away. A Timer is attached to both runs so the test also
// proves Canonical strips the only varying section.
func TestSweepReportDeterministicAcrossWorkers(t *testing.T) {
	profiles := []workload.Profile{}
	for _, n := range []string{"429.mcf-like", "random_00", "stream_00"} {
		p, _ := workload.ByName(n)
		profiles = append(profiles, p)
	}
	build := func(workers int) ([]byte, engine.TimerSummary) {
		o := reportOpts()
		o.Workers = workers
		o.Timer = &engine.Timer{}
		out, err := Run(context.Background(), Fig12Spec(profiles), o)
		if err != nil {
			t.Fatal(err)
		}
		f12 := *out.Fig12
		rep := SweepReport{
			Schema:             SweepSchema,
			Seed:               o.Seed,
			TargetInstructions: o.TargetInstructions,
			Fig12:              &f12,
			Timing:             o.Timer.Summary(),
		}
		b, err := json.Marshal(rep.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return b, rep.Timing
	}
	serial, tm1 := build(1)
	parallel, tm4 := build(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("canonical sweep reports differ between workers=1 and workers=4:\n%s\n---\n%s", serial, parallel)
	}
	if tm1.Tasks == 0 || tm4.Tasks == 0 {
		t.Errorf("timers did not record tasks: %+v / %+v", tm1, tm4)
	}
	if tm1.Workers != 1 || tm4.Workers != 4 {
		t.Errorf("timer workers = %d / %d, want 1 / 4", tm1.Workers, tm4.Workers)
	}
}

func TestFig12RowsCarryMeasuredSeries(t *testing.T) {
	p, _ := workload.ByName("random_00")
	o := reportOpts()
	o.CollectStats = false // measured series must not require the registry
	out, err := Run(context.Background(), Fig12Spec([]workload.Profile{p}), o)
	if err != nil {
		t.Fatal(err)
	}
	f12 := *out.Fig12
	r := f12.Rows[0]
	if len(r.RowHitRate) != len(HPFractions) || len(r.BankUtil) != len(HPFractions) {
		t.Fatalf("measured series lengths %d/%d, want %d", len(r.RowHitRate), len(r.BankUtil), len(HPFractions))
	}
	for i := range HPFractions {
		if r.RowHitRate[i] < 0 || r.RowHitRate[i] > 1 {
			t.Errorf("RowHitRate[%d] = %v out of [0,1]", i, r.RowHitRate[i])
		}
		if r.BankUtil[i] <= 0 || r.BankUtil[i] > 1 {
			t.Errorf("BankUtil[%d] = %v out of (0,1]", i, r.BankUtil[i])
		}
	}
}

func TestRunReportWriteFormats(t *testing.T) {
	p, _ := workload.ByName("random_00")
	out, err := Run(context.Background(), SingleSpec(p, core.CLR(1.0)), reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	var txt, js bytes.Buffer
	if err := res.Report.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report", "row-hit-rate", "mem.ch0.stall.bank", "cpu.core0.instructions"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q", want)
		}
	}
	if err := res.Report.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema || back.Totals.Instructions != res.Report.Totals.Instructions {
		t.Errorf("round-tripped report differs: %+v", back.Totals)
	}
}
