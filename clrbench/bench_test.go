package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// summary is the JSON line a run prints last.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine decodes the summary from a run's output and checks it has exactly
// the contract's keys.
func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(keys) != 4 {
		t.Fatalf("summary has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, s summary, defs []metricDef) {
	t.Helper()
	if len(s.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestEndToEndTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := newBench(w, tinySizes, 7)
			rep, err := b.endToEnd(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, b); err != nil {
				t.Fatal(err)
			}
			s := lastLine(t, out.String())
			if !s.Correct || s.Failed != 0 || s.Attempted < tinySizes.minTimed+1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", s.Correct, s.Attempted, s.Failed, out.String())
			}
			checkMetrics(t, s, endToEndMetrics)
			for name, m := range s.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedTiny runs the traced measurement of every workload at tiny
// sizes: traced, untraced and stats-on operations must agree on their
// digests, every probe check must pass, spans must nest, and every
// per-layer metric must be printed.
func TestTracedTiny(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := newBench(w, tinySizes, 7)
			rep, err := b.traced(context.Background(), 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, b); err != nil {
				t.Fatal(err)
			}
			s := lastLine(t, out.String())
			if !s.Correct || s.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", s.Correct, s.Failed, out.String())
			}
			checkMetrics(t, s, layerMetrics)

			raw, err := os.ReadFile(filepath.Join(dir, "spans-"+w.name+"-seed7.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Spans) == 0 {
				t.Fatal("no spans written")
			}
			if err := checkNesting(file.Spans); err != nil {
				t.Fatal(err)
			}

			positive := []string{"spice.ms_per_draw", "spice.ms_per_batched_draw", "circuit.ns_per_step",
				"circuit.ns_per_lane_step", "engine.utilization"}
			if w.isSim() {
				positive = []string{"workload.ns_per_record", "core.profile_ms", "cache.ns_per_access",
					"cpu.ns_per_tick", "mem.ns_per_tick", "sim.skip_coverage", "ledger.cpu_share"}
			}
			for _, name := range positive {
				if !(s.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, s.Metrics[name].Value)
				}
			}
		})
	}
}

// TestRefMarkBrackets checks that a reference mark returns the mean of the
// measurements just before and just after the section it closes, and how
// host seconds scale to the nominal host speed.
func TestRefMarkBrackets(t *testing.T) {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	b := &bench{ref: ref}
	b.refMark()
	before := b.lastRef
	if !(before.cpu > 0 && before.wall > 0) {
		t.Fatalf("reference measured %+v, want positive times", before)
	}
	if around, want := b.refMark(), before.mean(b.lastRef); around != want {
		t.Errorf("mark returned %+v, want the mean of the two measurements %+v", around, want)
	}
	if got := atNominal(3, 2*refNominal); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("3 s while the reference took twice its nominal time = %v s at nominal speed, want 1.5", got)
	}
}

// TestDigestCheckCatchesOneCounter changes one counter of a real result at
// a time and checks that the digest check fails on each.
func TestDigestCheckCatchesOneCounter(t *testing.T) {
	mcf, _ := lookupWorkload("mcf")
	b := newBench(mcf, tinySizes, 7)
	r := b.op(nil, false)
	if r.err != nil {
		t.Fatal(r.err)
	}
	var c digestCheck
	if err := c.check(r.digest); err != nil {
		t.Fatal(err)
	}
	if err := c.check(r.digest); err != nil {
		t.Fatalf("an identical result failed the check: %v", err)
	}
	mutations := map[string]func(){
		"LLC hits":          func() { r.res.LLC.Hits++ },
		"retired":           func() { r.res.PerCore[0].Instructions++ },
		"core cycles":       func() { r.res.PerCore[0].Cycles++ },
		"row conflicts":     func() { r.res.Mem.RowBuffer.Conflicts++ },
		"cycles":            func() { r.res.CPUCycles++ },
		"writes served":     func() { r.res.Mem.WritesServed++ },
		"background energy": func() { r.res.Energy.Background = math.Nextafter(r.res.Energy.Background, math.Inf(1)) },
	}
	for name, mutate := range mutations {
		saved := r.res
		saved.PerCore = append(saved.PerCore[:0:0], r.res.PerCore...)
		mutate()
		d, err := simDigest(r.res)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(d); err == nil {
			t.Errorf("changing %s passed the digest check", name)
		}
		r.res = saved
	}
	if d, _ := simDigest(r.res); c.check(d) != nil {
		t.Fatal("restored result failed the check")
	}

	pinned := digestCheck{pinned: r.digest ^ 1}
	if pinned.check(r.digest) == nil {
		t.Error("a digest different from the pinned one passed")
	}
	short := r.res
	short.PerCore = append(short.PerCore[:0:0], r.res.PerCore...)
	short.PerCore[0].Instructions = b.target - 1
	if checkSimResult(short, 1, b.target) == nil {
		t.Error("a core short of its target passed")
	}
	short.PerCore[0].Instructions = b.target
	short.TimedOut = true
	if checkSimResult(short, 1, b.target) == nil {
		t.Error("a timed-out run passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 61, End: 69},
	}
	want := []int64{100 - 40 - 10, 20, 30, 2, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i+1, got[i], want[i])
		}
	}
}

func TestNestingRejectsChildOutlastingParent(t *testing.T) {
	ok := []span{{ID: 1, Op: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Op: 1, Start: 2, End: 10}}
	if err := checkNesting(ok); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]span{
		"ends late":    {{ID: 1, Op: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Op: 1, Start: 2, End: 11}},
		"starts early": {{ID: 1, Op: 1, Start: 5, End: 10}, {ID: 2, Parent: 1, Op: 1, Start: 4, End: 9}},
		"never closed": {{ID: 1, Op: 1, Start: 5, End: 0}},
		"other op":     {{ID: 1, Op: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Op: 2, Start: 2, End: 9}},
	} {
		if checkNesting(bad) == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mcf", "--trace", "2"},
		{"--workload", "mcf", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
