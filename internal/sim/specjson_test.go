package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

// specCorpus returns one representative Spec per kind plus edge-case
// variants: zero/baseline configs, record-backed profiles, empty sets, nil
// groups — the fuzz-lite table every round-trip property runs over.
func specCorpus(t *testing.T) map[string]Spec {
	t.Helper()
	p1, ok := workload.ByName("429.mcf-like")
	if !ok {
		t.Fatal("missing 429.mcf-like")
	}
	p2, ok := workload.ByName("random_00")
	if !ok {
		t.Fatal("missing random_00")
	}
	recProf, err := workload.FromRecords("trace.bin", []trace.Record{
		{Bubble: 3, Addr: 0x1000, Write: false},
		{Bubble: 0, Addr: 0x2040, Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "m0", Profiles: [4]workload.Profile{p1, p2, p1, p2}}
	clr := core.CLR(0.5)
	clrREFW := core.CLR(0.75)
	clrREFW.REFWms = 194
	clrREFW.EarlyTermination = false
	clrTable := core.CLR(1)
	clrTable.Table = core.DefaultTable()

	return map[string]Spec{
		"single":            SingleSpec(p1, clr),
		"single-baseline":   SingleSpec(p2, core.Baseline()),
		"single-records":    SingleSpec(recProf, clrREFW),
		"single-with-table": SingleSpec(p1, clrTable),
		"mix":               MixSpec(mix, clr),
		"mix-baseline":      MixSpec(mix, core.Baseline()),
		"fig12":             Fig12Spec([]workload.Profile{p1, p2}),
		"fig12-empty":       Fig12Spec(nil),
		"fig13": Fig13Spec(map[string][]workload.Mix{
			"H": {mix},
			"L": {mix, mix},
		}),
		"fig13-nil-groups": Fig13Spec(nil),
		"fig15":            Fig15Spec([]workload.Profile{p1}, []float64{0.25, 1.0}),
		"fig15-no-fracs":   Fig15Spec([]workload.Profile{p2}, nil),
		"comparison":       ComparisonSpec([]workload.Profile{p1, p2}, 1.0),
		"comparison-zero":  ComparisonSpec([]workload.Profile{p1}, 0),
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for name, spec := range specCorpus(t) {
		t.Run(name, func(t *testing.T) {
			b1, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(b1, []byte(`"version":1`)) {
				t.Fatalf("encoding carries no version field: %s", b1)
			}
			var back Spec
			if err := json.Unmarshal(b1, &back); err != nil {
				t.Fatal(err)
			}
			// Canonical-encoding fixed point: re-marshalling the decoded
			// spec is byte-identical. This is the property clrserve's
			// single-flight dedup keys depend on.
			b2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-marshal diverged:\n  %s\n  %s", b1, b2)
			}
			if back.Kind() != spec.Kind() {
				t.Fatalf("kind %q -> %q", spec.Kind(), back.Kind())
			}
		})
	}
}

// TestSpecJSONSemanticEquality checks the decoded Spec is deeply equal to
// the original, not merely re-encodable: nil-vs-empty slice differences
// introduced by JSON are tolerated only where Run treats them identically.
func TestSpecJSONSemanticEquality(t *testing.T) {
	for name, spec := range specCorpus(t) {
		t.Run(name, func(t *testing.T) {
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back Spec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Fatalf("round trip changed the spec:\n  %#v\n  %#v", spec, back)
			}
		})
	}
}

func TestSpecJSONRejects(t *testing.T) {
	cases := map[string]string{
		"wrong-version": `{"version":99,"kind":"fig12"}`,
		"zero-version":  `{"kind":"fig12"}`,
		"unknown-kind":  `{"version":1,"kind":"fig99"}`,
		"invalid-kind":  `{"version":1,"kind":"invalid"}`,
		"single-no-p":   `{"version":1,"kind":"single"}`,
		"mix-no-mix":    `{"version":1,"kind":"mix"}`,
		"not-json":      `{"version":1,`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			var s Spec
			if err := json.Unmarshal([]byte(doc), &s); err == nil {
				t.Fatalf("decoded %s into %#v, want error", doc, s)
			}
		})
	}
	var s Spec // zero Spec is invalid and must not encode
	if b, err := json.Marshal(s); err == nil {
		t.Fatalf("marshalled the zero Spec: %s", b)
	}
}

// TestSpecJSONNameOnlyProfiles checks decode-time registry resolution: a
// hand-written spec carrying only workload names decodes to the same Spec
// (and therefore the same canonical encoding and clrserve dedup key) as
// one carrying the full profile data, and unknown names fail at decode
// time rather than producing a broken run.
func TestSpecJSONNameOnlyProfiles(t *testing.T) {
	var byName Spec
	doc := `{"version":1,"kind":"fig12","profiles":[{"name":"429.mcf-like"},{"name":"random_00"}]}`
	if err := json.Unmarshal([]byte(doc), &byName); err != nil {
		t.Fatal(err)
	}
	p1, _ := workload.ByName("429.mcf-like")
	p2, _ := workload.ByName("random_00")
	full := Fig12Spec([]workload.Profile{p1, p2})
	if !reflect.DeepEqual(byName, full) {
		t.Fatalf("name-only decode differs from full-profile spec:\n  %#v\n  %#v", byName, full)
	}
	b1, err := json.Marshal(byName)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("name-only and full-profile specs canonicalize differently")
	}

	var s Spec
	bad := `{"version":1,"kind":"single","profile":{"name":"no-such-workload"}}`
	if err := json.Unmarshal([]byte(bad), &s); err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("unknown name-only workload: err = %v", err)
	}
	// A mix inside a fig13 group resolves too.
	var fig13 Spec
	doc13 := `{"version":1,"kind":"fig13","groups":{"H":[{"name":"m0","profiles":[{"name":"429.mcf-like"},{"name":"random_00"},{"name":"429.mcf-like"},{"name":"random_00"}]}]}}`
	if err := json.Unmarshal([]byte(doc13), &fig13); err != nil {
		t.Fatal(err)
	}
	want := Fig13Spec(map[string][]workload.Mix{
		"H": {{Name: "m0", Profiles: [4]workload.Profile{p1, p2, p1, p2}}},
	})
	if !reflect.DeepEqual(fig13, want) {
		t.Fatal("fig13 group mixes did not resolve by name")
	}
}

// TestSpecJSONFuzzLite round-trips randomly perturbed single/fig15 specs —
// cheap structured fuzzing over the numeric fields — and checks the
// canonical-encoding fixed point holds for every draw.
func TestSpecJSONFuzzLite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := workload.All()
	for i := 0; i < 200; i++ {
		p := all[rng.Intn(len(all))]
		var spec Spec
		switch rng.Intn(3) {
		case 0:
			c := core.CLR(float64(rng.Intn(5)) * 0.25)
			c.REFWms = 64 + float64(rng.Intn(130))
			c.EarlyTermination = rng.Intn(2) == 0
			spec = SingleSpec(p, c)
		case 1:
			// 1..4 fractions: an empty-but-non-nil slice would decode to
			// nil (omitempty) — identical for Run, but not DeepEqual.
			fracs := make([]float64, 1+rng.Intn(3))
			for j := range fracs {
				fracs[j] = rng.Float64()
			}
			spec = Fig15Spec([]workload.Profile{p}, fracs)
		default:
			spec = ComparisonSpec([]workload.Profile{p}, rng.Float64())
		}
		b1, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("draw %d: fixed point broken:\n  %s\n  %s", i, b1, b2)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("draw %d: deep equality broken", i)
		}
	}
}

func TestSpecKindAccessors(t *testing.T) {
	want := map[string]bool{ // kind -> IsSweep
		"single": false, "mix": false,
		"fig12": true, "fig13": true, "fig15": true, "comparison": true,
	}
	seen := map[string]bool{}
	for name, spec := range specCorpus(t) {
		kind := spec.Kind()
		isSweep, ok := want[kind]
		if !ok {
			t.Fatalf("%s: unexpected kind %q", name, kind)
		}
		if spec.IsSweep() != isSweep {
			t.Fatalf("%s: IsSweep() = %v, want %v", name, spec.IsSweep(), isSweep)
		}
		seen[kind] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("corpus covers kinds %v, want all of %v", seen, want)
	}
	var zero Spec
	if zero.Kind() != "invalid" || zero.IsSweep() {
		t.Fatalf("zero Spec: Kind=%q IsSweep=%v", zero.Kind(), zero.IsSweep())
	}
}

// TestBadProfileTypedError feeds two bad profiles — an empty footprint,
// which used to panic in NewSystem, and a θ whose page weights overflow,
// which used to run to a degenerate result — to NewSystem, to a sweep and
// (as a full spec profile) to spec decoding: each returns a
// *workload.ProfileError naming the field.
func TestBadProfileTypedError(t *testing.T) {
	opts := DefaultOptions()
	opts.TargetInstructions = 2_000
	for _, c := range []struct {
		field string
		p     workload.Profile
	}{
		{"FootprintPages", workload.Profile{Name: "x"}},
		{"ZipfTheta", workload.Profile{Name: "steep", Pattern: workload.PatternRandom, FootprintPages: 4096, ZipfTheta: -200}},
	} {
		var pe *workload.ProfileError
		if _, err := NewSystem([]workload.Profile{c.p}, core.CLR(0.5), opts); !errors.As(err, &pe) || pe.Field != c.field {
			t.Errorf("%s: NewSystem error %v, want a *workload.ProfileError on %s", c.p.Name, err, c.field)
		}
		if _, err := Run(context.Background(), Fig12Spec([]workload.Profile{c.p}), opts); !errors.As(err, &pe) || pe.Field != c.field {
			t.Errorf("%s: Fig. 12 sweep error %v, want a *workload.ProfileError on %s", c.p.Name, err, c.field)
		}
	}
	for _, doc := range []string{
		`{"version":1,"kind":"single","profile":{"Name":"steep","Pattern":1,"FootprintPages":4096,"ZipfTheta":-200}}`,
		`{"version":1,"kind":"fig12","profiles":[{"name":"429.mcf-like"},{"Name":"w","FootprintPages":64,"WriteFrac":2}]}`,
	} {
		var s Spec
		var pe *workload.ProfileError
		if err := json.Unmarshal([]byte(doc), &s); !errors.As(err, &pe) {
			t.Errorf("decoding %s: error %v, want a *workload.ProfileError", doc, err)
		}
	}
}
