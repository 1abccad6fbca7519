package sim

import (
	"encoding/json"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// SpecVersion is the wire version of the Spec JSON encoding. Decoders
// reject documents from a different version instead of guessing: the
// encoding mirrors Spec's internals, so a version bump means the shapes
// changed incompatibly.
const SpecVersion = 1

// specEnvelope is the JSON shape of a Spec. Exactly the fields meaningful
// for the kind are populated; encoding/json's sorted map keys make the
// encoding canonical (byte-identical for value-identical specs), which the
// clrserve job server relies on for single-flight dedup keys.
type specEnvelope struct {
	Version     int                       `json:"version"`
	Kind        string                    `json:"kind"`
	Profile     *workload.Profile         `json:"profile,omitempty"`
	Mix         *workload.Mix             `json:"mix,omitempty"`
	CLR         *core.Config              `json:"clr,omitempty"`
	Profiles    []workload.Profile        `json:"profiles,omitempty"`
	Groups      map[string][]workload.Mix `json:"groups,omitempty"`
	Fractions   []float64                 `json:"fractions,omitempty"`
	CLRFraction float64                   `json:"clr_fraction,omitempty"`
}

// Kind names the spec's driver ("single", "mix", "fig12", "fig13", "fig15",
// "comparison"; "invalid" for the zero Spec).
func (s Spec) Kind() string { return s.kind.String() }

// IsSweep reports whether the spec fans out on the experiment engine and
// therefore reports as a SweepReport (single and mix runs report as a
// RunReport instead).
func (s Spec) IsSweep() bool {
	switch s.kind {
	case specFig12, specFig13, specFig15, specComparison:
		return true
	default:
		return false
	}
}

// MarshalJSON encodes the spec with a version field. Every *Spec
// constructor's output round-trips: Unmarshal(Marshal(s)) reconstructs a
// Spec that drives Run identically.
func (s Spec) MarshalJSON() ([]byte, error) {
	env := specEnvelope{Version: SpecVersion, Kind: s.kind.String()}
	switch s.kind {
	case specSingle:
		p, c := s.profile, s.clr
		env.Profile, env.CLR = &p, &c
	case specMix:
		m, c := s.mix, s.clr
		env.Mix, env.CLR = &m, &c
	case specFig12:
		env.Profiles = s.profiles
	case specFig13:
		env.Groups = s.groups
	case specFig15:
		env.Profiles = s.profiles
		env.Fractions = s.fractions
	case specComparison:
		env.Profiles = s.profiles
		env.CLRFraction = s.clrFraction
	default:
		return nil, fmt.Errorf("sim: cannot marshal an invalid Spec (use the *Spec constructors)")
	}
	return json.Marshal(env)
}

// resolveProfile completes a name-only profile from the workload registry:
// a hand-written spec may carry just {"Name": "429.mcf-like"} instead of
// the full profile data. Full profiles (a footprint or trace records) pass
// through untouched if they validate (a *workload.ProfileError if not); a
// name-only profile that the registry does not know is an error at decode
// time rather than a broken run later. Resolution
// also canonicalizes: name-only and full-profile encodings of a registered
// workload decode to the same Spec, so they re-marshal identically and
// share one clrserve dedup key.
func resolveProfile(p workload.Profile) (workload.Profile, error) {
	if p.FootprintPages > 0 || p.Records != nil {
		return p, p.Validate()
	}
	if reg, ok := workload.ByName(p.Name); ok {
		return reg, nil
	}
	return p, fmt.Errorf("sim: spec names unknown workload %q (and carries no profile data)", p.Name)
}

func resolveProfiles(ps []workload.Profile) ([]workload.Profile, error) {
	for i := range ps {
		var err error
		if ps[i], err = resolveProfile(ps[i]); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func resolveMix(m workload.Mix) (workload.Mix, error) {
	for i := range m.Profiles {
		var err error
		if m.Profiles[i], err = resolveProfile(m.Profiles[i]); err != nil {
			return m, err
		}
	}
	return m, nil
}

// UnmarshalJSON decodes a spec produced by MarshalJSON, rejecting unknown
// versions and kinds. Name-only profiles resolve against the workload
// registry (see resolveProfile).
func (s *Spec) UnmarshalJSON(b []byte) error {
	var env specEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("sim: spec: %w", err)
	}
	if env.Version != SpecVersion {
		return fmt.Errorf("sim: spec version %d, this binary speaks %d", env.Version, SpecVersion)
	}
	switch env.Kind {
	case "single":
		if env.Profile == nil {
			return fmt.Errorf("sim: single spec without a profile")
		}
		p, err := resolveProfile(*env.Profile)
		if err != nil {
			return err
		}
		var clr core.Config
		if env.CLR != nil {
			clr = *env.CLR
		}
		*s = SingleSpec(p, clr)
	case "mix":
		if env.Mix == nil {
			return fmt.Errorf("sim: mix spec without a mix")
		}
		m, err := resolveMix(*env.Mix)
		if err != nil {
			return err
		}
		var clr core.Config
		if env.CLR != nil {
			clr = *env.CLR
		}
		*s = MixSpec(m, clr)
	case "fig12":
		ps, err := resolveProfiles(env.Profiles)
		if err != nil {
			return err
		}
		*s = Fig12Spec(ps)
	case "fig13":
		for name, mixes := range env.Groups {
			for i := range mixes {
				m, err := resolveMix(mixes[i])
				if err != nil {
					return fmt.Errorf("group %s: %w", name, err)
				}
				mixes[i] = m
			}
		}
		*s = Fig13Spec(env.Groups)
	case "fig15":
		ps, err := resolveProfiles(env.Profiles)
		if err != nil {
			return err
		}
		*s = Fig15Spec(ps, env.Fractions)
	case "comparison":
		ps, err := resolveProfiles(env.Profiles)
		if err != nil {
			return err
		}
		*s = ComparisonSpec(ps, env.CLRFraction)
	default:
		return fmt.Errorf("sim: unknown spec kind %q", env.Kind)
	}
	return nil
}
