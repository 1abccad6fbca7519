package mem

import (
	"fmt"
	"sort"

	"clrdram/internal/dram"
)

// Registry-based construction for the controller's two swappable roles
// (the third, the DRAM standard, has its registry in internal/dram).
// NewController resolves Config.Scheduler/RowPolicy names through these
// registries; the name constants below are what the empty string resolves
// to, preserving the paper's Table 2 composition as the zero-value default. Built-in implementations register here in init — by design the
// only non-test construction site for the concrete types, which the
// registry-construction lint (lint_test.go) enforces.

// Default registry names the zero Config resolves to.
const (
	DefaultScheduler = "frfcfs-cap"
	DefaultRowPolicy = "timeout"
)

// SchedulerFactory builds a scheduler for a controller configuration.
type SchedulerFactory func(cfg Config) (Scheduler, error)

// RowPolicyFactory builds a row policy for a device geometry and controller
// configuration (policies need the clock to convert ns thresholds).
type RowPolicyFactory func(dev dram.Config, cfg Config) (RowPolicy, error)

var (
	schedulers  = map[string]SchedulerFactory{}
	rowPolicies = map[string]RowPolicyFactory{}
)

func register[F any](kind string, m map[string]F, name string, f F) {
	if name == "" {
		panic("mem: Register" + kind + " with empty name")
	}
	if _, dup := m[name]; dup {
		panic("mem: Register" + kind + " duplicate name " + name)
	}
	m[name] = f
}

// RegisterScheduler adds a scheduler factory under name. It panics on an
// empty name or a duplicate: registration is an init-time act, where a
// collision is a programming error.
func RegisterScheduler(name string, f SchedulerFactory) { register("Scheduler", schedulers, name, f) }

// RegisterRowPolicy adds a row-policy factory under name (panics like
// RegisterScheduler).
func RegisterRowPolicy(name string, f RowPolicyFactory) { register("RowPolicy", rowPolicies, name, f) }

// NewScheduler resolves a scheduler registry name ("" = DefaultScheduler).
// Unknown names return a *ConfigError wrapping ErrUnknownScheduler.
func NewScheduler(name string, cfg Config) (Scheduler, error) {
	if name == "" {
		name = DefaultScheduler
	}
	f, ok := schedulers[name]
	if !ok {
		return nil, &ConfigError{Field: "Scheduler", Err: ErrUnknownScheduler,
			Detail: fmt.Sprintf("%q, have %v", name, SchedulerNames())}
	}
	return f(cfg)
}

// NewRowPolicy resolves a row-policy registry name ("" = DefaultRowPolicy).
// Unknown names return a *ConfigError wrapping ErrUnknownRowPolicy.
func NewRowPolicy(name string, dev dram.Config, cfg Config) (RowPolicy, error) {
	if name == "" {
		name = DefaultRowPolicy
	}
	f, ok := rowPolicies[name]
	if !ok {
		return nil, &ConfigError{Field: "RowPolicy", Err: ErrUnknownRowPolicy,
			Detail: fmt.Sprintf("%q, have %v", name, RowPolicyNames())}
	}
	return f(dev, cfg)
}

func names[F any](m map[string]F) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SchedulerNames returns the registered scheduler names, sorted.
func SchedulerNames() []string { return names(schedulers) }

// RowPolicyNames returns the registered row-policy names, sorted.
func RowPolicyNames() []string { return names(rowPolicies) }

func init() {
	RegisterScheduler(DefaultScheduler, func(Config) (Scheduler, error) { return frfcfsCap{}, nil })
	RegisterScheduler("frfcfs", func(Config) (Scheduler, error) { return frfcfs{}, nil })
	RegisterScheduler("fcfs", func(Config) (Scheduler, error) { return fcfs{}, nil })

	RegisterRowPolicy(DefaultRowPolicy, func(dev dram.Config, cfg Config) (RowPolicy, error) {
		return newTimeoutPolicy(dev, cfg), nil
	})
	RegisterRowPolicy("open", func(dram.Config, Config) (RowPolicy, error) {
		return openPagePolicy{}, nil
	})
	RegisterRowPolicy("closed", func(dram.Config, Config) (RowPolicy, error) {
		return closedPagePolicy{}, nil
	})
	RegisterRowPolicy("hitcount", func(dev dram.Config, cfg Config) (RowPolicy, error) {
		return newHitCountPolicy(dev, cfg), nil
	})
}
