package mem

import (
	"fmt"

	"clrdram/internal/dram"
)

// Name-based construction for the controller's two swappable roles (the
// third, the DRAM standard, is dram.StandardConfig). NewController resolves
// Config.Scheduler/RowPolicy through the two lookups below; the empty
// string resolves to the name constants, preserving the paper's Table 2
// composition as the zero-value default. The sets are closed: Schedule
// takes the controller's unexported *queue, so no package outside mem can
// implement a scheduler, and these switches are by design the only
// non-test construction sites for the concrete types, which the
// construction lint (lint_test.go) enforces.

// Default names the zero Config resolves to.
const (
	DefaultScheduler = "frfcfs-cap"
	DefaultRowPolicy = "timeout"
)

// NewScheduler resolves a scheduler name ("" = DefaultScheduler). Unknown
// names return a *ConfigError wrapping ErrUnknownScheduler.
func NewScheduler(name string, cfg Config) (Scheduler, error) {
	switch name {
	case "", DefaultScheduler:
		return frfcfsCap{}, nil
	case "frfcfs":
		return frfcfs{}, nil
	case "fcfs":
		return fcfs{}, nil
	}
	return nil, &ConfigError{Field: "Scheduler", Err: ErrUnknownScheduler,
		Detail: fmt.Sprintf("%q, have %v", name, SchedulerNames())}
}

// NewRowPolicy resolves a row-policy name ("" = DefaultRowPolicy) for a
// device geometry and controller configuration (policies need the clock to
// convert ns thresholds). Unknown names return a *ConfigError wrapping
// ErrUnknownRowPolicy.
func NewRowPolicy(name string, dev dram.Config, cfg Config) (RowPolicy, error) {
	switch name {
	case "", DefaultRowPolicy:
		return newTimeoutPolicy(dev, cfg), nil
	case "open":
		return openPagePolicy{}, nil
	case "closed":
		return closedPagePolicy{}, nil
	case "hitcount":
		return newHitCountPolicy(dev, cfg), nil
	}
	return nil, &ConfigError{Field: "RowPolicy", Err: ErrUnknownRowPolicy,
		Detail: fmt.Sprintf("%q, have %v", name, RowPolicyNames())}
}

// SchedulerNames returns the scheduler names NewScheduler accepts, sorted.
func SchedulerNames() []string { return []string{"fcfs", "frfcfs", DefaultScheduler} }

// RowPolicyNames returns the row-policy names NewRowPolicy accepts, sorted.
func RowPolicyNames() []string { return []string{"closed", "hitcount", "open", DefaultRowPolicy} }
