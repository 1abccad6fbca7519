package sim

import (
	"fmt"

	"clrdram/internal/core"
)

// RunError is the typed error every sim entry point returns on failure: it
// carries the identity of the run that failed — which driver, which workload
// (profile or mix name, empty for driver-level failures), and the CLR
// configuration — so callers can match with errors.As and report precisely
// instead of parsing strings.
type RunError struct {
	Driver   string      // entry point: "single", "mix", "fig12", ...
	Workload string      // profile or mix name; empty if not per-workload
	Config   core.Config // CLR configuration of the failed run
	Err      error
}

// Error formats the identity prefix followed by the underlying error.
func (e *RunError) Error() string {
	if e.Workload == "" {
		return fmt.Sprintf("sim: %s under %s: %v", e.Driver, e.Config, e.Err)
	}
	return fmt.Sprintf("sim: %s %s under %s: %v", e.Driver, e.Workload, e.Config, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// runErr wraps err in a RunError unless it already is one (inner wrappers
// win: they carry the most precise identity).
func runErr(driver, workload string, cfg core.Config, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RunError); ok {
		return err
	}
	return &RunError{Driver: driver, Workload: workload, Config: cfg, Err: err}
}

// OptionsError is the typed error NewSystem, Run and every sweep row return
// for Options no system can be built from: Field names the offending field
// as a path ("CPUClockGHz", "CPU.WindowSize", "LLC.SizeBytes") and Detail
// spells out the rejected value.
type OptionsError struct {
	Field  string
	Detail string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("sim: option %s: %s", e.Field, e.Detail)
}
