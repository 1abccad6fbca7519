package mem

import (
	"errors"
	"fmt"
)

// Sentinel categories for Config rejection at NewController time. Each is
// carried inside a *ConfigError, so both errors.Is(err, ErrX) and
// errors.As(err, *ConfigError) work.
var (
	// ErrUnknownScheduler: Config.Scheduler names no known scheduler.
	ErrUnknownScheduler = errors.New("unknown scheduler")
	// ErrUnknownRowPolicy: Config.RowPolicy names no known row policy.
	ErrUnknownRowPolicy = errors.New("unknown row policy")
	// ErrWatermarksInverted: WriteLow >= WriteHigh after defaulting — the
	// drain hysteresis would never disengage.
	ErrWatermarksInverted = errors.New("write watermarks inverted")
	// ErrRowHitCapInvalid: a row-hit/close cap (RowHitCap, MaxRowHits)
	// resolved below 1.
	ErrRowHitCapInvalid = errors.New("row-hit cap below 1")
)

// ConfigError is the typed error NewController (and the registries) return
// for an invalid Config: Field names the offending Config field, Err is the
// sentinel category, Detail spells out the rejected value.
type ConfigError struct {
	Field  string
	Detail string
	Err    error
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("mem: config field %s: %v (%s)", e.Field, e.Err, e.Detail)
}

func (e *ConfigError) Unwrap() error { return e.Err }
