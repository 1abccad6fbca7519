package serve

import "errors"

// The typed admission/lookup errors. The HTTP layer maps them onto status
// codes (429/503/404/409); embedded users match with errors.Is.
var (
	// ErrQueueFull rejects a submission when the admission backlog is at
	// Config.MaxQueued. The bound is what keeps a flood of submissions from
	// growing server memory without limit; callers should back off and
	// retry (HTTP: 429 with Retry-After).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining rejects submissions after Drain began: the daemon is
	// checkpointing and shutting down.
	ErrDraining = errors.New("serve: daemon is draining")
	// ErrUnknownJob reports a job ID that is neither active nor retained in
	// the result cache.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrNotReady reports a report fetch for a job still queued or running.
	ErrNotReady = errors.New("serve: job not finished")
)
