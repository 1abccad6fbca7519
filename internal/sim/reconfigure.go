package sim

import (
	"context"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/mem"
)

// ReconfigureResult reports what one dynamic reconfiguration cost.
type ReconfigureResult struct {
	From, To        core.Config
	MigratedPages   int
	MigratedLines   int
	MigrationCycles int64 // CPU cycles spent in the stop-the-world copy
}

// Reconfigure switches a running CLR-DRAM system to a new high-performance
// row fraction — the paper's headline capability (§1, §3.2) exercised live.
//
// The model is a stop-the-world migration: the cores pause, pages whose
// frame changes under the new mapping are copied through the memory
// controller (one line read + one line write per 64 B line, respecting all
// queue and timing constraints), the row-mode boundary and refresh schedule
// are updated, and execution resumes. Thanks to the hot-up/cold-down frame
// layout, only pages whose hot/cold classification changed move.
//
// Only the HPFraction may change: the refresh window and early-termination
// setting fix the device's timing sets at build time.
func (s *System) Reconfigure(to core.Config) (ReconfigureResult, error) {
	res := ReconfigureResult{From: s.clr, To: to}
	if s.threshold == nil {
		return res, fmt.Errorf("sim: baseline system is not reconfigurable")
	}
	if err := to.Validate(); err != nil {
		return res, err
	}
	if !to.Enabled || to.REFWms != s.clr.REFWms || to.EarlyTermination != s.clr.EarlyTermination {
		return res, fmt.Errorf("sim: dynamic reconfiguration may only change HPFraction (have %s, want %s)", s.clr, to)
	}

	// Build the new mapping from the stored profiling rankings.
	ranking := combineRankings(s.rankings, s.bases, to.HPFraction)
	next, err := core.BuildMappingMulti(s.devCfg, to, ranking, s.totalPages, s.opts.Channels)
	if err != nil {
		return res, err
	}

	// Migrate every page whose frame changed: read from the old frame,
	// write to the new one. Reads go through the old mapping, writes
	// through the new; both streams respect full controller timing.
	moved := s.mapper.Diff(next)
	res.MigratedPages = len(moved)
	start := s.cpuCycle

	const linesPerPage = core.PageBytes / 64
	type pending struct{ page, line int }
	queue := make([]pending, 0, len(moved)*linesPerPage)
	for _, page := range moved {
		for l := 0; l < linesPerPage; l++ {
			queue = append(queue, pending{page, l})
		}
	}
	res.MigratedLines = len(queue)

	type deferredWrite struct {
		addr uint64
		ch   int
		da   mem.Address
	}
	var deferred []deferredWrite
	inFlight := 0
	qi := 0
	flushDeferred := func() {
		for len(deferred) > 0 {
			d := deferred[len(deferred)-1]
			wr := &mem.Request{Addr: d.addr, Write: true, OnComplete: func(int64) { inFlight-- }}
			if !s.ctrls[d.ch].EnqueueDecoded(wr, d.da) {
				return
			}
			deferred = deferred[:len(deferred)-1]
		}
	}
	for qi < len(queue) || inFlight > 0 || len(deferred) > 0 {
		flushDeferred()
		// Issue as many migration reads as the controllers accept; the
		// write to the new frame is issued by the read's completion.
		for qi < len(queue) {
			p := queue[qi]
			addr := uint64(p.page)*core.PageBytes + uint64(p.line)*64
			oldCh, oldDA := s.mapper.TranslateChannel(addr)
			newCh, newDA := next.TranslateChannel(addr)
			if !s.ctrls[oldCh].CanEnqueue(false) {
				break
			}
			req := &mem.Request{
				Addr: addr,
				OnComplete: func(int64) {
					wr := &mem.Request{Addr: addr, Write: true, OnComplete: func(int64) { inFlight-- }}
					if !s.ctrls[newCh].EnqueueDecoded(wr, newDA) {
						// Write queue full: defer and retry with the NEW
						// frame coordinates each migration cycle.
						deferred = append(deferred, deferredWrite{addr: addr, ch: newCh, da: newDA})
					}
				},
			}
			if !s.ctrls[oldCh].EnqueueDecoded(req, oldDA) {
				break
			}
			inFlight++
			qi++
		}
		s.stepMemoryOnly()
	}
	// Drain everything before resuming the cores.
	for !s.allDrained() {
		s.stepMemoryOnly()
	}
	res.MigrationCycles = s.cpuCycle - start

	// Swap in the new mapping, row-mode boundary and refresh schedule. The
	// row-mode change alters timing lookups behind the controllers' backs,
	// so their memoised fast-forward horizons must be dropped.
	s.mapper = next
	s.threshold.SetHPRows(to.HPRows(s.devCfg.Rows))
	streams := mem.StandardRefresh(s.devCfg.ClockNS, s.threshold.Else, to.HPFraction, to.REFWms)
	for _, ctrl := range s.ctrls {
		if err := ctrl.SetRefresh(streams); err != nil {
			return res, err
		}
		ctrl.InvalidateHorizon()
	}
	s.clr = to
	return res, nil
}

// stepMemoryOnly advances one CPU cycle with the cores paused (used during
// stop-the-world migration). The device clock advances as in step, so
// migration cost is measured in CPU cycles.
func (s *System) stepMemoryOnly() {
	s.retryWritebacks()
	s.clockCycle()
	s.cpuCycle++
	s.paused++
}

// allDrained reports whether every controller has no queued or in-flight
// work.
func (s *System) allDrained() bool {
	for _, ctrl := range s.ctrls {
		if !ctrl.Drained() {
			return false
		}
	}
	return true
}

// RunFor advances the system until every core has retired at least n more
// instructions than it had (or the safety bound is hit); used to drive
// phase-structured executions around Reconfigure calls.
func (s *System) RunFor(n uint64) Result {
	ceilings := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		ceilings[i] = c.Retired() + n
	}
	done := func() bool {
		for i, c := range s.cores {
			if c.Retired() < ceilings[i] {
				return false
			}
		}
		return true
	}
	timedOut, _ := s.runLoop(context.Background(), done, ceilings)
	return s.snapshotResult(timedOut)
}
