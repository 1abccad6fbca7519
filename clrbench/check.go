package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"clrdram/internal/cache"
	"clrdram/internal/mem"
	"clrdram/internal/power"
	"clrdram/internal/sim"
	"clrdram/internal/stats"
)

// simDigest hashes the simulated statistics of one run: cycles, every
// core's counters (retired instructions and cycles among them), the LLC and
// controller counters and the energy breakdown. Any change to a modelled
// result changes it; host timings are not part of it.
func simDigest(res sim.Result) (uint64, error) {
	return digestOf(struct {
		CPUCycles, DRAMCycles int64
		TimedOut              bool
		PerCore               []stats.CoreStats
		LLC                   cache.Stats
		Mem                   mem.Stats
		Energy                power.Breakdown
	}{res.CPUCycles, res.DRAMCycles, res.TimedOut, res.PerCore, res.LLC, res.Mem, res.Energy})
}

// digestOf hashes v's JSON encoding: encoding/json writes every float64
// with the shortest representation that round-trips, so equal digests mean
// bit-equal values. It fails on NaN or infinite values, which no correct
// result holds.
func digestOf(v any) (uint64, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// checkSimResult reports why a sim operation's result is wrong, or nil: the
// run timed out, or a core fell short of its instruction target.
func checkSimResult(res sim.Result, cores int, target uint64) error {
	if res.TimedOut {
		return fmt.Errorf("run hit its cycle bound before every core reached %d instructions", target)
	}
	if len(res.PerCore) != cores {
		return fmt.Errorf("result has %d cores, want %d", len(res.PerCore), cores)
	}
	for i, c := range res.PerCore {
		if c.Instructions < target {
			return fmt.Errorf("core %d retired %d instructions, short of its target %d", i, c.Instructions, target)
		}
	}
	return nil
}

// digestCheck compares every operation's digest with the pinned one (when
// there is one) and with the first operation's: all operations of a run use
// the same seed, so they must agree exactly.
type digestCheck struct {
	pinned uint64 // 0: nothing pinned for this seed and size
	first  uint64
	seen   bool
}

func (c *digestCheck) check(d uint64) error {
	if c.pinned != 0 && d != c.pinned {
		return fmt.Errorf("digest %016x differs from the pinned %016x", d, c.pinned)
	}
	if c.seen && d != c.first {
		return fmt.Errorf("digest %016x differs from the first repetition's %016x", d, c.first)
	}
	if !c.seen {
		c.first, c.seen = d, true
	}
	return nil
}
