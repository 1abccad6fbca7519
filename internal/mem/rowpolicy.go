package mem

import (
	"math"

	"clrdram/internal/dram"
)

// A RowPolicy decides when the controller closes an open row on its own
// initiative (as opposed to the conflict-driven PREs the scheduler issues).
// The policy states its rule once, as BankCloseCycle; the controller both
// closes by it and assembles the row-close horizon component from it
// (horizon.go's rowCloseComponent), so a policy swap carries exact
// fast-forward support. On a cycle where neither refresh nor scheduler
// issued a command, the controller closes the lowest-numbered bank whose
// close cycle has been reached (at most one row per cycle).
type RowPolicy interface {
	// Name returns the policy's name, e.g. "timeout".
	Name() string

	// BankCloseCycle returns the first cycle at which the policy closes
	// bank b's open row, with all controller and device state frozen
	// except the clock, or ffNever when it never would (bank closed,
	// request queued for the open row, policy keeps rows open, ...). The
	// answer includes the bank's PRE floor (dram.Device.PREFloor): the
	// controller issues the PRE at that cycle, and Device.Issue panics on
	// an early one.
	BankCloseCycle(c *Controller, b int) int64
}

// timeoutPolicy closes a row once it has sat idle past the configured
// timeout with no queued request targeting it — the paper's row policy
// (Table 2 note 6, 120 ns default).
type timeoutPolicy struct {
	cycles int64 // RowTimeoutNS in device cycles, rounded up
}

func newTimeoutPolicy(dev dram.Config, cfg Config) *timeoutPolicy {
	return &timeoutPolicy{cycles: int64(math.Ceil(cfg.RowTimeoutNS / dev.ClockNS))}
}

func (p *timeoutPolicy) Name() string { return "timeout" }

// BankCloseCycle: the later of the open row's idle deadline and the PRE
// timing floor, or ffNever when the bank is closed or a queued request
// targets its open row (the exemption expires only when that request
// issues — a dirtyBank event).
func (p *timeoutPolicy) BankCloseCycle(c *Controller, b int) int64 {
	last, open := c.dev.OpenRowIdleSince(b)
	if !open {
		return ffNever
	}
	if c.openRowQueued(b) {
		return ffNever
	}
	return max(last+p.cycles, c.dev.PREFloor(b))
}

// openPagePolicy never closes rows on its own: rows stay open until a
// conflict or refresh forces a precharge. Its ffNever component keeps the
// row-close scan entirely off the tick path.
type openPagePolicy struct{}

func (openPagePolicy) Name() string                          { return "open" }
func (openPagePolicy) BankCloseCycle(*Controller, int) int64 { return ffNever }

// closedPagePolicy precharges an open row as soon as no queued request
// targets it — the classic closed-page policy that trades row-hit locality
// for lower conflict latency on random traffic.
type closedPagePolicy struct{}

func (closedPagePolicy) Name() string { return "closed" }

func (closedPagePolicy) BankCloseCycle(c *Controller, b int) int64 {
	open, _ := c.dev.BankState(b)
	if !open || c.openRowQueued(b) {
		return ffNever
	}
	return c.dev.PREFloor(b)
}

// hitCountPolicy is the max_row_hits/max_row_idle idiom (cf. SNIPPETS.md
// Snippet 3): a row is closed once it has served MaxRowHits consecutive
// column accesses since its ACT — even with further hits queued — or, below
// that count, once it has idled past the timeout like timeoutPolicy. The
// hit limit bounds how long one hot row can monopolize a bank, which the
// FR-FCFS cap only does when an older conflict is already waiting.
type hitCountPolicy struct {
	idleCycles int64
	maxHits    int
}

func newHitCountPolicy(dev dram.Config, cfg Config) *hitCountPolicy {
	return &hitCountPolicy{
		idleCycles: int64(math.Ceil(cfg.RowTimeoutNS / dev.ClockNS)),
		maxHits:    cfg.MaxRowHits,
	}
}

func (p *hitCountPolicy) Name() string { return "hitcount" }

func (p *hitCountPolicy) BankCloseCycle(c *Controller, b int) int64 {
	last, open := c.dev.OpenRowIdleSince(b)
	if !open {
		return ffNever
	}
	if c.hitStreak[b] >= p.maxHits {
		return c.dev.PREFloor(b)
	}
	if c.openRowQueued(b) {
		return ffNever
	}
	return max(last+p.idleCycles, c.dev.PREFloor(b))
}

// closeRow issues the policy-initiated PRE on bank b (its close cycle, PRE
// floor included, has been reached) and performs the shared bookkeeping:
// streak reset, the bank's queue summaries, the TimeoutCloses counter, and
// horizon dirtying.
func (c *Controller) closeRow(b int) {
	c.dev.Issue(dram.Command{Kind: dram.KindPRE, Bank: b})
	c.rowChanged(b)
	c.st.TimeoutCloses++
	c.dirtyBank(b)
}
