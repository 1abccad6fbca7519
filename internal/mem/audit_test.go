package mem

import (
	"math/rand"
	"testing"

	"clrdram/internal/dram"
)

// auditor independently re-checks the command stream the device accepted
// against the JEDEC-style timing rules, using only the command log — a
// cross-check that the Device state machine and the Controller scheduler
// together never violate a constraint.
type auditor struct {
	t       *testing.T
	cfg     dram.Config
	banks   []auditBank
	lastACT []int64 // rank-wide ACT history for tFAW
	refBusy int64
}

type auditBank struct {
	open    bool
	mode    dram.Mode
	actAt   int64
	lastRD  int64
	lastWR  int64
	preAt   int64
	everACT bool
	everPRE bool
	everRD  bool
	everWR  bool
}

func newAuditor(t *testing.T, cfg dram.Config) *auditor {
	return &auditor{t: t, cfg: cfg, banks: make([]auditBank, cfg.Banks())}
}

func (a *auditor) ts(m dram.Mode) dram.TimingSet { return a.cfg.Timings[m] }

func (a *auditor) OnCommand(cmd dram.Command, now int64) {
	if now < a.refBusy && cmd.Kind != dram.KindREF {
		a.t.Fatalf("cycle %d: %v during tRFC window (until %d)", now, cmd.Kind, a.refBusy)
	}
	switch cmd.Kind {
	case dram.KindACT:
		b := &a.banks[cmd.Bank]
		if b.open {
			a.t.Fatalf("cycle %d: ACT on open bank %d", now, cmd.Bank)
		}
		if b.everPRE {
			ts := a.ts(b.mode)
			if gap := now - b.preAt; gap < int64(ts.RP) {
				a.t.Fatalf("cycle %d: PRE→ACT gap %d < tRP %d (bank %d)", now, gap, ts.RP, cmd.Bank)
			}
		}
		// tFAW over the last four rank ACTs.
		ts := a.ts(cmd.Mode)
		if n := len(a.lastACT); n >= 4 {
			if gap := now - a.lastACT[n-4]; gap < int64(ts.FAW) {
				a.t.Fatalf("cycle %d: 5th ACT within tFAW (gap %d < %d)", now, gap, ts.FAW)
			}
		}
		if n := len(a.lastACT); n >= 1 {
			if gap := now - a.lastACT[n-1]; gap < int64(ts.RRDS) {
				a.t.Fatalf("cycle %d: ACT→ACT gap %d < tRRD_S %d", now, gap, ts.RRDS)
			}
		}
		a.lastACT = append(a.lastACT, now)
		b.open = true
		b.mode = cmd.Mode
		b.actAt = now
		b.everACT = true
		b.everRD = false
		b.everWR = false
	case dram.KindPRE:
		b := &a.banks[cmd.Bank]
		if !b.open {
			a.t.Fatalf("cycle %d: PRE on closed bank %d", now, cmd.Bank)
		}
		ts := a.ts(b.mode)
		if gap := now - b.actAt; gap < int64(ts.RAS) {
			a.t.Fatalf("cycle %d: ACT→PRE gap %d < tRAS %d (bank %d, %v)", now, gap, ts.RAS, cmd.Bank, b.mode)
		}
		if b.everRD {
			if gap := now - b.lastRD; gap < int64(ts.RTP) {
				a.t.Fatalf("cycle %d: RD→PRE gap %d < tRTP %d", now, gap, ts.RTP)
			}
		}
		if b.everWR {
			if gap := now - b.lastWR; gap < int64(ts.CWL+ts.BL+ts.WR) {
				a.t.Fatalf("cycle %d: WR→PRE gap %d < write recovery %d", now, gap, ts.CWL+ts.BL+ts.WR)
			}
		}
		b.open = false
		b.preAt = now
		b.everPRE = true
	case dram.KindPREA:
		// Precharge-all must satisfy every open bank's PRE constraints.
		for i := range a.banks {
			b := &a.banks[i]
			if !b.open {
				continue
			}
			ts := a.ts(b.mode)
			if gap := now - b.actAt; gap < int64(ts.RAS) {
				a.t.Fatalf("cycle %d: PREA before tRAS of bank %d (gap %d < %d)", now, i, gap, ts.RAS)
			}
			if b.everRD {
				if gap := now - b.lastRD; gap < int64(ts.RTP) {
					a.t.Fatalf("cycle %d: PREA before tRTP of bank %d", now, i)
				}
			}
			if b.everWR {
				if gap := now - b.lastWR; gap < int64(ts.CWL+ts.BL+ts.WR) {
					a.t.Fatalf("cycle %d: PREA before write recovery of bank %d", now, i)
				}
			}
			b.open = false
			b.preAt = now
			b.everPRE = true
		}
	case dram.KindRD, dram.KindWR:
		b := &a.banks[cmd.Bank]
		if !b.open {
			a.t.Fatalf("cycle %d: %v on closed bank %d", now, cmd.Kind, cmd.Bank)
		}
		ts := a.ts(b.mode)
		if gap := now - b.actAt; gap < int64(ts.RCD) {
			a.t.Fatalf("cycle %d: ACT→%v gap %d < tRCD %d (%v)", now, cmd.Kind, gap, ts.RCD, b.mode)
		}
		if cmd.Kind == dram.KindRD {
			b.lastRD = now
			b.everRD = true
		} else {
			b.lastWR = now
			b.everWR = true
		}
	case dram.KindREF:
		for i := range a.banks {
			if a.banks[i].open {
				a.t.Fatalf("cycle %d: REF with bank %d open", now, i)
			}
		}
		a.refBusy = now + int64(a.ts(cmd.Mode).RFC)
	}
}

// clrModeByRow maps the first quarter of rows to high-performance mode.
type clrModeByRow struct{ rows int }

func (m clrModeByRow) RowMode(bank, row int) dram.Mode {
	if row < m.rows/4 {
		return dram.ModeHighPerf
	}
	return dram.ModeMaxCap
}

// TestControllerNeverViolatesTimingUnderRandomTraffic drives the controller
// with randomized mixed traffic over a CLR device (mixed row modes) and
// audits every accepted command against the timing rules, for every
// scheduler × row-policy pair.
func TestControllerNeverViolatesTimingUnderRandomTraffic(t *testing.T) {
	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				auditRandomCLRTraffic(t, sched, policy)
			})
		}
	}
}

func auditRandomCLRTraffic(t *testing.T, sched, policy string) {
	cfg := smallCfg()
	cfg.Timings[dram.ModeMaxCap] = dram.MaxCapNS().ToCycles(cfg.ClockNS)
	cfg.Timings[dram.ModeHighPerf] = dram.HighPerfNS(true).ToCycles(cfg.ClockNS)
	cfg.ModeOf = clrModeByRow{rows: cfg.Rows}

	aud := newAuditor(t, cfg)
	cfg.Listener = aud
	dev := dram.NewDevice(cfg)
	c, err := NewController(dev, Config{
		Scheduler: sched,
		RowPolicy: policy,
		Refresh:   StandardRefresh(cfg.ClockNS, dram.ModeMaxCap, 0.25, 64),
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	completed := 0
	issued := 0
	const total = 3000
	for cycle := 0; cycle < 3_000_000 && completed < total; cycle++ {
		if issued < total && rng.Intn(3) == 0 {
			req := &Request{
				Addr:       uint64(rng.Int63()) % (1 << 29),
				Write:      rng.Intn(4) == 0,
				OnComplete: func(int64) { completed++ },
			}
			if enqueue(c, req) {
				issued++
			}
		}
		c.Tick()
	}
	if completed != total {
		t.Fatalf("only %d/%d requests completed", completed, total)
	}
	if c.Stats().Refreshes == 0 {
		t.Fatal("no refreshes during audit run")
	}
}

// TestAuditBaselineTraffic runs the same audit against a plain DDR4 device.
func TestAuditBaselineTraffic(t *testing.T) {
	cfg := smallCfg()
	aud := newAuditor(t, cfg)
	cfg.Listener = aud
	dev := dram.NewDevice(cfg)
	c, err := NewController(dev, Config{
		Refresh: StandardRefresh(cfg.ClockNS, dram.ModeDefault, 0, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	completed := 0
	const total = 1500
	issued := 0
	for cycle := 0; cycle < 2_000_000 && completed < total; cycle++ {
		if issued < total {
			// Burstier arrival than the CLR test: stress queue pressure.
			for k := 0; k < 2 && issued < total; k++ {
				req := &Request{
					Addr:       uint64(rng.Int63()) % (1 << 26), // fewer rows: more conflicts
					Write:      rng.Intn(3) == 0,
					OnComplete: func(int64) { completed++ },
				}
				if enqueue(c, req) {
					issued++
				}
			}
		}
		c.Tick()
	}
	if completed != total {
		t.Fatalf("only %d/%d requests completed", completed, total)
	}
	st := c.Stats().RowBuffer
	if st.Conflicts == 0 {
		t.Fatal("conflict-heavy traffic produced no row-buffer conflicts")
	}
}
