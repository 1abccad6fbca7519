package sim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/workload"
)

// row is the unit of every sweep (DESIGN.md §7): one workload set, a
// profile per core, run under a list of configurations. Each distinct row
// is one engine shard, checkpointed under a hash of its content, so two
// rows share a shard exactly when they compute the same runs.
type row struct {
	Profiles []workload.Profile `json:"profiles"`
	Configs  []core.Config      `json:"configs"`
	// driver and name identify the row's runs in a RunError; unexported,
	// they stay out of the shard key.
	driver, name string
}

// singleRow is the row of one profile on one core.
func singleRow(p workload.Profile, cfgs ...core.Config) row {
	return row{Profiles: []workload.Profile{p}, Configs: cfgs, driver: "single", name: p.Name}
}

// mixRow is the row of a multiprogrammed mix.
func mixRow(m workload.Mix, cfgs ...core.Config) row {
	return row{Profiles: m.Profiles[:], Configs: cfgs, driver: "mix", name: m.Name}
}

// runRecord is what a sweep keeps of one run: the numbers its figures
// reduce.
type runRecord struct {
	IPC        []float64 `json:"ipc"`     // per core
	MPKI       float64   `json:"mpki"`    // core 0
	Energy     float64   `json:"energy"`  // total DRAM energy
	Refresh    float64   `json:"refresh"` // refresh energy
	PowerMW    float64   `json:"power_mw"`
	RowHitRate float64   `json:"row_hit_rate"`
	BankUtil   float64   `json:"bank_util"`
}

// runSystem builds and runs one system of r's workload set under clr,
// starting from ws (see newSystem). Failures carry r's identity.
func runSystem(ctx context.Context, r row, clr core.Config, opts Options, ws *warmState) (Result, error) {
	s, err := newSystem(r.Profiles, clr, opts, ws)
	if err != nil {
		return Result{}, runErr(r.driver, r.name, clr, err)
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return Result{}, runErr(r.driver, r.name, clr, err)
	}
	return res, nil
}

// run warms the row's workload set up once and forks that state into one
// run per configuration.
func (r row) run(ctx context.Context, opts Options) ([]runRecord, error) {
	opts = opts.withDefaults()
	master, err := prewarm(r.Profiles, opts)
	if err != nil { // a bad profile fails the row's first run
		return nil, runErr(r.driver, r.name, r.Configs[0], err)
	}
	out := make([]runRecord, len(r.Configs))
	for i, clr := range r.Configs {
		res, err := runSystem(ctx, r, clr, opts, master.fork())
		if err != nil {
			return nil, err
		}
		out[i] = runRecord{IPC: res.IPC(), MPKI: res.PerCore[0].MPKI(),
			Energy: res.Energy.Total(), Refresh: res.Energy.Refresh, PowerMW: res.PowerMW,
			RowHitRate: res.Mem.RowBuffer.HitRate(), BankUtil: res.BankUtil}
	}
	return out, nil
}

// runRows runs every distinct row once, as one shard on the experiment
// engine keyed by a hash of its content (profiles in full, in core order,
// and configurations), and returns each row's records in configuration
// order; rows with equal content share their records.
func runRows(ctx context.Context, rows []row, opts Options) ([][]runRecord, error) {
	store, err := opts.shardStore()
	if err != nil {
		return nil, err
	}
	var uniq []row
	var keys []string
	at := make([]int, len(rows)) // index into uniq
	first := map[string]int{}
	for i, r := range rows {
		k, err := contentKey(r)
		if err != nil {
			return nil, err
		}
		j, ok := first[k]
		if !ok {
			j = len(uniq)
			first[k] = j
			uniq, keys = append(uniq, r), append(keys, k)
		}
		at[i] = j
	}
	recs, err := engine.MapCheckpointed(ctx, opts.pool(), store, uniq,
		func(j int, _ row) string { return keys[j] },
		func(ctx context.Context, _ int, r row) ([]runRecord, error) { return r.run(ctx, opts) })
	if err != nil {
		return nil, err
	}
	out := make([][]runRecord, len(rows))
	for i, j := range at {
		out[i] = recs[j]
	}
	return out, nil
}

// contentKey hashes v's JSON encoding into a checkpoint key.
func contentKey(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("sim: checkpoint key: %w", err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8]), nil
}

// pool builds the experiment-execution pool for one sweep: the
// caller-owned SharedPool when set (its concurrency budget is shared with
// every other run holding it), a fresh Workers-wide pool otherwise.
func (o Options) pool() *engine.Pool {
	p := o.SharedPool
	if p == nil {
		p = engine.NewPool(o.Workers)
	}
	if o.Progress != nil {
		p = p.WithProgress(o.Progress)
	}
	if o.Timer != nil {
		p = p.WithTimer(o.Timer)
	}
	return p
}

// shardStore namespaces the optional checkpoint store by a hash of every
// option that can change a shard's value — all but the `json:"-"` fields
// of Options — plus a shard-schema tag ("s4" since a shard is one row's run
// records), so shards persisted by a differently-configured run, or by an
// older binary with a different layout, are never reused. Nil when
// checkpointing is off.
func (o Options) shardStore() (*engine.Store, error) {
	if o.Checkpoint == nil {
		return nil, nil
	}
	key, err := contentKey(o.withDefaults())
	if err != nil {
		return nil, err
	}
	return o.Checkpoint.Sub("rows-s4-" + key), nil
}
