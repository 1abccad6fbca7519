package sim

import (
	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

// Checkpoint-and-fork warmup (DESIGN.md §13). Every run of a sweep row
// repeats the same pre-measurement work for each configuration: profile the
// workloads for the hot-page ranking, then stream warmup records through the
// LLC. None of it depends on the CLR configuration under test — only on
// (profiles, seed, record budgets, LLC geometry) — so a row (row.run) warms
// its workload set up once and forks that master state into every
// configuration: the rankings are shared read-only, the LLC is deep-copied,
// and the per-core trace readers are cloned at their post-warmup positions
// (trace.CloneableReader; a synthetic generator holds its PRNG by value, so
// a fork is a copy and nothing replays: a forked stream is the cold stream,
// bit for bit). Forked runs
// are byte-identical to cold ones by contract — enforced by the warmfork
// differential tests next to ffdiff.

// warmState is the outcome of the pre-measurement sequence (prewarm):
// everything NewSystem computes before the measured phase that does not
// depend on the CLR configuration.
type warmState struct {
	bases      []uint64       // per-core base addresses in the global space
	totalPages int            // pages of all cores' regions together
	rankings   [][]int        // per-core hot-page rankings
	llc        *cache.Cache   // the warmed LLC
	readers    []trace.Reader // positioned just past warmup
}

// prewarm validates the defaulted options and the profiles, then runs a
// system's pre-measurement sequence. Each core gets a private page-aligned
// region of the global address space, packed contiguously. Each workload is
// profiled for its hot-page ranking (§8.1) from a clone of the run's own
// fresh reader. Then WarmupRecords per core stream through a fresh LLC with
// no timing, core-major — the LLC's recency order depends on the
// interleaving — so the measured phase starts with realistic cache state;
// the run's readers continue from there.
func prewarm(profiles []workload.Profile, opts Options) (*warmState, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ws := &warmState{
		bases:    make([]uint64, len(profiles)),
		rankings: make([][]int, len(profiles)),
		llc:      cache.New(opts.LLC),
		readers:  make([]trace.Reader, len(profiles)),
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		ws.bases[i] = uint64(ws.totalPages) * core.PageBytes
		ws.totalPages += p.FootprintPages
	}
	for i, p := range profiles {
		rd := p.NewReader(opts.Seed + int64(i))
		prof := core.NewProfiler()
		prof.Sample(rd.(trace.CloneableReader).CloneReader(), opts.ProfileRecords)
		ws.rankings[i] = prof.Ranking(p.FootprintPages)
		for n := 0; n < opts.WarmupRecords; n++ {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			addr := ws.bases[i] + rec.Addr
			if ws.llc.Access(addr, rec.Write, nil) == cache.Miss {
				ws.llc.Fill(ws.llc.LineAddr(addr)) // warmup writebacks carry no timing cost
			}
		}
		ws.readers[i] = rd
	}
	return ws, nil
}

// fork returns one run's copy of the master state w: the layout and
// rankings are shared read-only, the LLC is deep-copied, and the readers are
// cloned at their post-warmup positions (every reader Profile.NewReader
// returns is a trace.CloneableReader).
func (w *warmState) fork() *warmState {
	ws := *w
	ws.llc = w.llc.Clone()
	ws.readers = make([]trace.Reader, len(w.readers))
	for i, rd := range w.readers {
		ws.readers[i] = rd.(trace.CloneableReader).CloneReader()
	}
	return &ws
}
