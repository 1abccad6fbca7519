package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"clrdram/internal/engine"
)

// pool builds the experiment-execution pool for one driver invocation: the
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

// shardStore namespaces the optional checkpoint store for one driver by a
// hash of every option that can change a shard's value — all but the
// `json:"-"` fields of Options — hashed the way warmKey hashes a warm-up,
// plus a shard-schema tag ("s3" since the hash covers the memory system),
// so shards persisted by a differently-configured run, or by an older
// binary with a different row layout, are never reused. Nil when
// checkpointing is off.
func (o Options) shardStore(driver string) (*engine.Store, error) {
	if o.Checkpoint == nil {
		return nil, nil
	}
	b, err := json.Marshal(o.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint namespace: %w", err)
	}
	sum := sha256.Sum256(b)
	return o.Checkpoint.Sub(fmt.Sprintf("%s-s3-%x", driver, sum[:8])), nil
}
