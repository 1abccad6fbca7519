package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Store persists completed shard results as one JSON file per key, so an
// interrupted paper-scale run resumes from its completed shards instead of
// restarting. A nil *Store is valid and disables checkpointing (Load always
// misses, Save is a no-op) — callers thread an optional store through
// without branching.
//
// Keys are sanitized into file names; callers namespace runs via Sub with
// every run-shaping parameter (seed, instruction budget, ...) encoded in
// the namespace, so stale shards from a differently-configured run are
// never reused.
type Store struct {
	dir  string
	warn func(key string, err error)
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Sub returns a store rooted at a namespace subdirectory (created lazily on
// first Save), inheriting the warning hook. Sub of a nil store is nil.
func (s *Store) Sub(namespace string) *Store {
	if s == nil {
		return nil
	}
	return &Store{dir: filepath.Join(s.dir, sanitizeKey(namespace)), warn: s.warn}
}

// WithWarn returns a store that reports every skipped shard — one that
// exists on disk but cannot be decoded (truncated write, garbage, a layout
// from another binary) — to fn before recomputing it. Sub stores created
// from the returned store inherit the hook. WithWarn of a nil store is nil.
func (s *Store) WithWarn(fn func(key string, err error)) *Store {
	if s == nil {
		return nil
	}
	return &Store{dir: s.dir, warn: fn}
}

// Dir reports the store's directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Load reads the shard stored under key into v, reporting whether it was
// present. A missing or undecodable shard is a miss (the shard is simply
// recomputed), not an error.
func (s *Store) Load(key string, v any) (bool, error) {
	if s == nil {
		return false, nil
	}
	b, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		// Corrupt shard (truncated write, garbage, foreign layout): warn,
		// then treat as a miss so the caller recomputes and overwrites it.
		if s.warn != nil {
			s.warn(key, err)
		}
		return false, nil
	}
	return true, nil
}

// Save writes v as the shard for key. The write is atomic (unique temp file
// + rename) so a crash mid-write leaves no half-written shard behind, and
// two concurrent saves of the same key — possible when overlapping sweeps
// share a store — cannot interleave into a torn file.
func (s *Store) Save(key string, v any) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, sanitizeKey(key)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: checkpoint %s: %w", key, err)
	}
	return nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, sanitizeKey(key)+".json")
}

// sanitizeKey maps an arbitrary key to a safe file-name component.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '%':
			return r
		default:
			return '_'
		}
	}, key)
}

// MapCheckpointed is Map with a sharded-checkpoint layer: each task first
// probes the store under key(index, item); a hit returns the persisted
// result without running fn, a miss runs fn and persists its result. The
// result type O must round-trip through JSON. Progress counts resumed
// shards like freshly computed ones, so (done, total) stays meaningful
// across a resume.
func MapCheckpointed[I, O any](ctx context.Context, pool *Pool, store *Store, items []I, key func(index int, item I) string, fn func(ctx context.Context, index int, item I) (O, error)) ([]O, error) {
	if store == nil {
		return Map(ctx, pool, items, fn)
	}
	return Map(ctx, pool, items, func(ctx context.Context, i int, item I) (O, error) {
		k := key(i, item)
		var out O
		if ok, err := store.Load(k, &out); err != nil || ok {
			return out, err
		}
		out, err := fn(ctx, i, item)
		if err != nil {
			return out, err
		}
		return out, store.Save(k, out)
	})
}
