package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run: an end-to-end operation, a
// phase of one (set-up, run), a probe, or a batch of calls into one layer.
// Spans of one operation share Op; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code calls it
// unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new operation id.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id, recording how many calls it timed.
func (t *tracer) end(id int, calls int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Calls = calls
}

// batchTimer times the batches of one probe, each in its own span under the
// probe's root span, and keeps each batch's ns per call.
type batchTimer struct {
	tr        *tracer
	op, root  int
	layer     string
	total     time.Duration
	calls     int64
	nsPerCall []float64
}

func newBatchTimer(tr *tracer, layer, probe string) *batchTimer {
	op := tr.op()
	return &batchTimer{tr: tr, op: op, root: tr.begin(0, op, layer, probe), layer: layer}
}

// time runs f as one batch named name and returns its duration; f returns
// how many calls it made.
func (t *batchTimer) time(name string, f func() int64) time.Duration {
	sp := t.tr.begin(t.root, t.op, t.layer, name)
	t0 := time.Now()
	n := f()
	d := time.Since(t0)
	t.tr.end(sp, n)
	t.total += d
	t.calls += n
	if n > 0 {
		t.nsPerCall = append(t.nsPerCall, float64(d.Nanoseconds())/float64(n))
	}
	return d
}

// untimed runs set-up work of the probe in its own span of the given layer.
func (t *batchTimer) untimed(layer, name string, f func()) {
	sp := t.tr.begin(t.root, t.op, layer, name)
	f()
	t.tr.end(sp, 0)
}

// done closes the probe's root span. Its calls are counted on the batches.
func (t *batchTimer) done() { t.tr.end(t.root, 0) }

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// checkNesting reports the first span that is open, ends before it starts,
// or is not contained in its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts or was never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d, %d] outlasts its parent %d (%s) [%d, %d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) belongs to operation %d, its parent to %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	return nil
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
	Calls  int64   `json:"calls"`
}

// layerSelfTimes sums self time, spans and calls per layer, in order of
// first appearance.
func layerSelfTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []layerTime
	for i, s := range spans {
		j, ok := idx[s.Layer]
		if !ok {
			j = len(out)
			idx[s.Layer] = j
			out = append(out, layerTime{Layer: s.Layer})
		}
		out[j].SelfMS += float64(self[i]) / 1e6
		out[j].Spans++
		out[j].Calls += s.Calls
	}
	return out
}

// writeSpans writes the spans and the per-layer self times as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(struct {
		Spans  []span      `json:"spans"`
		Layers []layerTime `json:"layers"`
	}{spans, layerSelfTimes(spans)}, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
