package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/sim"
)

// span is one timed call the benchmark made into a layer, on both clocks.
// Spans of one request share Req; Parent is the id of the enclosing span
// (0 for a root).
type span struct {
	ID        int64         `json:"id"`
	Parent    int64         `json:"parent,omitempty"`
	Req       string        `json:"req,omitempty"`
	Layer     string        `json:"layer"`
	Name      string        `json:"name"`
	SimStart  time.Duration `json:"sim_start_ns"`
	SimEnd    time.Duration `json:"sim_end_ns"`
	WallStart time.Duration `json:"wall_start_ns"`
	WallEnd   time.Duration `json:"wall_end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is how the untraced run measures.
type tracer struct {
	env   *sim.Env
	wall0 time.Time
	next  atomic.Int64
	cost  atomic.Int64 // host nanoseconds spent recording spans

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{wall0: time.Now()} }

// begin opens a span on layer; end records it.
func (t *tracer) begin(layer, name string, parent int64, req string) span {
	if t == nil {
		return span{}
	}
	w := time.Now()
	s := span{
		ID: t.next.Add(1), Parent: parent, Req: req, Layer: layer, Name: name,
		SimStart: t.env.Now(), WallStart: w.Sub(t.wall0),
	}
	t.cost.Add(int64(time.Since(w)))
	return s
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	w := time.Now()
	s.SimEnd = t.env.Now()
	s.WallEnd = w.Sub(t.wall0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.cost.Add(int64(time.Since(w)))
}

// add records a span whose bounds were inferred rather than timed around a
// call (the reshard's stages, read off the sampled meter).
func (t *tracer) add(layer, name string, parent int64, simStart, simEnd time.Duration) {
	if t == nil || simEnd <= simStart {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: t.next.Add(1), Parent: parent, Layer: layer, Name: name,
		SimStart: simStart, SimEnd: simEnd,
	})
	t.mu.Unlock()
}

// selfSeconds sums, per layer, each span's simulated duration minus the part
// of it its child spans cover. Concurrent spans of one layer add up, so the
// figure is span-seconds of work, not elapsed time.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.SimEnd - s.SimStart
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].SimStart < cs[j].SimStart })
		cur := s.SimStart
		for _, c := range cs {
			lo, hi := max(c.SimStart, cur), min(c.SimEnd, s.SimEnd)
			if hi > lo {
				self -= hi - lo
				cur = hi
			}
		}
		out[s.Layer] += self.Seconds()
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
