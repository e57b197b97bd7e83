package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Parent is the index of
// the enclosing span in the tracer's slice, -1 for a root; Rep identifies
// the repetition all spans of one measured pass share.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it and the span's
// index, for children to name as their parent.
func (t *tracer) begin(name string, parent, rep int) (end func(), id int) {
	if t == nil {
		return func() {}, -1
	}
	t.mu.Lock()
	id = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: rep, StartNS: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id].EndNS = now
		t.mu.Unlock()
	}, id
}

// selfTimes sums, per span name, duration minus the part of that interval
// its direct children cover. Children may overlap (the fleet paths open
// session spans on T goroutines under one repetition span), so coverage is
// the union of the child intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type interval struct{ start, end int64 }
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if iv := (interval{max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)}); iv.end > iv.start {
				children[s.Parent] = append(children[s.Parent], iv)
			}
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		covered, reach := int64(0), s.StartNS
		for _, iv := range ivs {
			if iv.end > reach {
				covered += iv.end - max(iv.start, reach)
				reach = iv.end
			}
		}
		self[s.Name] += s.EndNS - s.StartNS - covered
	}
	return self
}

// writeFile writes the spans and the per-name self times as one JSON object.
func (t *tracer) writeFile(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNS map[string]int64 `json:"self_ns"`
	}{t.spans, self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
