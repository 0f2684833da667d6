package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the recorder's origin.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// spanRecorder keeps spans in memory until the run ends. Calls into
// the layers are made from one goroutine, so spans nest as a stack. A
// nil recorder records nothing, which is how untraced runs pay for no
// tracing.
type spanRecorder struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans of the spans not yet ended
}

func newSpanRecorder() *spanRecorder {
	//skia:nondet-ok wall-clock origin of the benchmark's own trace; no simulated state depends on it
	return &spanRecorder{origin: time.Now()}
}

// begin opens a span under the innermost open span and returns a
// function that ends it.
func (r *spanRecorder) begin(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		ID: idx + 1, Parent: parent, Name: name,
		//skia:nondet-ok span timestamps are host timings reported by the benchmark
		StartNS: time.Since(r.origin).Nanoseconds(),
	})
	r.open = append(r.open, idx)
	return func() {
		//skia:nondet-ok span timestamps are host timings reported by the benchmark
		r.spans[idx].EndNS = time.Since(r.origin).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// fillSelfTimes sets every span's self time: its duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once).
func fillSelfTimes(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered, reach int64
		reach = s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// selfByName sums self time in seconds per span name.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.SelfNS) / 1e9
	}
	return out
}

// writeSpans writes the trace as one JSON document; every span shares
// the run's trace identifier.
func writeSpans(path, traceID string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.MarshalIndent(struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	}{traceID, spans}, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
