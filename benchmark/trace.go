package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Query  string `json:"query"`  // spans of one replayed query share it
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, which is how the untraced replay runs the very
// same code to measure what tracing costs. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, the parent for nested calls.
func (t *tracer) begin(parent int, query, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its children cover. Overlapping children (two workers inside one
// enclosing span) are merged first, so shared time is subtracted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		reach := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// budget is a time budget over the descendants of some root spans: each
// layer's self time as a share of the roots' total, with the roots' own self
// time — the part no layer span covers — named "unattributed". The shares
// sum to 1.
func budgetOf(spans []span, isRoot func(span) bool) map[string]float64 {
	self := selfTimes(spans)
	under := make([]bool, len(spans)) // spans are appended parent-first
	total := time.Duration(0)
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		switch {
		case s.Parent < 0 && isRoot(s):
			under[i] = true
			total += time.Duration(s.End - s.Start)
			byLayer["unattributed"] += self[i]
		case s.Parent >= 0 && under[s.Parent]:
			under[i] = true
			byLayer[s.layer()] += self[i]
		}
	}
	shares := make(map[string]float64, len(byLayer))
	for layer, d := range byLayer {
		if total > 0 {
			shares[layer] = float64(d) / float64(total)
		}
	}
	return shares
}
