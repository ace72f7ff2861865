package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call (or batch of calls) into a layer. Spans of one
// walked request batch share Req; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls is how many calls the span covers: sub-microsecond functions
	// are timed in batches so the two clock reads do not dominate.
	Calls int `json:"calls"`
	// SelfNs is filled in by finish: the span's duration minus the part of
	// it its children cover.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req, calls int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Calls: calls,
		StartNs: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.origin).Nanoseconds()
	return s.EndNs - s.StartNs
}

// selfTimes returns, per span ID, the span's duration minus the union of
// its children's intervals clipped to the span — overlapping children are
// not subtracted twice, and a child that outlives its parent only counts
// for the part inside it.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.StartNs
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		out[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return out
}

// finish fills in every span's self time and reports whether the spans
// tile: every child lies inside its parent, and the durations of a span's
// children sum to no more than the span itself. The harness records spans
// from one goroutine, so a failure means the recorder is broken, not that
// work overlapped.
func (t *tracer) finish() (tiles bool) {
	self := selfTimes(t.spans)
	childSum := make(map[int]int64)
	tiles = true
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = self[s.ID]
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			tiles = false
		}
		childSum[p.ID] += s.EndNs - s.StartNs
	}
	for id, sum := range childSum {
		if p := t.spans[id-1]; sum > p.EndNs-p.StartNs {
			tiles = false
		}
	}
	return tiles
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Host  hostInfo `json:"host"`
	Seed  uint64   `json:"seed"`
	Spans []span   `json:"spans"`
}

func (t *tracer) write(path string, host hostInfo, seed uint64) error {
	data, err := json.Marshal(traceFile{Host: host, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
