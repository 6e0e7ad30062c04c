package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory: one span around each
// timed call into a layer's public API, nested under the span that made
// the call. Phase totals the program already reports through a public
// option are folded into the span that covers them. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0: root
	Name   string             `json:"name"`
	Rank   int                `json:"rank"` // -1: not rank-scoped
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Folded map[string]float64 `json:"folded_s,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, rank int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rank: rank, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// fold attributes sec seconds of a program-reported phase to span id.
func (t *tracer) fold(id int, phase string, sec float64) {
	if t == nil || id == 0 || sec == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	if s.Folded == nil {
		s.Folded = map[string]float64{}
	}
	s.Folded[phase] += sec
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in seconds, indexed like spans:
// its duration minus the part of its interval that its child spans cover
// (overlapping children, such as concurrent ranks, count once) minus the
// phase seconds folded into it. Never negative.
func selfTimes(spans []span) []float64 {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := float64(s.End-s.Start)/1e9 - float64(coveredNs(iv))/1e9
		for _, sec := range s.Folded {
			self -= sec
		}
		out[i] = max(self, 0)
	}
	return out
}

// coveredNs is the length of the union of the intervals.
func coveredNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotal is the spans of one name (or one folded phase) added up.
type layerTotal struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTotals sums span durations and self times by span name, and the
// folded phase seconds by phase name (prefixed "phase.").
func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += self[i]
		out[s.Name] = lt
		for ph, sec := range s.Folded {
			f := out["phase."+ph]
			f.Spans++
			f.TotalS += sec
			f.SelfS += sec
			out["phase."+ph] = f
		}
	}
	return out
}

// writeTrace writes the spans and per-layer totals of a traced run.
func writeTrace(path string, spans []span, layers map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Layers map[string]float64    `json:"per_layer"`
		Totals map[string]layerTotal `json:"span_totals"`
		Spans  []span                `json:"spans"`
	}{layers, layerTotals(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
