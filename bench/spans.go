package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program under test. Spans of one harness operation share a Trace id; Parent
// is the id of the span that caused this one (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations pay one pointer test per call site. The
// suite delivers results from worker goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// all returns a copy of the recorded spans, in begin order.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL flushes the spans, one JSON object per line.
func writeSpansJSONL(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span %d: %w", s.ID, err)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// spanMillis returns the durations, in milliseconds, of every span with the
// given name.
func spanMillis(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.duration())/1e6)
		}
	}
	return out
}

// spanRow summarises the spans of one name: how many, and the medians of
// their durations and self times in milliseconds.
type spanRow struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	MedianMs float64 `json:"median_ms"`
	SelfMs   float64 `json:"self_median_ms"`
}

// spanTable folds the spans by name, in order of first appearance.
func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	var names []string
	total, own := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if _, seen := total[s.Name]; !seen {
			names = append(names, s.Name)
		}
		total[s.Name] = append(total[s.Name], float64(s.duration())/1e6)
		own[s.Name] = append(own[s.Name], float64(self[s.ID])/1e6)
	}
	rows := make([]spanRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, spanRow{Name: n, N: len(total[n]), MedianMs: median(total[n]), SelfMs: median(own[n])})
	}
	return rows
}
