package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the ID of the enclosing span (0 for a
// root); Start is nanoseconds since the tracer began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	Dur      int64  `json:"dur_ns"`
	// Attr qualifies a span where its name alone does not say enough:
	// the cache layer that answered a query, or "audit=off".
	Attr string `json:"attr,omitempty"`
}

// tracer keeps spans in memory, single-threaded: the traced run is
// serial. A nil *tracer records nothing, so untraced code paths call
// the same helpers.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // indices of the currently open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns a
// function that closes it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, idx)
	return func() {
		s := &t.spans[idx]
		s.Dur = int64(time.Since(t.epoch)) - s.Start
		t.open = t.open[:len(t.open)-1]
	}
}

// attr sets the attribute of the innermost open span.
func (t *tracer) attr(a string) {
	if t != nil && len(t.open) > 0 {
		t.spans[t.open[len(t.open)-1]].Attr = a
	}
}

// do runs f inside a span and returns its duration in seconds.
func (t *tracer) do(layer, name string, f func()) float64 {
	start := time.Now()
	end := t.begin(layer, name)
	f()
	end()
	return time.Since(start).Seconds()
}

// selfTimes returns each layer's self time in seconds: the time its
// spans cover minus the time covered by their direct children.
func selfTimes(spans []span) map[string]float64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if p, ok := byID[s.Parent]; ok {
			self[p] -= s.Dur
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

// writeSelfTimes prints the layers' self times, largest first.
func writeSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	for _, l := range layers {
		fmt.Fprintf(w, "# self %-13s %9.4f s\n", l, self[l])
	}
}

// writeSpans appends the spans to w as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
