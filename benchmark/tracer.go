package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around the call into the layer. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its child spans
	// cover; filled in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It is driven from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	id := t.add(name, t.now(), 0)
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

// add records a span with known times under the innermost open one.
func (t *tracer) add(name string, start, end int64) int {
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: start, End: end})
	return id
}

// covered is the length of the union of the given spans' intervals
// clipped to [lo, hi]: children of a sweep overlap, so their durations
// cannot simply be summed.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		start, end := s.Start, s.End
		if start < cur {
			start = cur
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// withSelf returns the spans with their self times filled in.
func withSelf(spans []span) []span {
	out := append([]span(nil), spans...)
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i, s := range out {
		out[i].Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// passShares reports, over the root spans named "pass", the share of
// their time spent outside any child span (the benchmark's own code)
// and the share covered by descendants whose name starts with prefix.
func (t *tracer) passShares(prefix string) (selfShare, prefixShare float64) {
	var wall, self, pref int64
	for _, root := range t.spans {
		if root.Parent != 0 || root.Name != "pass" {
			continue
		}
		var children, matching []span
		for _, s := range t.spans {
			if s.Parent == root.ID {
				children = append(children, s)
			}
			if s.Pass == root.Pass && s.ID != root.ID && strings.HasPrefix(s.Name, prefix) {
				matching = append(matching, s)
			}
		}
		wall += root.End - root.Start
		self += (root.End - root.Start) - covered(children, root.Start, root.End)
		pref += covered(matching, root.Start, root.End)
	}
	if wall == 0 {
		return 0, 0
	}
	return float64(self) / float64(wall), float64(pref) / float64(wall)
}
