package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a mining
// session, a stream step, the node-layer replay) share op; parent is the
// id of the enclosing span, 0 for an operation's root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing and costs two branch checks per span.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, op, name string) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// seconds returns a closed span's duration (0 when tracing is off).
func (t *tracer) seconds(id int) float64 {
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].seconds()
}

// durations returns the durations of the spans with the given name, in
// the order they were opened.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.seconds())
		}
	}
	return d
}

// overhead is what tracing added to each of a run's ops operations: the
// measured cost of recording one span times the spans per operation.
//
// It is measured directly because the alternative, the median traced
// operation minus the median untraced one, is noise at this scale: an
// operation records a handful of spans, each well under a microsecond,
// while sessions on a shared two-core host vary by tenths of a second
// (that difference read -0.49 s on cluster_sparse and -0.32 s on the
// simulator), and stream steps differ in their work.
func (t *tracer) overhead(ops int) float64 {
	return spanCost() * float64(t.count()) / float64(ops)
}

// spanCost is what recording one span costs, in seconds: the median
// over repeats of the time per begin/end pair on a scratch tracer.
func spanCost() float64 {
	const pairs = 10000
	var per []float64
	for r := 0; r < 9; r++ {
		t := newTracer(true)
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			t.end(t.begin(0, "cost", "span"))
		}
		per = append(per, time.Since(t0).Seconds()/pairs)
	}
	return median(per)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is a layer's share of the run in the self-time report.
type layerTime struct {
	Spans   int     `json:"spans"`
	Total   float64 `json:"total_s"`
	SelfSum float64 `json:"self_s"`
}

// report gives each span name's total and self time: a span's duration
// minus the part of its interval its children cover.
func (t *tracer) report() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Total += s.seconds()
		lt.SelfSum += s.seconds() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, lo, hi := 0.0, -1.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// write saves every span, with the run's provenance, as one JSON file.
func (t *tracer) write(path string, prov map[string]any) error {
	t.mu.Lock()
	b, err := json.MarshalIndent(map[string]any{"provenance": prov, "spans": t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
