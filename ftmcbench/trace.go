package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the id of the span that caused it (-1 for a root);
// Req identifies the request or drawn set the span worked on.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// phase is one traced stretch of the run; coverage is measured over the
// phases.
type phase struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps every span in memory; finishTrace saves them as one file at
// the end of the run. Safe for concurrent use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	phases []phase
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

// add records a span whose times the caller took itself.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int32, req int64, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// phaseBegin opens a traced phase; the returned func closes it.
func (t *tracer) phaseBegin(name string) func() {
	start := t.now()
	return func() {
		t.mu.Lock()
		t.phases = append(t.phases, phase{Name: name, Start: start, End: t.now()})
		t.mu.Unlock()
	}
}

// coverage is the share of the traced phases' wall time covered by at
// least one root span.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, covered int64
	for _, ph := range t.phases {
		wall += ph.End - ph.Start
		var iv [][2]int64
		for _, s := range t.spans {
			if s.Parent >= 0 || s.End < 0 {
				continue
			}
			lo, hi := max(s.Start, ph.Start), min(s.End, ph.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var curLo, curHi int64 = -1, -1
		for _, x := range iv {
			if x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
	}
	if wall == 0 {
		return 0
	}
	return float64(covered) / float64(wall)
}

// layerStat is the self-time account of one span name.
type layerStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the count, total and self time (the
// span's duration minus its children's).
func (t *tracer) selfTimes() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerStat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(max(d-child[i], 0)) / 1e6
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// finishTrace prints the self-time summary and writes the spans file.
func (r *run) finishTrace() {
	stats := r.tr.selfTimes()
	fmt.Fprintf(r.log, "  self time per layer (traced phases):\n")
	for _, st := range stats {
		fmt.Fprintf(r.log, "    %-24s n=%-7d total=%10.3fms self=%10.3fms\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	r.tr.mu.Lock()
	doc := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		Provenance provenance  `json:"provenance"`
		Phases     []phase     `json:"phases"`
		Layers     []layerStat `json:"layers"`
		Spans      []span      `json:"spans"`
	}{r.workload, r.seed, r.prov, r.tr.phases, stats, r.tr.spans}
	path := filepath.Join(r.out, "trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	err := writeJSONFile(path, doc)
	r.tr.mu.Unlock()
	if err != nil {
		fmt.Fprintln(r.log, "ftmcbench: writing spans:", err)
		return
	}
	fmt.Fprintf(r.log, "  spans: %s\n", path)
}
