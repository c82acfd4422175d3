package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a request's root). Count carries the call's work count where
// it has one (power iterations, sites solved).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, req int64, parent int, start, end time.Time, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Count: count,
	})
	return id
}

// reserve allocates a span ID for a parent whose children finish
// before it does; fill records it.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// fill records the reserved span id.
func (t *tracer) fill(id int, name string, req int64, parent int, start, end time.Time, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Count: count,
	}
}

// timed runs fn, which returns its work count, as a span.
func (t *tracer) timed(name string, req int64, parent int, fn func() int) {
	start := time.Now()
	count := fn()
	t.add(name, req, parent, start, time.Now(), count)
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// traceView indexes recorded spans for the per-layer reductions.
type traceView struct {
	byName   map[string][]span
	children map[int][]span
}

func (t *tracer) view() traceView {
	v := traceView{byName: map[string][]span{}, children: map[int][]span{}}
	for _, s := range t.spans {
		v.byName[s.Name] = append(v.byName[s.Name], s)
		if s.Parent != 0 {
			v.children[s.Parent] = append(v.children[s.Parent], s)
		}
	}
	return v
}

// durations returns the durations of every span called name, in unit.
func (v traceView) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[name] {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// counts returns the Count of every span called name.
func (v traceView) counts(name string) []float64 {
	var out []float64
	for _, s := range v.byName[name] {
		out = append(out, float64(s.Count))
	}
	return out
}

// selfTimes returns, for every root span called name, its duration
// minus the durations of its direct children: the time the root's layer
// spent on its own. The children are replays of the root's work, run
// after it returned, so durations subtract rather than intervals.
func (v traceView) selfTimes(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[name] {
		d := s.dur()
		for _, c := range v.children[s.ID] {
			d -= c.dur()
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// perRoot returns, for every root span called root, the summed duration
// of its direct children called child, in unit; roots without such a
// child read 0.
func (v traceView) perRoot(root, child string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[root] {
		var acc time.Duration
		for _, c := range v.children[s.ID] {
			if c.Name == child {
				acc += c.dur()
			}
		}
		out = append(out, float64(acc)/float64(unit))
	}
	return out
}

// slowestLeaf returns, for every root span called root, the longest
// span called leaf under its child called mid (0 when there is none),
// in unit.
func (v traceView) slowestLeaf(root, mid, leaf string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range v.byName[root] {
		var acc time.Duration
		for _, c := range v.children[s.ID] {
			if c.Name != mid {
				continue
			}
			for _, l := range v.children[c.ID] {
				if l.Name == leaf && l.dur() > acc {
					acc = l.dur()
				}
			}
		}
		out = append(out, float64(acc)/float64(unit))
	}
	return out
}

// perRootCount is perRoot over the children's Counts (summed).
func (v traceView) perRootCount(root, child string) []float64 {
	var out []float64
	for _, s := range v.byName[root] {
		n := 0
		for _, c := range v.children[s.ID] {
			if c.Name == child {
				n += c.Count
			}
		}
		out = append(out, float64(n))
	}
	return out
}

// medianOr0 is the median, or 0 for an empty sample (a layer the
// workload never entered).
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
