package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
)

// span is one recorded interval. Times are microseconds since the
// recorder's epoch. Op groups the spans of one benchmark operation (one
// partition call, one HTTP request); Parent is 0 for a root.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Track  string           `json:"track"`
	Start  float64          `json:"start_us"`
	End    float64          `json:"end_us"`
	Args   map[string]int64 `json:"args,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// recorder keeps the benchmark's spans in memory. A nil recorder records
// nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3
}

// newOp returns a fresh operation id.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add stores a completed span and returns its id.
func (r *recorder) add(op, parent int64, name, track string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Track: track,
		Start: r.since(start), End: r.since(end)})
	return id
}

// chromeEvent is one event of the program tracer's WriteJSON output.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"` // numbers on X events, a string on metadata
}

// arg returns a numeric argument of the event.
func (e *chromeEvent) arg(key string) (int64, bool) {
	v, ok := e.Args[key].(float64)
	return int64(v), ok
}

// parseChrome decodes a Chrome trace-event document into its complete
// ("X") events.
func parseChrome(data []byte) ([]chromeEvent, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decode program trace: %w", err)
	}
	evs := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			evs = append(evs, e)
		}
	}
	return evs, nil
}

// tracerJSON serializes a program tracer.
func tracerJSON(t *parhip.Tracer) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("write program trace: %w", err)
	}
	return buf.Bytes(), nil
}

// merge adds the program's spans under the benchmark span parent. The
// program's tracer started its clock at tracerEpoch; on each of its tracks
// (one per rank) spans nest by time, so each gets the innermost enclosing
// span of its track as parent, and the outermost ones get parent.
func (r *recorder) merge(op, parent int64, trackPrefix string, tracerEpoch time.Time, evs []chromeEvent) {
	if r == nil {
		return
	}
	offset := r.since(tracerEpoch)
	sorted := append([]chromeEvent(nil), evs...)
	// Outer spans first: earlier start, then longer duration.
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Dur > b.Dur
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	var stack []int // indices into r.spans of open enclosing spans
	track := -1
	for _, e := range sorted {
		if e.Tid != track {
			track, stack = e.Tid, stack[:0]
		}
		s := span{Op: op, Name: e.Name, Track: fmt.Sprintf("%s%d", trackPrefix, e.Tid),
			Start: offset + e.Ts, End: offset + e.Ts + e.Dur}
		for k := range e.Args {
			if v, ok := e.arg(k); ok {
				if s.Args == nil {
					s.Args = map[string]int64{}
				}
				s.Args[k] = v
			}
		}
		// The tracer prints microseconds with three decimals, so a child
		// may end a rounding step after its parent.
		for len(stack) > 0 && r.spans[stack[len(stack)-1]].End < s.End-0.002 {
			stack = stack[:len(stack)-1]
		}
		s.Parent = parent
		if len(stack) > 0 {
			s.Parent = r.spans[stack[len(stack)-1]].ID
		}
		s.ID = int64(len(r.spans) + 1)
		r.spans = append(r.spans, s)
		stack = append(stack, len(r.spans)-1)
	}
}

// nameStat is the total and self time of all spans of one name.
type nameStat struct {
	name        string
	count       int
	total, self float64 // microseconds
}

// summary aggregates total and self time per span name. A span's self
// time is its duration minus the part of it its children cover.
func (r *recorder) summary() []nameStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][][2]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := map[string]*nameStat{}
	for i := range r.spans {
		s := &r.spans[i]
		st := byName[s.Name]
		if st == nil {
			st = &nameStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]nameStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of [start,end] the union of ivs covers.
func covered(start, end float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]float64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var sum float64
	cur := start
	for _, iv := range s {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

func (r *recorder) printSummary(w io.Writer) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range r.summary() {
		fmt.Fprintf(w, "  %-28s %8d %12.4f %12.4f\n", st.name, st.count, st.total/1e6, st.self/1e6)
	}
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
