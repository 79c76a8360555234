package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span: a layer call timed from the benchmark's own
// code. Op groups the spans of one workload operation (one seed, one
// request); Parent is the span that caused this one (0 = none).
type spanRec struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory for the length of a run. A nil *recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is an open span; End records it.
type span struct {
	r *recorder
	spanRec
}

// Start opens a span. On a nil recorder it returns a span whose End is a no-op.
func (r *recorder) Start(name string, parent, op int64) span {
	if r == nil {
		return span{}
	}
	return span{r: r, spanRec: spanRec{
		ID: r.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: time.Since(r.epoch),
	}}
}

// End closes the span and returns its duration (0 on a nil recorder).
func (s span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	s.spanRec.End = time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.spanRec)
	s.r.mu.Unlock()
	return s.spanRec.End - s.spanRec.Start
}

// Time runs fn inside a span and returns the span's duration.
func (r *recorder) Time(name string, parent, op int64, fn func(id int64)) time.Duration {
	if r == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	sp := r.Start(name, parent, op)
	fn(sp.ID)
	return sp.End()
}

// Total sums the durations of every span with the given name.
func (r *recorder) Total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// Len reports how many spans were recorded.
func (r *recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes every span as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto). Each operation gets its own thread row, so
// concurrent requests do not overlap on one lane.
func (r *recorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Op,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
