package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, start and end (ns
// since the tracer started), the span that caused it, and the op it
// belongs to. Spans of one op share the op id.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root span
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends.
// A disabled tracer records nothing and costs one branch per call. It
// is used from one goroutine at a time: the library workloads run one
// client, and the traced fleet run drives one request at a time.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// layerTimes sums, per span name, the total duration and the self
// time: a span's duration minus the part its child spans cover
// (children of one span never overlap here — every workload calls the
// layers of one op in sequence).
func (t *tracer) layerTimes() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	childCover := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childCover[s.Parent] += s.dur()
		}
	}
	for i, s := range t.spans {
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - childCover[i]
	}
	return total, self
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
