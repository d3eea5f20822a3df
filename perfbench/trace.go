package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request (or run) share Trace;
// Parent is the enclosing span's ID (0 for a root).
type Span struct {
	Trace  uint64    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pass nil.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	ids   atomic.Uint64
}

// NewID allocates a span (or trace) identifier; 0 on a nil tracer.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span and returns its ID.
func (t *Tracer) Record(trace, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.NewID()
	t.RecordID(Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// RecordID stores a finished span whose ID the caller allocated
// beforehand (so child spans could name it as their parent).
func (t *Tracer) RecordID(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len reports the recorded span count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteFile writes every span as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
