package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scaldift/internal/benchfp"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent names the span that caused this one.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory for the traced run and writes them when
// the run ends. A disabled tracer records nothing: begin returns 0 and
// end ignores it, so the untraced timings pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartUS: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// write stores the spans as one JSON file.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Host     benchfp.Host `json:"host"`
		Spans    []span       `json:"spans"`
	}{workload, seed, benchfp.Current(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
