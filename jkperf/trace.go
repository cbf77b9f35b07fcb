package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer of the program; the program itself is not instrumented. A span
// covering a batch of n identical calls carries n, so per-call self time
// is self/n.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory, up to a fixed cap, until the run ends.
// A nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	base    time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int64
}

func newTracer(limit int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, limit), limit: limit}
}

// now is the tracer clock: nanoseconds since the tracer was created, on
// the process's monotonic clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores one finished span. id 0 allocates a fresh one.
func (t *tracer) record(s span) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	if s.N == 0 {
		s.N = 1
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s.ID
}

// layerTime aggregates the self time of every span of one name.
type layerTime struct {
	self  int64 // ns
	n     int64 // calls covered
	spans int64
}

func (l layerTime) perCall() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.self) / float64(l.n)
}

// selfTimes computes each span's self time — its duration minus the part
// of it its children cover — and sums them by span name.
func (t *tracer) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range spans {
		var iv [][2]int64
		for _, ci := range children[s.ID] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		for i, x := range iv {
			if i == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		l := out[s.Name]
		l.self += s.End - s.Start - covered
		l.n += s.N
		l.spans++
		out[s.Name] = l
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	// Spans recorded without a request id take their parent's.
	reqOf := make(map[uint64]uint64, len(t.spans))
	for _, s := range t.spans {
		reqOf[s.ID] = s.Req
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Req == 0 {
			s.Req = reqOf[s.Parent]
		}
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
