package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Times are nanoseconds since the tracer's
// origin; parent is the index of the enclosing span, -1 at the root.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps a run's spans in memory; write dumps them at the end.
// A nil tracer records nothing, so untraced code paths share the
// traced ones at the cost of one nil check per call. Single goroutine.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

// spanCapacity pre-sizes the span buffer so recording inside a
// measured window does not allocate.
const spanCapacity = 1 << 19

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), spans: make([]span, 0, spanCapacity)}
}

// begin opens a span under parent (-1 for a root) and returns its
// index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: int32(parent), start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
}

// dur is span i's duration (0 on a nil tracer).
func (t *tracer) dur(i int) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.spans[i].end - t.spans[i].start)
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName sums self time and counts spans per name, sorted by
// descending self time.
func (t *tracer) selfByName() []nameTotal {
	self := t.selfTimes()
	idx := map[string]int{}
	var out []nameTotal
	for i, s := range t.spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, nameTotal{name: s.name})
		}
		out[j].spans++
		out[j].selfNS += self[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNS > out[j].selfNS })
	return out
}

type nameTotal struct {
	name   string
	spans  int
	selfNS int64
}

// spanRecord is the on-disk form of one span (JSON lines).
type spanRecord struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int32  `json:"parent"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"`
}

// write dumps every span as JSON lines into dir and returns the path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := t.selfTimes()
	for i, s := range t.spans {
		rec := spanRecord{ID: i, Name: s.name, Parent: s.parent, Workload: t.workload, StartNS: s.start, EndNS: s.end, SelfNS: self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
