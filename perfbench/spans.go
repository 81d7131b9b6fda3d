package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call the benchmark made into a module: the host
// wall interval, the heap bytes allocated inside it, the enclosing
// span (-1 for a job's root) and the job it belongs to.
type span struct {
	Name       string `json:"name"`
	Job        int    `json:"job"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	childNs    int64
	alloc0     uint64
}

// selfNs is the span's duration minus the time its child spans cover.
func (s *span) selfNs() int64 { return s.EndNs - s.StartNs - s.childNs }

// spans records the benchmark's own calls into the program during a
// traced pass. A nil *spans records nothing, so untraced passes pay
// one nil check per call site.
//
// Spans nest through a stack. That is sound because the simulator
// runs one process goroutine at a time, and within a job only one
// simulated process opens spans.
type spans struct {
	epoch time.Time
	job   int
	all   []span
	open  []int
	alloc []metrics.Sample
}

func newSpans() *spans {
	return &spans{
		epoch: time.Now(),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *spans) heapAllocs() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span and returns its handle for end.
func (t *spans) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.all = append(t.all, span{
		Name: name, Job: t.job, Parent: parent,
		StartNs: int64(time.Since(t.epoch)), alloc0: t.heapAllocs(),
	})
	id := len(t.all) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans must close innermost
// first; a job that panics mid-span is unwound by endAll.
func (t *spans) end(id int) {
	if t == nil {
		return
	}
	s := &t.all[id]
	s.EndNs = int64(time.Since(t.epoch))
	s.AllocBytes = t.heapAllocs() - s.alloc0
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.all[s.Parent].childNs += s.EndNs - s.StartNs
	}
}

// endAll closes every span still open, innermost first.
func (t *spans) endAll() {
	for t != nil && len(t.open) > 0 {
		t.end(t.open[len(t.open)-1])
	}
}

// write stores every span as one JSON object per line.
func (t *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.all {
		if err := enc.Encode(&t.all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanStat sums the spans of one name: calls, jobs that made them,
// total and self wall time, and bytes allocated.
type spanStat struct {
	calls, jobs     int
	totalNs, selfNs int64
	allocBytes      uint64
}

func (t *spans) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	seen := map[string]int{}
	for i := range t.all {
		s := &t.all[i]
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
			seen[s.Name] = -1
		}
		st.calls++
		if seen[s.Name] != s.Job {
			st.jobs++
			seen[s.Name] = s.Job
		}
		st.totalNs += s.EndNs - s.StartNs
		st.selfNs += s.selfNs()
		st.allocBytes += s.AllocBytes
	}
	return out
}
