package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Charged is time spent in many small serial calls inside this span
	// (one per vehicle) that are summed rather than kept as spans.
	Charged map[string]int64 `json:"charged_ns,omitempty"`
}

// tracer keeps spans in memory; write saves them once, at the end. Spans
// are opened and closed on one goroutine; charge and record may be called
// from others.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	mu    sync.Mutex
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Op: t.op, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return fn()
}

// charge books d of layer call name inside the innermost open span.
func (t *tracer) charge(name string, d time.Duration) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.top()]
	if s.Charged == nil {
		s.Charged = map[string]int64{}
	}
	s.Charged[name] += int64(d)
}

// record adds a finished span under parent, for calls timed on other
// goroutines (shard children, concurrent policy applies).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if !t.on || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// layerOf is the layer a span or charge name belongs to: its first
// dotted element.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, the self time of op's spans: each span's
// duration minus the part of it its child spans cover and its charged
// calls. Charged calls count as self time of their own layer.
func (t *tracer) selfTimes(op int) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Op == op && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		d := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		for name, c := range s.Charged {
			d -= c
			self[layerOf(name)] += time.Duration(c)
		}
		self[layerOf(s.Name)] += time.Duration(d)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span as one JSON line.
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
