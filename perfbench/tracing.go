package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Spans are recorded only in the benchmark's own code, around its calls
// into the program's public functions: the client side of every request,
// the server's ServeHTTP (through the handler wrapper below), and every
// direct layer call of the replay. They stay in memory and are written out
// when the run ends.

// spanHeader carries the client span id to the handler wrapper, which
// records the server span as its child.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval. Op ties the spans of one operation together;
// Parent is the id of the span that caused it, or -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Status is the HTTP status of a handler span.
	Status int `json:"status,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil tracer records nothing, so untraced runs
// call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; end closes it.
func (t *tracer) begin(op, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Parent: parent, Op: op, Name: name}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = t.next
	t.next++
	t.spans = append(t.spans, s)
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *span) { t.endStatus(s, 0) }

// endStatus closes a span and records the HTTP status it ended with. A
// handler span ends on the server's goroutine, possibly after its client
// has moved on, so every span field is written under the lock.
func (t *tracer) endStatus(s *span, status int) {
	if s == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End, s.Status = end, status
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent int64, name string, fn func()) *span {
	s := t.begin(op, parent, name)
	fn()
	t.end(s)
	return s
}

// statusWriter captures the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap records an "http.handler" span around every ServeHTTP call, as the
// child of the client span named in spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int64(-1)
		op := int64(-1)
		if v := r.Header.Get(spanHeader); v != "" {
			if id, err := strconv.ParseInt(v, 10, 64); err == nil {
				parent = id
				op = t.opOf(id)
			}
		}
		s := t.begin(op, parent, "http.handler")
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		t.endStatus(s, sw.status)
	})
}

// opOf returns the op of span id.
func (t *tracer) opOf(id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= 0 && id < int64(len(t.spans)) {
		return t.spans[id].Op
	}
	return -1
}

// snapshot returns copies of the recorded spans.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*span, len(t.spans))
	for i, s := range t.spans {
		c := *s
		out[i] = &c
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its children
// cover, by span id.
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
