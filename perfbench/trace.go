package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps, for the traced run, a span around every call the
// benchmark makes into a layer, in memory until the run ends. A nil
// *tracer records nothing, so untraced code pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one call into a layer. Parent is the id of the span that
// caused it, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layers is every layer a span may name, in report order.
var layers = []string{"inplace", "tensor", "core", "ooc", "storage", "tilestore", "client"}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// addChild records a finished child span of length d at the start of
// parent. It stands for many short calls whose summed time is known but
// which are too many to span one by one.
func (t *tracer) addChild(parent int, layer, name string, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name, Start: start, End: start + d.Nanoseconds()})
	t.mu.Unlock()
}

// selfTime is each layer's self time in ns: every span's duration minus
// the part of its interval that its children cover, summed per layer.
func (t *tracer) selfTime() map[string]int64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		if s.End >= 0 {
			self[s.Layer] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		}
	}
	return self
}

// covered is how much of [lo, hi) the union of the spans' intervals
// covers; children of one span may overlap when they run concurrently.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// record reports each layer's self time as a share of the traced wall
// time, from the first span's start to the last span's end. Shares of
// concurrent layers may sum past 1.
func (t *tracer) record(rep *report) {
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, s := range t.spans {
		if s.End >= 0 {
			lo, hi = min(lo, s.Start), max(hi, s.End)
		}
	}
	if hi <= lo {
		return
	}
	self := t.selfTime()
	for _, l := range layers {
		rep.set("self."+l+"_share", "ratio", float64(self[l])/float64(hi-lo))
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
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
