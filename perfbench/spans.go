package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: name is "<layer>.<operation>",
// times are nanoseconds since the recorder's epoch, and parent links the
// span that caused it (0: a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	lanes atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span from any goroutine.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// lane is a single goroutine's span stack: spans begun on it nest under
// the innermost open one, or under root when none is open. A lane
// buffers locally and hands its spans to the recorder on flush, so the
// hot loop takes no lock.
type lane struct {
	r    *recorder
	root int64
	id   int64 // lane number in the high half, sequence in the low
	buf  []span
	open []int
}

func (r *recorder) lane(root int64) *lane {
	return &lane{r: r, root: root, id: r.lanes.Add(1) << 32}
}

// begin opens a span and returns its ID.
func (l *lane) begin(name string) int64 {
	parent := l.root
	if n := len(l.open); n > 0 {
		parent = l.buf[l.open[n-1]].ID
	}
	l.id++
	l.buf = append(l.buf, span{ID: l.id, Parent: parent, Name: name, Start: l.r.now()})
	l.open = append(l.open, len(l.buf)-1)
	return l.id
}

// end closes the innermost open span.
func (l *lane) end() {
	n := len(l.open) - 1
	l.buf[l.open[n]].End = l.r.now()
	l.open = l.open[:n]
}

func (l *lane) flush() {
	l.r.mu.Lock()
	l.r.spans = append(l.r.spans, l.buf...)
	l.r.mu.Unlock()
	l.buf = l.buf[:0]
}

// nextID hands out an ID for a span recorded with add.
func (r *recorder) nextID() int64 { return r.lanes.Add(1) << 32 }

// usage aggregates the spans of one name.
type usage struct {
	count int
	total int64 // summed durations
	self  int64 // summed self times
}

// aggregate computes every span's self time — its duration minus the
// part of its interval covered by its children (the union, so children
// running in parallel on several goroutines are not double counted) —
// and sums durations and self times per span name.
func aggregate(spans []span) map[string]*usage {
	children := map[int64][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	out := map[string]*usage{}
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
			}
			reach = max(reach, v[1])
		}
		u := out[s.Name]
		if u == nil {
			u = &usage{}
			out[s.Name] = u
		}
		u.count++
		u.total += s.End - s.Start
		u.self += s.End - s.Start - covered
	}
	return out
}

// layerShares sums self time per layer (the span name's prefix) and
// returns each layer's share of the total.
func layerShares(use map[string]*usage) map[string]float64 {
	per := map[string]float64{}
	var all float64
	for name, u := range use {
		layer, _, _ := strings.Cut(name, ".")
		per[layer] += float64(u.self)
		all += float64(u.self)
	}
	for l := range per {
		per[l] /= all
	}
	return per
}

// rankShares lists layers by descending share, dominant first.
func rankShares(shares map[string]float64) string {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	slices.SortFunc(layers, func(a, b string) int { return cmp.Compare(shares[b], shares[a]) })
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s %.1f%%", l, 100*shares[l])
	}
	return strings.Join(parts, ", ")
}

// writeSpans appends a workload's spans to a JSON-lines file.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
