package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRecord is one benchmark-side span: a timed call into a layer's
// public API. Spans of one file (or one simulated upload) share Trace;
// Parent is 0 on the root span.
type spanRecord struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: every method is a no-op on it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes and records it.
type span struct {
	tr            *tracer
	trace, id, pa int64
	name          string
	start         time.Time
}

// begin opens a span named name under parent (nil opens a root span
// that starts a new trace).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{tr: t, id: id, name: name, trace: id, start: time.Now()}
	if parent != nil {
		s.trace, s.pa = parent.trace, parent.id
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		Trace: s.trace, ID: s.id, Parent: s.pa, Name: s.name,
		StartNS: s.start.Sub(t.t0).Nanoseconds(), EndNS: now.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// timed runs f inside a span named name under parent and returns how
// long f took, so the same measurement serves the metrics with tracing
// on or off.
func (t *tracer) timed(name string, parent *span, f func() error) (time.Duration, error) {
	sp := t.begin(name, parent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.end()
	return d, err
}

func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

func writeJSONL(path string, recs []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
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

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name         string
	Count        int
	Total, Self  time.Duration
	ShareOfRoots float64 // Self over the summed duration of root spans
}

// selfTimes derives per-name self time: a span's duration minus the
// part of its interval that its child spans cover (overlapping children
// are merged, and children are clipped to the parent).
func selfTimes(recs []spanRecord) []layerTime {
	children := make(map[int64][]spanRecord)
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	byName := make(map[string]*layerTime)
	var rootTotal int64
	for _, r := range recs {
		dur := r.EndNS - r.StartNS
		if r.Parent == 0 {
			rootTotal += dur
		}
		self := dur - covered(r.StartNS, r.EndNS, children[r.ID])
		lt := byName[r.Name]
		if lt == nil {
			lt = &layerTime{Name: r.Name}
			byName[r.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(self)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		if rootTotal > 0 {
			lt.ShareOfRoots = float64(lt.Self) / float64(rootTotal)
		}
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of [start, end) the union of kids covers.
func covered(start, end int64, kids []spanRecord) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, start), min(k.EndNS, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func printLayerTable(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %7.2f%%\n",
			lt.Name, lt.Count, ms(lt.Total), ms(lt.Self), 100*lt.ShareOfRoots)
	}
}
