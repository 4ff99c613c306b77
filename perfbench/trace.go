package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"varsim/internal/stats"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans are recorded only by the benchmark's own code, around
// the calls it makes; nothing inside the program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Study  int    `json:"study"`  // the iteration that made the span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's creation
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	study int
	spans []span
	// stack holds the open spans of the driving goroutine; concurrent
	// callers (fleet workers) record leaves under an explicit parent.
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span and returns
// the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Study: t.study, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].End = t.now()
		t.stack = t.stack[:len(t.stack)-1]
		t.mu.Unlock()
	}
}

// current returns the innermost open span, the parent a concurrent
// leaf should name.
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// leaf records a span that ends now under an explicit parent; safe to
// call from any goroutine.
func (t *tracer) leaf(name string, parent int, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, parent, start, time.Now())
}

// record adds a span timed by the caller, under the innermost open
// span, so that a timing window holds only the call it measures.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(name, t.current(), start, end)
}

func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Study: t.study,
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// setStudy tags the spans that follow with the iteration index.
func (t *tracer) setStudy(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.study = i
	t.mu.Unlock()
}

// seconds returns the duration of every span called name, in seconds.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// perStudy returns, for every study that recorded a span called
// name, the summed duration of those spans in seconds.
func (t *tracer) perStudy(name string) []float64 {
	sum := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sum[s.Study]; !ok {
			order = append(order, s.Study)
		}
		sum[s.Study] += s.seconds()
	}
	out := make([]float64, len(order))
	for i, st := range order {
		out[i] = sum[st]
	}
	return out
}

// selfSeconds returns each span's duration minus the part of it that
// its children cover, counting only the children that layer keeps.
// Children may overlap (fleet workers run concurrently), so the
// covered part is the union of their intervals.
func (t *tracer) selfSeconds(layer func(name string) bool) map[int]float64 {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && layer(s.Name) {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = float64(s.End-s.Start-covered(kids[s.ID], s.Start, s.End)) / 1e9
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
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

// unattributed returns the share of root spans called root that no
// layer span covers. The benchmark's own bench.* spans (input
// generation, answer hashing, output checks) are not layer calls, so
// the time they cover counts as unattributed.
func (t *tracer) unattributed(root string) float64 {
	self := t.selfSeconds(func(name string) bool { return !strings.HasPrefix(name, "bench.") })
	var free, total float64
	for _, s := range t.spans {
		if s.Name == root && s.Parent == 0 {
			free += self[s.ID]
			total += s.seconds()
		}
	}
	if total == 0 {
		return 0
	}
	return free / total
}

// layerSelf sums self time by span name, for the trace summary.
func (t *tracer) layerSelf() (names []string, self, total map[string]float64, count map[string]int) {
	byID := t.selfSeconds(func(string) bool { return true })
	self, total, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		if _, ok := count[s.Name]; !ok {
			names = append(names, s.Name)
		}
		count[s.Name]++
		self[s.Name] += byID[s.ID]
		total[s.Name] += s.seconds()
	}
	sort.Strings(names)
	return names, self, total, count
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// quantile is a percentile over samples that states what it could
// support: the requested percentile when at least ten samples lie
// beyond it, otherwise the highest percentile that still leaves ten
// and never below the median; the sample count is reported with it.
type quantile struct {
	Value float64
	Pct   float64 // the percentile actually reported
	N     int
}

func percentile(xs []float64, want float64) quantile {
	q := quantile{N: len(xs), Pct: want}
	if n := float64(len(xs)); n > 0 && n*(1-want/100) < 10 {
		q.Pct = max(50, math.Floor(100*(1-10/n)))
	}
	q.Value = stats.Percentile(xs, q.Pct)
	return q
}

func median(xs []float64) float64 { return percentile(xs, 50).Value }
