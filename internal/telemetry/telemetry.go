// Package telemetry is the label-aware metric registry every slb engine
// feeds: lock-free counters, gauges, and fixed-bucket histograms with
// point-in-time snapshots and text/JSON export.
//
// Design constraints (pinned by benchmarks in this package and by the
// instrumented-routing benchmark at the repo root):
//
//   - Hot-path updates (Counter.Add, Gauge.Set, Histogram.Observe) are
//     single atomic operations on pre-registered handles: no locks, no
//     map lookups, and 0 allocs/op in steady state. All registration
//     cost (label canonicalisation, map insertion) is paid once, up
//     front, when the handle is created.
//   - Handles are identified by name plus a sorted label set. Asking
//     the registry for the same (name, labels) pair returns the same
//     handle, so repeated engine runs accumulate into one series.
//   - Snapshot() is safe to call concurrently with writers. It reads
//     every series with atomic loads and returns an immutable copy, so
//     a background snapshotter (cmd/slbsoak) can watch a live run
//     without pausing it. Histograms are read bucket-by-bucket without
//     a global lock, so a snapshot taken mid-Observe may be torn by a
//     single in-flight observation — acceptable for monitoring, and
//     exact once writers quiesce.
//
// Metric kinds follow the usual monitoring conventions: counters are
// monotonically non-decreasing (Snapshot.Delta subtracts a previous
// snapshot to get per-interval rates), gauges are point-in-time values
// (optionally computed at snapshot time via GaugeFunc, e.g. a ring
// queue depth read from ring.SPSC.Len), and histograms count
// observations into a fixed bucket layout chosen at registration.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric types in a Snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically non-decreasing integer series. The zero
// value is usable, but handles should come from Registry.Counter so
// they appear in snapshots.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are not checked — callers own
// monotonicity.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float64 value stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed, sorted bucket layout.
// Bucket i counts observations v <= bounds[i]; one implicit overflow
// bucket counts the rest. Sum is accumulated via CAS so Mean can be
// recovered from a snapshot.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last = overflow (+Inf)
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one observation. Linear scan over the (small, fixed)
// bucket layout plus two atomic ops: 0 allocs.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("telemetry: LinearBuckets needs n > 0 and width > 0")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("telemetry: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

type series struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // gauge collector; called at snapshot time
}

// Registry holds named metric series. All methods are safe for
// concurrent use; handle creation takes a lock, handle updates do not.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*series
	ord  []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*series)}
}

// seriesID canonicalises (name, labels): labels sorted by key, rendered
// prometheus-style. Duplicate label keys are a programmer error.
func seriesID(name string, labels []Label) (string, []Label) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if len(labels) == 0 {
		return name, nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			if ls[i-1].Key == l.Key {
				panic("telemetry: duplicate label key " + l.Key + " on " + name)
			}
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// lookup returns the series for (name, labels), creating it on first
// use, with r.mu locked — which it leaves locked: the caller fills in
// the series' value holder and unlocks, so a concurrent Snapshot never
// meets a series without one.
func (r *Registry) lookup(name string, labels []Label, kind Kind) *series {
	id, ls := seriesID(name, labels)
	r.mu.Lock()
	if s, ok := r.byID[id]; ok {
		if s.kind != kind {
			r.mu.Unlock()
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", id, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labels: ls, kind: kind}
	r.byID[id] = s
	r.ord = append(r.ord, s)
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. The same arguments always return the same handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(name, labels, KindCounter)
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(name, labels, KindGauge)
	defer r.mu.Unlock()
	if s.fn != nil {
		panic("telemetry: " + name + " already registered as GaugeFunc")
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers fn as a collector evaluated at snapshot time —
// the pull-side alternative to Gauge for values that already live in a
// concurrency-safe structure (e.g. ring.SPSC.Len, channel backlogs).
// Re-registering the same series replaces the function, so engines can
// re-bind collectors to fresh run state on every run.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic("telemetry: nil GaugeFunc for " + name)
	}
	s := r.lookup(name, labels, KindGauge)
	defer r.mu.Unlock()
	if s.gauge != nil {
		panic("telemetry: " + name + " already registered as Gauge")
	}
	s.fn = fn
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (sorted ascending; an overflow bucket is added
// implicitly). Bounds must match the first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram " + name + " bounds not strictly ascending")
		}
	}
	s := r.lookup(name, labels, KindHistogram)
	defer r.mu.Unlock()
	if s.hist == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		s.hist = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	} else if len(s.hist.bounds) != len(bounds) {
		panic("telemetry: histogram " + name + " re-registered with different bucket layout")
	}
	return s.hist
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations v <= UpperBound (non-cumulative, per bucket).
// UpperBound is +Inf for the overflow bucket.
type Bucket struct {
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// bucketJSON carries the upper bound as a string so the +Inf overflow
// bucket survives JSON encoding (encoding/json rejects infinities).
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// MarshalJSON encodes the bound as a string ("+Inf" for overflow).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = trimFloat(b.UpperBound)
	}
	return json.Marshal(bucketJSON{UpperBound: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var bj bucketJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	if bj.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(bj.UpperBound, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = bj.Count
	return nil
}

// Metric is one series captured by Snapshot.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`

	// Value holds counter totals (as float64) and gauge values.
	Value float64 `json:"value"`

	// Histogram-only fields.
	Sum     float64  `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Label returns the value of the label with the given key ("" if
// absent).
func (m *Metric) Label(key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile (0 <= q <= 1) of a histogram
// metric by linear interpolation inside the owning bucket, mirroring
// the usual monitoring-system estimator. The first bucket interpolates
// from 0; the overflow bucket reports its lower bound (the largest
// finite upper bound). Returns NaN for empty or non-histogram metrics.
func (m *Metric) Quantile(q float64) float64 {
	if len(m.Buckets) == 0 || m.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(m.Count)
	var cum int64
	for i, b := range m.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) < target {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = m.Buckets[i-1].UpperBound
		}
		hi := b.UpperBound
		if math.IsInf(hi, 1) {
			// Overflow bucket: no finite upper edge to
			// interpolate toward.
			return lo
		}
		if b.Count == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-float64(prev))/float64(b.Count)
	}
	last := m.Buckets[len(m.Buckets)-1]
	if math.IsInf(last.UpperBound, 1) && len(m.Buckets) > 1 {
		return m.Buckets[len(m.Buckets)-2].UpperBound
	}
	return last.UpperBound
}

// Snapshot is an immutable point-in-time capture of a registry.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered series. Safe to call concurrently
// with hot-path writers; GaugeFunc collectors run on the snapshotting
// goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ord := make([]*series, len(r.ord))
	copy(ord, r.ord)
	r.mu.Unlock()

	snap := Snapshot{Metrics: make([]Metric, 0, len(ord))}
	for _, s := range ord {
		m := Metric{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case KindCounter:
			m.Value = float64(s.counter.Value())
		case KindGauge:
			if s.fn != nil {
				m.Value = s.fn()
			} else {
				m.Value = s.gauge.Value()
			}
		case KindHistogram:
			h := s.hist
			m.Sum = h.Sum()
			m.Count = h.Count()
			m.Buckets = make([]Bucket, len(h.counts))
			for i := range h.counts {
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				m.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Get returns the metric with the given name and labels (order
// independent), or false.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	id, _ := seriesID(name, labels)
	for i := range s.Metrics {
		mid, _ := seriesID(s.Metrics[i].Name, s.Metrics[i].Labels)
		if mid == id {
			return s.Metrics[i], true
		}
	}
	return Metric{}, false
}

// Value returns the value of the named counter/gauge series (0 if
// absent).
func (s Snapshot) Value(name string, labels ...Label) float64 {
	m, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return m.Value
}

// Delta returns s minus prev: counters and histogram counts/sums are
// subtracted series-by-series (series absent from prev pass through
// unchanged), gauges keep their current value. Use it to turn
// cumulative totals into per-interval rates.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevByID := make(map[string]*Metric, len(prev.Metrics))
	for i := range prev.Metrics {
		id, _ := seriesID(prev.Metrics[i].Name, prev.Metrics[i].Labels)
		prevByID[id] = &prev.Metrics[i]
	}
	out := Snapshot{Metrics: make([]Metric, len(s.Metrics))}
	for i := range s.Metrics {
		m := s.Metrics[i]
		if len(m.Buckets) > 0 {
			bs := make([]Bucket, len(m.Buckets))
			copy(bs, m.Buckets)
			m.Buckets = bs
		}
		id, _ := seriesID(m.Name, m.Labels)
		if p, ok := prevByID[id]; ok && m.Kind != KindGauge.String() {
			m.Value -= p.Value
			m.Sum -= p.Sum
			m.Count -= p.Count
			for j := range m.Buckets {
				if j < len(p.Buckets) {
					m.Buckets[j].Count -= p.Buckets[j].Count
				}
			}
		}
		out.Metrics[i] = m
	}
	return out
}

// WriteText renders the snapshot in a prometheus-flavoured text form:
// one "name{k=v,...} value" line per series, histograms expanded into
// _bucket/_sum/_count lines with cumulative le buckets.
func (s Snapshot) WriteText(w io.Writer) error {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		base, _ := seriesID(m.Name, m.Labels)
		if m.Kind != KindHistogram.String() {
			if _, err := fmt.Fprintf(w, "%s %v\n", base, trimFloat(m.Value)); err != nil {
				return err
			}
			continue
		}
		var cum int64
		for _, b := range m.Buckets {
			cum += b.Count
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = trimFloat(b.UpperBound)
			}
			id, _ := seriesID(m.Name+"_bucket", append(append([]Label{}, m.Labels...), L("le", le)))
			if _, err := fmt.Fprintf(w, "%s %d\n", id, cum); err != nil {
				return err
			}
		}
		sumID, _ := seriesID(m.Name+"_sum", m.Labels)
		cntID, _ := seriesID(m.Name+"_count", m.Labels)
		if _, err := fmt.Fprintf(w, "%s %v\n%s %d\n", sumID, trimFloat(m.Sum), cntID, m.Count); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
