// Package telemetry is the label-aware metric registry every slb engine
// feeds — lock-free counters, gauges and histograms with point-in-time
// snapshots and text/JSON export — and the repository's one latency
// instrument.
//
// Every Histogram counts into the same fixed log grid: 128 buckets per
// octave from 1 to 2⁴³ (1 ns to about 2.4 h in nanoseconds) plus an
// underflow and an overflow bucket. The bucket index comes in O(1) from
// a value's float bits (exponent plus the top seven mantissa bits), so
// a quantile read back from the grid is within 2⁻⁷ relative of the
// exact value; the exact count, minimum and maximum are kept alongside.
// An octave's 1 KB of counts is allocated on its first observation, so
// a histogram holds only the octaves it has seen (at most about 44 KB).
// No layout is chosen at registration, so any two histograms merge by
// adding buckets: an engine gives each role its own and pools them at
// the end of a run.
//
// Design constraints (pinned by benchmarks in this package and by the
// instrumented-routing benchmark at the repo root):
//
//   - Hot-path updates (Counter.Add, Gauge.Set, Histogram.Observe) are
//     atomic operations on pre-registered handles: no locks, no map
//     lookups, and 0 allocs/op in steady state. All registration cost
//     (label canonicalisation, map insertion) is paid once, up front,
//     when the handle is created.
//   - Handles are identified by name plus a sorted label set. Asking
//     the registry for the same (name, labels) pair returns the same
//     handle, so repeated engine runs accumulate into one series.
//   - Snapshot() is safe to call concurrently with writers. It reads
//     every series with atomic loads and returns an immutable copy, so
//     a background snapshotter (cmd/slbsoak) can watch a live run
//     without pausing it. Histograms are read bucket-by-bucket without
//     a global lock, so a snapshot taken mid-Observe may be torn by a
//     single in-flight observation — acceptable for monitoring, and
//     exact once writers quiesce. A snapshot lists only a histogram's
//     non-empty buckets.
//
// Metric kinds follow the usual monitoring conventions: counters are
// monotonically non-decreasing (Snapshot.Delta subtracts a previous
// snapshot to get per-interval rates), gauges are point-in-time values
// (optionally computed at snapshot time via GaugeFunc, e.g. a ring
// queue depth read from ring.SPSC.Len), and histograms count
// observations into the log grid.
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

// With returns base plus {key: idx} as a fresh slice: the per-spout,
// per-worker and per-shard label sets the engines register series under.
func With(base []Label, key string, idx int) []Label {
	ls := make([]Label, 0, len(base)+1)
	ls = append(ls, base...)
	return append(ls, L(key, strconv.Itoa(idx)))
}

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

// The histogram grid: every Histogram counts into the same fixed
// log-bucketed layout, so any two merge by adding buckets. Each octave
// [2ᵉ, 2ᵉ⁺¹) is split into 2^gridSubBits equal buckets, so a bucket's
// width is at most 2⁻⁷ of its lower edge — the relative error of any
// value read back from it. The octaves span 2⁰ … 2^gridOctaves, which
// in nanoseconds is 1 ns to about 2.4 h; one underflow bucket below
// (values < 1) and one overflow bucket above complete it.
const (
	gridSubBits = 7
	gridOctaves = 43
	gridBuckets = gridOctaves<<gridSubBits + 2
)

// bucketOf returns v's bucket in O(1) from its float bits: the
// exponent and the top gridSubBits mantissa bits are the index.
func bucketOf(v float64) int {
	if !(v >= 1) {
		return 0
	}
	if v >= 1<<gridOctaves {
		return gridBuckets - 1
	}
	return int(math.Float64bits(v)>>(52-gridSubBits)) - 1023<<gridSubBits + 1
}

// lowerEdge returns the smallest value bucket i holds (−Inf for the
// underflow bucket). Bucket i's upper edge is lowerEdge(i+1), +Inf for
// the overflow bucket.
func lowerEdge(i int) float64 {
	if i == 0 {
		return math.Inf(-1)
	}
	return math.Float64frombits(uint64(i-1+1023<<gridSubBits) << (52 - gridSubBits))
}

// upperEdge returns the bound above bucket i's values.
func upperEdge(i int) float64 {
	if i == gridBuckets-1 {
		return math.Inf(1)
	}
	return lowerEdge(i + 1)
}

// gridPage is one octave of buckets. A histogram allocates a page on
// the octave's first observation: a run's latencies span a few octaves,
// so a histogram holds a few KB of counts, not the whole grid.
type gridPage [1 << gridSubBits]atomic.Int64

// Histogram counts observations into the fixed log grid and keeps
// their exact minimum and maximum. Create one with NewHistogram or
// Registry.Histogram. Observe is safe for concurrent use; an engine
// role that owns one writes it without contention, and Merge pools
// roles by adding buckets.
type Histogram struct {
	under, over atomic.Int64
	pages       [gridOctaves]atomic.Pointer[gridPage]
	min, max    atomic.Uint64 // float64 bits
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// counter returns bucket i's count, allocating its page on first use.
func (h *Histogram) counter(i int) *atomic.Int64 {
	switch i {
	case 0:
		return &h.under
	case gridBuckets - 1:
		return &h.over
	}
	slot := &h.pages[(i-1)>>gridSubBits]
	p := slot.Load()
	if p == nil {
		slot.CompareAndSwap(nil, new(gridPage))
		p = slot.Load()
	}
	return &p[(i-1)&(1<<gridSubBits-1)]
}

// load returns bucket i's count without allocating.
func (h *Histogram) load(i int) int64 {
	switch i {
	case 0:
		return h.under.Load()
	case gridBuckets - 1:
		return h.over.Load()
	}
	if p := h.pages[(i-1)>>gridSubBits].Load(); p != nil {
		return p[(i-1)&(1<<gridSubBits-1)].Load()
	}
	return 0
}

// Observe records one value: a bucket increment, plus a CAS only when
// v is a new extreme. NaN and ±Inf are not measurements and are
// dropped, so the extremes stay finite (and JSON-encodable). 0 allocs
// once v's octave has been seen.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// The extremes go first, so a snapshot that sees the count also
	// sees them.
	storeMin(&h.min, v)
	storeMax(&h.max, v)
	h.counter(bucketOf(v)).Add(1)
}

// storeMin stores v in x while v is below x's value.
func storeMin(x *atomic.Uint64, v float64) {
	for old := x.Load(); v < math.Float64frombits(old); old = x.Load() {
		if x.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// storeMax stores v in x while v is above x's value.
func storeMax(x *atomic.Uint64, v float64) {
	for old := x.Load(); v > math.Float64frombits(old); old = x.Load() {
		if x.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Merge adds o's buckets and extremes into h. o is not modified.
func (h *Histogram) Merge(o *Histogram) {
	storeMin(&h.min, math.Float64frombits(o.min.Load()))
	storeMax(&h.max, math.Float64frombits(o.max.Load()))
	for i := 0; i < gridBuckets; i++ {
		if c := o.load(i); c != 0 {
			h.counter(i).Add(c)
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	var n int64
	for i := 0; i < gridBuckets; i++ {
		n += h.load(i)
	}
	return n
}

// Quantile returns the q-quantile of the observations (see
// Metric.Quantile), NaN when there are none.
func (h *Histogram) Quantile(q float64) float64 {
	var m Metric
	h.read(&m)
	return m.Quantile(q)
}

// read fills m's histogram fields: the non-empty buckets, their total
// and the extremes (0 when empty). Buckets are read before the
// extremes, which Observe writes first.
func (h *Histogram) read(m *Metric) {
	m.Count, m.Min, m.Max, m.Buckets = 0, 0, 0, nil
	for i := 0; i < gridBuckets; i++ {
		if c := h.load(i); c != 0 {
			m.Buckets = append(m.Buckets, Bucket{UpperBound: upperEdge(i), Count: c})
			m.Count += c
		}
	}
	if m.Count > 0 {
		m.Min = math.Float64frombits(h.min.Load())
		m.Max = math.Float64frombits(h.max.Load())
	}
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

// Histogram returns the histogram for (name, labels), creating it on
// first use. Every histogram has the same fixed log grid.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	s := r.lookup(name, labels, KindHistogram)
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram()
	}
	return s.hist
}

// Bucket is one non-empty grid bucket in a snapshot: the count of
// observations below UpperBound and at or above the bucket's lower
// edge (non-cumulative). UpperBound is +Inf for the overflow bucket.
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

	// Histogram-only fields: the observation count, the exact extremes
	// and the non-empty buckets in ascending order.
	Count   int64    `json:"count,omitempty"`
	Min     float64  `json:"min,omitempty"`
	Max     float64  `json:"max,omitempty"`
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

// Quantile returns the q-quantile (0 <= q <= 1) of a histogram
// metric: the bucket holding the nearest-rank observation, ⌈q·Count⌉,
// interpolated by rank inside that bucket and kept within [Min, Max].
// The result is within 2⁻⁷ relative of the exact nearest-rank value
// whenever that value lies on the grid; q = 0 and q = 1 return the
// exact extremes. Returns NaN for empty or non-histogram metrics.
func (m *Metric) Quantile(q float64) float64 {
	if m.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return m.Min
	}
	if q >= 1 {
		return m.Max
	}
	rank := math.Ceil(q * float64(m.Count))
	var below int64
	for _, b := range m.Buckets {
		if float64(below+b.Count) < rank {
			below += b.Count
			continue
		}
		lo := math.Max(bucketFloor(b.UpperBound), m.Min)
		hi := math.Min(b.UpperBound, m.Max)
		return lo + (hi-lo)*(rank-float64(below)-0.5)/float64(b.Count)
	}
	return m.Max
}

// bucketFloor returns the lower edge of the grid bucket whose upper
// edge is ub.
func bucketFloor(ub float64) float64 {
	if math.IsInf(ub, 1) {
		return lowerEdge(gridBuckets - 1)
	}
	return lowerEdge(bucketOf(ub) - 1)
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
			s.hist.read(&m)
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

// Delta returns s minus prev: counters and histogram counts and
// buckets are subtracted series-by-series (series absent from prev pass
// through unchanged), gauges and histogram extremes keep their current
// value. Use it to turn cumulative totals into per-interval rates.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevByID := make(map[string]*Metric, len(prev.Metrics))
	for i := range prev.Metrics {
		id, _ := seriesID(prev.Metrics[i].Name, prev.Metrics[i].Labels)
		prevByID[id] = &prev.Metrics[i]
	}
	out := Snapshot{Metrics: make([]Metric, len(s.Metrics))}
	for i := range s.Metrics {
		m := s.Metrics[i]
		var pb []Bucket
		id, _ := seriesID(m.Name, m.Labels)
		if p, ok := prevByID[id]; ok && m.Kind != KindGauge.String() {
			m.Value -= p.Value
			m.Count -= p.Count
			pb = p.Buckets
		}
		if len(m.Buckets) > 0 {
			// Match prev's buckets by upper bound (both ascending) and
			// keep the non-empty differences, in a fresh slice.
			bs := make([]Bucket, 0, len(m.Buckets))
			j := 0
			for _, b := range m.Buckets {
				for j < len(pb) && pb[j].UpperBound < b.UpperBound {
					j++
				}
				if j < len(pb) && pb[j].UpperBound == b.UpperBound {
					b.Count -= pb[j].Count
				}
				if b.Count != 0 {
					bs = append(bs, b)
				}
			}
			m.Buckets = bs
		}
		out.Metrics[i] = m
	}
	return out
}

// WriteText renders the snapshot in a prometheus-flavoured text form:
// one "name{k=v,...} value" line per series, histograms expanded into
// _bucket lines with cumulative le buckets (non-empty buckets only) and
// a _count line.
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
		cntID, _ := seriesID(m.Name+"_count", m.Labels)
		if _, err := fmt.Fprintf(w, "%s %d\n", cntID, m.Count); err != nil {
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
