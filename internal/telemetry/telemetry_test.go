package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", L("algo", "D-C"))
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same (name, labels) in any order returns the same handle.
	c2 := r.Counter("msgs_total", L("algo", "D-C"))
	if c2 != c {
		t.Fatal("re-registration returned a different counter handle")
	}
	g := r.Gauge("depth", L("plane", "ring"), L("edge", "data"))
	g.Set(7)
	g.Add(0.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	g2 := r.Gauge("depth", L("edge", "data"), L("plane", "ring"))
	if g2 != g {
		t.Fatal("label order changed handle identity")
	}

	snap := r.Snapshot()
	if v := snap.Value("msgs_total", L("algo", "D-C")); v != 42 {
		t.Fatalf("snapshot counter = %v, want 42", v)
	}
	if v := snap.Value("depth", L("plane", "ring"), L("edge", "data")); v != 7.5 {
		t.Fatalf("snapshot gauge = %v, want 7.5", v)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Fatal("Get on missing series returned ok")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestGaugeFuncReplaceAndCollect(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("live", func() float64 { return v })
	if got := r.Snapshot().Value("live"); got != 3 {
		t.Fatalf("gauge func = %v, want 3", got)
	}
	// Re-binding to fresh run state replaces the collector.
	r.GaugeFunc("live", func() float64 { return 9 })
	if got := r.Snapshot().Value("live"); got != 9 {
		t.Fatalf("replaced gauge func = %v, want 9", got)
	}
}

func TestHistogramBucketsAndDelta(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	before := r.Snapshot()
	m, ok := before.Get("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Only the non-empty buckets, each bounded by its upper grid edge:
	// 0.5 underflows, the rest open a 2⁻⁷-wide bucket of their octave.
	want := []Bucket{{1, 1}, {1.0078125, 1}, {1.5078125, 1}, {3.015625, 1}, {100.5, 1}}
	if !reflect.DeepEqual(m.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", m.Buckets, want)
	}
	if m.Count != 5 || m.Min != 0.5 || m.Max != 100 {
		t.Fatalf("count/min/max = %d/%v/%v, want 5/0.5/100", m.Count, m.Min, m.Max)
	}

	h.Observe(1)
	h.Observe(8)
	d := r.Snapshot().Delta(before)
	dm, _ := d.Get("lat")
	if dm.Count != 2 {
		t.Fatalf("delta count = %d, want 2", dm.Count)
	}
	if want := []Bucket{{1.0078125, 1}, {8.0625, 1}}; !reflect.DeepEqual(dm.Buckets, want) {
		t.Fatalf("delta buckets = %v, want %v", dm.Buckets, want)
	}
	// The extremes cannot be subtracted: a delta keeps the current ones.
	if dm.Min != 0.5 || dm.Max != 100 {
		t.Fatalf("delta min/max = %v/%v, want 0.5/100", dm.Min, dm.Max)
	}
}

func TestDeltaCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("depth")
	c.Add(10)
	g.Set(5)
	prev := r.Snapshot()
	c.Add(7)
	g.Set(3)
	d := r.Snapshot().Delta(prev)
	if v := d.Value("n"); v != 7 {
		t.Fatalf("counter delta = %v, want 7", v)
	}
	// Gauges pass through as current values, not differences.
	if v := d.Value("depth"); v != 3 {
		t.Fatalf("gauge in delta = %v, want 3", v)
	}
}

// TestConcurrentHammer drives N goroutines into shared counters,
// gauges, and histograms while a snapshotter reads concurrently, then
// asserts exact totals once writers quiesce. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.Histogram("vals")
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Background snapshotter: every snapshot must be internally
	// sane (monotone counter, bucket counts summing to Count).
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var lastHits float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if v := s.Value("hits"); v < lastHits {
				snapErr = &nonMonotoneErr{prev: lastHits, cur: v}
				return
			} else {
				lastHits = v
			}
		}
	}()

	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := r.Gauge("per_goroutine_last") // shared handle on purpose
			rng := rand.New(rand.NewSource(int64(id)))
			for j := 0; j < perG; j++ {
				c.Inc()
				v := rng.Float64() * 100
				h.Observe(v)
				g.Set(v)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatalf("snapshot consistency: %v", snapErr)
	}

	s := r.Snapshot()
	if v := s.Value("hits"); v != goroutines*perG {
		t.Fatalf("hits = %v, want %d", v, goroutines*perG)
	}
	m, _ := s.Get("vals")
	if m.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", m.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, b := range m.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != m.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, m.Count)
	}
	if m.Min < 0 || m.Max >= 100 || m.Min > m.Max {
		t.Fatalf("extremes [%v, %v] outside the observed [0, 100)", m.Min, m.Max)
	}
}

type nonMonotoneErr struct{ prev, cur float64 }

func (e *nonMonotoneErr) Error() string { return "counter went backwards" }

// nearestRank returns the exact nearest-rank q-quantile of sorted
// samples: the ⌈q·n⌉-th smallest, the first for q = 0.
func nearestRank(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// checkWithinGridError feeds 20k seeded samples from gen into a
// histogram and checks every percentile in {0, .5, .95, .99, 1} against
// the exact nearest-rank quantile of the sorted samples: within 2⁻⁷
// relative, with the exact count.
func checkWithinGridError(t *testing.T, seed int64, gen func(r *rand.Rand) float64) {
	t.Helper()
	const relErr = 1.0 / 128
	rng := rand.New(rand.NewSource(seed))
	h := NewHistogram()
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = gen(rng)
		h.Observe(samples[i])
	}
	sort.Float64s(samples)
	if n := h.Count(); n != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", n, len(samples))
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		got, want := h.Quantile(q), nearestRank(samples, q)
		if math.Abs(got-want) > relErr*math.Abs(want) {
			t.Errorf("q%v = %v, exact %v: relative error %.3g > 2⁻⁷",
				q, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}
}

type quantileCase struct {
	name string
	gen  func(r *rand.Rand) float64
}

// TestHistogramQuantilesVsReservoir checks the grid on the latency
// shapes the reservoir estimator was once checked on. Its reference is
// the exact sorted sample, which is what the reservoir held below its
// capacity.
func TestHistogramQuantilesVsReservoir(t *testing.T) {
	cases := []quantileCase{
		{"uniform", func(r *rand.Rand) float64 { return 1 + r.Float64()*1e6 }},
		{"exponential-ish", func(r *rand.Rand) float64 { return 1 + r.ExpFloat64()*1.2e5 }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 5e4 + r.Float64()*5e4
			}
			return 7e5 + r.Float64()*1e5
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkWithinGridError(t, int64(i+1), tc.gen) })
	}
}

// TestHistogramQuantileWithinGridError is the grid's accuracy property
// on inputs that stress its layout: log-uniform over the whole range,
// a heavy tail, values on and just below bucket edges, and values
// outside the range. Out-of-range values are a small share on both
// sides, so the interior percentiles stay on the grid and the extremes
// come from the exact min and max.
func TestHistogramQuantileWithinGridError(t *testing.T) {
	pareto := func(r *rand.Rand) float64 { return 1e3 * math.Pow(1-r.Float64(), -1/1.1) }
	logUniform := func(r *rand.Rand) float64 { return math.Exp(r.Float64() * math.Log(3.6e12)) }
	cases := []quantileCase{
		{"log-uniform", logUniform},
		{"heavy-tailed", pareto},
		{"bucket-edges", func(r *rand.Rand) float64 {
			e := lowerEdge(1 + r.Intn(gridBuckets-2))
			if r.Intn(2) == 0 {
				return math.Nextafter(e, 0)
			}
			return e
		}},
		{"out-of-range", func(r *rand.Rand) float64 {
			switch u := r.Float64(); {
			case u < 0.003:
				return []float64{-5, 0, 0.25, 0.999}[r.Intn(4)]
			case u > 0.997:
				return 1e13 + r.Float64()*1e15
			}
			return logUniform(r)
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkWithinGridError(t, int64(i+4), tc.gen) })
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramMergeEqualsConcatenation: per-role histograms merged
// into one are the histogram of the concatenated streams, bucket for
// bucket, with the same count and extremes — also when the target
// starts empty and keeps observing afterwards.
func TestHistogramMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := NewHistogram()
	roles := make([]*Histogram, 4)
	for i := range roles {
		roles[i] = NewHistogram()
		scale := math.Pow(10, float64(2*i))
		for j := 0; j < 1000*(i+1); j++ {
			v := scale * (1 + rng.ExpFloat64())
			roles[i].Observe(v)
			all.Observe(v)
		}
	}
	pooled := NewHistogram()
	for _, h := range roles {
		pooled.Merge(h)
	}
	pooled.Observe(0.5)
	all.Observe(0.5)
	var got, want Metric
	pooled.read(&got)
	all.read(&want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %d buckets (count %d, [%v, %v]) differ from the concatenation's %d (count %d, [%v, %v])",
			len(got.Buckets), got.Count, got.Min, got.Max, len(want.Buckets), want.Count, want.Min, want.Max)
	}
	if n := roles[0].Count(); n != 1000 {
		t.Fatalf("Merge modified its argument: count %d", n)
	}
}

// TestBucketHelpers pins the grid layout that bucketOf, lowerEdge and
// upperEdge compute: each edge opens its own bucket, the value just
// below it falls in the previous one, no bucket is wider than 2⁻⁷ of
// its lower edge, the range covers 1 ns to an hour in nanoseconds, one
// histogram fits in 128 KiB, and it allocates only the octaves it sees.
func TestBucketHelpers(t *testing.T) {
	last := gridBuckets - 1
	for i := 1; i <= last; i++ {
		e := lowerEdge(i)
		if got := bucketOf(e); got != i {
			t.Fatalf("bucketOf(lowerEdge(%d) = %v) = %d", i, e, got)
		}
		if got := bucketOf(math.Nextafter(e, 0)); got != i-1 {
			t.Fatalf("bucketOf(just below %v) = %d, want %d", e, got, i-1)
		}
		if i < last && upperEdge(i)-e > e/128 {
			t.Fatalf("bucket %d [%v, %v) wider than 2⁻⁷", i, e, upperEdge(i))
		}
	}
	if lowerEdge(1) != 1 || lowerEdge(last) < 3600e9 {
		t.Fatalf("grid spans [%v, %v), want 1 ns to at least 1 h", lowerEdge(1), lowerEdge(last))
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1), -1, 0} {
		if bucketOf(v) != 0 {
			t.Fatalf("bucketOf(%v) = %d, want the underflow bucket", v, bucketOf(v))
		}
	}
	if bucketOf(math.Inf(1)) != last || !math.IsInf(upperEdge(last), 1) {
		t.Fatal("+Inf must land in the overflow bucket, bounded by +Inf")
	}
	if size := unsafe.Sizeof(Histogram{}) + gridOctaves*unsafe.Sizeof(gridPage{}); size > 128<<10 {
		t.Fatalf("a full Histogram is %d bytes, want at most 128 KiB", size)
	}
	h := NewHistogram()
	for _, v := range []float64{0.5, 1.1e6, 1.9e6, 1e15} {
		h.Observe(v)
	}
	pages := 0
	for i := range h.pages {
		if h.pages[i].Load() != nil {
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("%d octave pages allocated for values in one octave, want 1", pages)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("v")
	m, _ := reg.Snapshot().Get("v")
	if !math.IsNaN(m.Quantile(0.5)) || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	if m.Min != 0 || m.Max != 0 {
		t.Fatalf("empty histogram extremes = %v/%v, want 0/0", m.Min, m.Max)
	}
	h.Observe(1e15) // overflow bucket only: the clamp returns the value
	m, _ = reg.Snapshot().Get("v")
	if got := m.Quantile(0.5); got != 1e15 {
		t.Fatalf("overflow-only quantile = %v, want 1e15", got)
	}
	h.Observe(0.25) // underflow
	for q, want := range map[float64]float64{-1: 0.25, 0: 0.25, 1: 1e15, 2: 1e15} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("q%v = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Fatal("NaN q should give NaN")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	if n := h.Count(); n != 2 {
		t.Fatalf("Count = %d after observing NaN and ±Inf, want 2 (they are dropped)", n)
	}
	if err := reg.Snapshot().WriteJSON(io.Discard); err != nil {
		t.Fatalf("snapshot with a histogram does not encode: %v", err)
	}
	c, _ := Snapshot{}.Get("nope")
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("missing metric quantile should be NaN")
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", L("algo", "W-C")).Add(5)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat_us")
	h.Observe(7)
	h.Observe(50)

	var txt bytes.Buffer
	if err := r.Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{
		"msgs_total{algo=W-C} 5",
		"depth 2.5",
		"lat_us_bucket{le=7.03125} 1",
		"lat_us_bucket{le=50.25} 2",
		"lat_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q in:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := r.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if v := round.Value("msgs_total", L("algo", "W-C")); v != 5 {
		t.Fatalf("json round-trip counter = %v, want 5", v)
	}
	rm, _ := round.Get("lat_us")
	for _, q := range []float64{0, 0.5, 1} {
		if got, want := rm.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("json round-trip q%v = %v, want %v", q, got, want)
		}
	}
}
