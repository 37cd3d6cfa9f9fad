package metrics

// Latency percentiles are no longer computed in this package: both
// engines record into telemetry.Histogram and report its quantiles.
// These tests keep the percentile contract the engines' results rely
// on — exact extremes and counts, nearest-rank percentiles within the
// grid's 2⁻⁷, count-weighted pooling across roles — checked on that
// instrument.

import (
	"math"
	"testing"

	"slb/internal/telemetry"
)

// gridErr is the histogram's relative error bound, 2⁻⁷.
const gridErr = 1.0 / 128

func withinGrid(got, want float64) bool {
	return math.Abs(got-want) <= gridErr*math.Abs(want)
}

func TestQuantilesExactSmall(t *testing.T) {
	h := telemetry.NewHistogram()
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want the exact min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want the exact max 100", got)
	}
	// Nearest rank: the 50th smallest, read back within the grid error.
	if got := h.Quantile(0.5); !withinGrid(got, 50) {
		t.Fatalf("p50 = %v, want 50 within 2⁻⁷", got)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestQuantilesEmpty(t *testing.T) {
	h := telemetry.NewHistogram()
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Quantile(1)) {
		t.Fatal("empty histogram should return NaN")
	}
	if h.Count() != 0 {
		t.Fatalf("empty Count = %d", h.Count())
	}
}

func TestQuantilesReservoirApproximation(t *testing.T) {
	// 200k uniform samples over [0, 1e5) ns: p50 and p99 within a few %.
	h := telemetry.NewHistogram()
	x := uint64(12345)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Observe(float64(x % 100000))
	}
	if got := h.Quantile(0.5) / 100000; math.Abs(got-0.5) > 0.05 {
		t.Fatalf("p50 = %f of the range, want ≈0.5", got)
	}
	if got := h.Quantile(0.99) / 100000; math.Abs(got-0.99) > 0.02 {
		t.Fatalf("p99 = %f of the range, want ≈0.99", got)
	}
}

func TestQuantilesAddAfterQuery(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Observe(3)
	h.Observe(1)
	_ = h.Quantile(0.5)
	h.Observe(2)
	if got := h.Quantile(1); got != 3 {
		t.Fatalf("Quantile after a later Observe = %v", got)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
}

func TestQuantileLinearInterpolation(t *testing.T) {
	// A percentile is the nearest-rank value, not snapped down to an
	// order statistic or a bucket edge: 1..100 give p25, p50 and p99
	// within 2⁻⁷ of the 25th, 50th and 99th smallest.
	h := telemetry.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.25, 25}, {0.5, 50}, {0.99, 99}} {
		if got := h.Quantile(c.q); !withinGrid(got, c.want) {
			t.Fatalf("p%v = %v, want %v within 2⁻⁷", c.q*100, got, c.want)
		}
	}
	// Inside a bucket the rank is interpolated linearly: n values spread
	// evenly over the bucket [1024, 1032) read back within 1/n of its
	// width of the exact nearest-rank value.
	const n = 1000
	h = telemetry.NewHistogram()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1024 + 8*(float64(i)+0.5)/n
		h.Observe(vals[i])
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		want := vals[int(math.Ceil(q*n))-1]
		if got := h.Quantile(q); math.Abs(got-want) > 8.0/n {
			t.Fatalf("in-bucket p%v = %v, want %v within %v", q*100, got, want, 8.0/n)
		}
	}
}

func TestMergeExactConcatenation(t *testing.T) {
	a := telemetry.NewHistogram()
	b := telemetry.NewHistogram()
	for i := 1; i <= 10; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i + 10))
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("merged Count = %d, want 20", a.Count())
	}
	if got := a.Quantile(0); got != 1 {
		t.Fatalf("merged p0 = %v", got)
	}
	if got := a.Quantile(1); got != 20 {
		t.Fatalf("merged p100 = %v", got)
	}
	if got := a.Quantile(0.5); !withinGrid(got, 10) {
		t.Fatalf("merged p50 = %v, want 10 within 2⁻⁷", got)
	}
	// The argument is unchanged.
	if b.Count() != 10 || b.Quantile(0) != 11 {
		t.Fatal("Merge modified its argument")
	}
}

func TestMergeCountWeighted(t *testing.T) {
	// A fast role with 100 samples at 1 and a slow role with 9900
	// samples at 100. Pooling must weight by count — ≈99% slow samples,
	// so every quantile from p10 up is 100. An equal-weight pooling (the
	// old per-bolt quantile grid) would give the fast role half the mass.
	fast := telemetry.NewHistogram()
	for i := 0; i < 100; i++ {
		fast.Observe(1)
	}
	slow := telemetry.NewHistogram()
	for i := 0; i < 9900; i++ {
		slow.Observe(100)
	}
	pooled := telemetry.NewHistogram()
	pooled.Merge(fast)
	pooled.Merge(slow)
	if pooled.Count() != 10000 {
		t.Fatalf("pooled Count = %d, want 10000", pooled.Count())
	}
	for _, p := range []float64{0.10, 0.50, 0.99} {
		if got := pooled.Quantile(p); got != 100 {
			t.Fatalf("pooled p%v = %v, want 100 (slow role must dominate)", p, got)
		}
	}
	// The fast role is present but at its true 1% share.
	if got := pooled.Quantile(0); got != 1 {
		t.Fatalf("pooled min = %v, want 1", got)
	}
	if got := pooled.Quantile(0.01); !withinGrid(got, 1) {
		t.Fatalf("pooled p1 = %v, want 1 within 2⁻⁷", got)
	}
}

func TestMergeIntoEmptyRespectsCapacity(t *testing.T) {
	// The grid is fixed, so an empty target takes any histogram whole,
	// and later observations weigh exactly as much as merged ones: a
	// flood of large values moves the median.
	big := telemetry.NewHistogram()
	for i := 0; i < 1000; i++ {
		big.Observe(float64(i))
	}
	h := telemetry.NewHistogram()
	h.Merge(big)
	if h.Count() != 1000 {
		t.Fatalf("merged Count = %d, want 1000", h.Count())
	}
	if got := h.Quantile(0.5); !withinGrid(got, 499) {
		t.Fatalf("merged p50 = %v, want 499 within 2⁻⁷", got)
	}
	for i := 0; i < 100000; i++ {
		h.Observe(1e6)
	}
	if got := h.Quantile(0.5); !withinGrid(got, 1e6) {
		t.Fatalf("post-merge histogram frozen: p50 = %v", got)
	}
	if got := h.Quantile(1); got != 1e6 {
		t.Fatalf("post-merge max = %v, want 1e6", got)
	}
}
