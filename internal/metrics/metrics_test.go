package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImbalance(t *testing.T) {
	for _, tc := range []struct {
		loads []int64
		want  float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{5, 5}, 0},
		{[]int64{10, 0}, 0.5},       // max 1.0, avg 0.5
		{[]int64{6, 2, 2, 2}, 0.25}, // max 0.5, avg 0.25
	} {
		if got := Imbalance(tc.loads); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Imbalance(%v) = %f, want %f", tc.loads, got, tc.want)
		}
	}
}

func TestImbalanceNonNegativeProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		loads := make([]int64, len(raw))
		for i, v := range raw {
			loads[i] = int64(v)
		}
		i := Imbalance(loads)
		return i >= 0 && i <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesExactSmall(t *testing.T) {
	q := NewQuantiles(1000)
	for i := 100; i >= 1; i-- {
		q.Add(float64(i))
	}
	if got := q.Quantile(0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := q.Quantile(1); got != 100 {
		t.Fatalf("p100 = %f", got)
	}
	if got := q.Quantile(0.5); math.Abs(got-50) > 1.5 {
		t.Fatalf("p50 = %f, want ≈50", got)
	}
	if got := q.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %f, want 50.5", got)
	}
	if got := q.Max(); got != 100 {
		t.Fatalf("Max = %f", got)
	}
	if q.Count() != 100 {
		t.Fatalf("Count = %d", q.Count())
	}
}

func TestQuantilesEmpty(t *testing.T) {
	q := NewQuantiles(10)
	if !math.IsNaN(q.Quantile(0.5)) || !math.IsNaN(q.Mean()) || !math.IsNaN(q.Max()) {
		t.Fatal("empty estimator should return NaN")
	}
}

func TestQuantilesReservoirApproximation(t *testing.T) {
	// 200k uniform samples through a 4k reservoir: p50 within a few %.
	q := NewQuantiles(4096)
	x := uint64(12345)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		q.Add(float64(x%100000) / 100000)
	}
	if got := q.Quantile(0.5); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("reservoir p50 = %f, want ≈0.5", got)
	}
	if got := q.Quantile(0.99); math.Abs(got-0.99) > 0.02 {
		t.Fatalf("reservoir p99 = %f, want ≈0.99", got)
	}
}

func TestQuantilesAddAfterQuery(t *testing.T) {
	q := NewQuantiles(10)
	q.Add(3)
	q.Add(1)
	_ = q.Quantile(0.5)
	q.Add(2)
	if got := q.Quantile(1); got != 3 {
		t.Fatalf("Quantile after re-Add = %f", got)
	}
}

func TestQuantilesOrderedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		q := NewQuantiles(0)
		for _, v := range raw {
			q.Add(float64(v))
		}
		// Quantiles must be monotone in p.
		prev := math.Inf(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			v := q.Quantile(p)
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

func TestQuantileLinearInterpolation(t *testing.T) {
	q := NewQuantiles(1000)
	for i := 1; i <= 100; i++ {
		q.Add(float64(i))
	}
	// Type-7 positions: p·(len−1). p50 = 50.5, p99 = 99.01 — the old
	// floor-to-index code returned 50 and 99 (always biased low).
	if got := q.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %f, want 50.5", got)
	}
	if got := q.Quantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("p99 = %f, want 99.01", got)
	}
	// Exact order statistics stay exact.
	if got := q.Quantile(0.25); math.Abs(got-25.75) > 1e-9 {
		t.Fatalf("p25 = %f, want 25.75", got)
	}
}

func TestMergeExactConcatenation(t *testing.T) {
	a := NewQuantiles(100)
	b := NewQuantiles(100)
	for i := 1; i <= 10; i++ {
		a.Add(float64(i))
		b.Add(float64(i + 10))
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("merged Count = %d, want 20", a.Count())
	}
	if got := a.Quantile(0); got != 1 {
		t.Fatalf("merged p0 = %f", got)
	}
	if got := a.Quantile(1); got != 20 {
		t.Fatalf("merged p100 = %f", got)
	}
	if got := a.Quantile(0.5); math.Abs(got-10.5) > 1e-9 {
		t.Fatalf("merged p50 = %f, want 10.5", got)
	}
	// The argument is unchanged.
	if b.Count() != 10 || b.Quantile(0) != 11 {
		t.Fatal("Merge modified its argument")
	}
}

func TestMergeCountWeighted(t *testing.T) {
	// A fast source with 100 samples at 1 and a slow source with 9900
	// samples at 100 (down-sampled through a small reservoir). A
	// count-weighted merge must be ≈99% slow samples: every quantile from
	// p10 up is 100. An equal-weight pooling (the old per-bolt quantile
	// grid) would give the fast source half the mass.
	fast := NewQuantiles(1024)
	for i := 0; i < 100; i++ {
		fast.Add(1)
	}
	slow := NewQuantiles(512)
	for i := 0; i < 9900; i++ {
		slow.Add(100)
	}
	pooled := NewQuantiles(1024)
	pooled.Merge(fast)
	pooled.Merge(slow)
	if pooled.Count() != 10000 {
		t.Fatalf("pooled Count = %d, want 10000", pooled.Count())
	}
	for _, p := range []float64{0.10, 0.50, 0.99} {
		if got := pooled.Quantile(p); got != 100 {
			t.Fatalf("pooled p%v = %f, want 100 (slow source must dominate)", p, got)
		}
	}
	// The fast source is present but at its true ≈1% share.
	if got := pooled.Quantile(0); got != 1 {
		t.Fatalf("pooled min = %f, want 1", got)
	}
}

func TestMergeIntoEmptyRespectsCapacity(t *testing.T) {
	big := NewQuantiles(4096)
	for i := 0; i < 1000; i++ {
		big.Add(float64(i))
	}
	q := NewQuantiles(100)
	q.Merge(big)
	if len(q.samples) > 100 {
		t.Fatalf("merged reservoir holds %d samples, cap 100", len(q.samples))
	}
	if q.Count() != 1000 {
		t.Fatalf("merged Count = %d, want 1000", q.Count())
	}
	// The reservoir invariant holds for later Adds: new samples can land
	// anywhere, so a flood of large values moves the median.
	for i := 0; i < 100000; i++ {
		q.Add(1e6)
	}
	if got := q.Quantile(0.5); got != 1e6 {
		t.Fatalf("post-merge reservoir frozen: p50 = %f", got)
	}
}
