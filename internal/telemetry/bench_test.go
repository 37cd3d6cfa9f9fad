package telemetry

import "testing"

// The hot-path contract: handle updates are single atomic ops with no
// allocation. TestHotPathZeroAllocs is the hard assert (runs in tier-1
// tests); the benchmarks track the per-op cost in the benchtime=1x CI
// job alongside the routing steady-state set.

func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		g.Set(1.5)
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("hot path allocated %.1f allocs/op, want 0", n)
	}
	snapAllocs := testing.AllocsPerRun(100, func() { _ = r.Snapshot() })
	if snapAllocs == 0 {
		t.Fatal("snapshot unexpectedly reported 0 allocs (harness broken?)")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter("c", L("i", string(rune('a'+i)))).Add(int64(i))
	}
	h := r.Histogram("h")
	h.Observe(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
