package workload

import (
	"math"
	"testing"
	"testing/quick"

	"slb/internal/stream"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.15, 0.05}
	a := NewAlias(weights)
	r := NewRNG(11)
	n := 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-w) > 0.01 {
			t.Errorf("slot %d: sampled %f, want %f", i, got, w)
		}
	}
}

func TestAliasUnnormalizedWeights(t *testing.T) {
	a := NewAlias([]float64{2, 2})
	r := NewRNG(3)
	ones := 0
	for i := 0; i < 10000; i++ {
		ones += a.Sample(r)
	}
	if ones < 4500 || ones > 5500 {
		t.Fatalf("uniform 2-slot alias skewed: %d/10000 ones", ones)
	}
}

func TestAliasPanics(t *testing.T) {
	cases := [][]float64{nil, {0, 0}, {1, -1}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", w)
				}
			}()
			NewAlias(w)
		}()
	}
}

func TestAliasSingleSlot(t *testing.T) {
	a := NewAlias([]float64{5})
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-slot alias returned nonzero")
		}
	}
}

func TestZipfProbsShape(t *testing.T) {
	p := ZipfProbs(1.0, 100)
	sum := 0.0
	for i, v := range p {
		sum += v
		if i > 0 && v > p[i-1] {
			t.Fatalf("probs not non-increasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %f", sum)
	}
	// Zipf z=1: p1/p2 = 2.
	if math.Abs(p[0]/p[1]-2) > 1e-9 {
		t.Fatalf("p1/p2 = %f, want 2", p[0]/p[1])
	}
}

func TestZipfProbsUniformAtZeroSkew(t *testing.T) {
	p := ZipfProbs(0, 10)
	for _, v := range p {
		if math.Abs(v-0.1) > 1e-12 {
			t.Fatalf("z=0 not uniform: %v", p)
		}
	}
}

func TestCalibrateZ(t *testing.T) {
	for _, tc := range []struct {
		p1   float64
		keys int
	}{
		{0.0932, 29000}, {0.0267, 31000}, {0.30, 1000}, {0.60, 104},
	} {
		z := CalibrateZ(tc.p1, tc.keys)
		got := ZipfProbs(z, tc.keys)[0]
		if math.Abs(got-tc.p1)/tc.p1 > 0.01 {
			t.Errorf("CalibrateZ(%f,%d)=%f gives p1=%f", tc.p1, tc.keys, z, got)
		}
	}
}

func TestCalibrateZPanics(t *testing.T) {
	for _, f := range []func(){
		func() { CalibrateZ(0.5, 1) },
		func() { CalibrateZ(1.0, 100) },
		func() { CalibrateZ(0.001, 100) }, // below 1/keys
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZipfGeneratorDeterminismAndReset(t *testing.T) {
	g1 := NewZipf(1.5, 100, 1000, 42)
	g2 := NewZipf(1.5, 100, 1000, 42)
	seq1, seq2 := make([]string, 1001), make([]string, 1001)
	n1, n2 := g1.NextBatch(seq1), g2.NextBatch(seq2)
	if n1 != 1000 || n2 != 1000 {
		t.Fatalf("lengths %d, %d", n1, n2)
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
	g1.Reset()
	again := make([]string, 1)
	if g1.NextBatch(again); again[0] != seq1[0] {
		t.Fatal("Reset did not reproduce the sequence")
	}
}

func TestZipfEmpiricalP1(t *testing.T) {
	g := NewZipf(2.0, 1000, 200000, 7)
	s := stream.Collect(g)
	want := ZipfProbs(2.0, 1000)[0]
	if math.Abs(s.P1-want) > 0.01 {
		t.Fatalf("empirical p1 %f, analytic %f", s.P1, want)
	}
	if s.TopKey != "k0" {
		t.Fatalf("hottest key %q, want k0", s.TopKey)
	}
}

func TestZipfNextRankMatchesNext(t *testing.T) {
	a := NewZipf(1.2, 50, 100, 9)
	b := NewZipf(1.2, 50, 100, 9)
	keys := make([]string, 101)
	keys = keys[:a.NextBatch(keys)]
	for i, k := range keys {
		r, ok := b.NextRank()
		if !ok {
			t.Fatalf("NextRank ended at %d of %d", i, len(keys))
		}
		if k != b.KeyName(r) {
			t.Fatalf("key %q != rank name %q", k, b.KeyName(r))
		}
	}
	if _, ok := b.NextRank(); ok || len(keys) != 100 {
		t.Fatalf("length mismatch: NextBatch drew %d of 100, NextRank ok=%v past the end", len(keys), ok)
	}
}

func TestDriftRotatesHotKey(t *testing.T) {
	// 4 epochs of 1000 messages; hot key must differ between epochs.
	d := NewDrift(2.0, 100, 4000, 1000, 25, 3)
	hot := make(map[int64]string)
	counts := make(map[string]int)
	epoch := int64(0)
	seen := int64(0)
	for one := make([]string, 1); d.NextBatch(one) == 1; {
		k := one[0]
		counts[k]++
		seen++
		if seen%1000 == 0 {
			top, topC := "", 0
			for key, c := range counts {
				if c > topC {
					top, topC = key, c
				}
			}
			hot[epoch] = top
			epoch++
			counts = map[string]int{}
		}
	}
	if len(hot) != 4 {
		t.Fatalf("expected 4 epochs, got %d", len(hot))
	}
	for e := int64(1); e < 4; e++ {
		if hot[e] == hot[e-1] {
			t.Errorf("hot key did not drift between epoch %d and %d (%q)", e-1, e, hot[e])
		}
	}
}

func TestDriftResetAndLen(t *testing.T) {
	d := NewDrift(1.0, 50, 500, 100, 10, 5)
	if d.Len() != 500 || d.Epochs() != 5 {
		t.Fatalf("Len=%d Epochs=%d", d.Len(), d.Epochs())
	}
	first, again := make([]string, 2), make([]string, 1)
	d.NextBatch(first)
	d.Reset()
	if d.NextBatch(again); first[0] != again[0] {
		t.Fatal("Reset did not rewind drift generator")
	}
}

// TestNextBatchMatchesNextAcrossGenerators pins the Generator contract
// for every workload generator: draining with slabs of 1, 3, 97, 129 and
// 512 gives the same sequence (97 crosses drift epoch boundaries at odd
// offsets), and each drain after the first starts from Reset, so Reset
// rewinds to the same sequence.
func TestNextBatchMatchesNextAcrossGenerators(t *testing.T) {
	gens := map[string]stream.Generator{
		"zipf":  NewZipf(1.6, 500, 4003, 9),
		"drift": NewDrift(1.6, 500, 4003, 512, 37, 9),
	}
	for _, name := range []string{"WP", "TW", "CT"} {
		g, ok := DatasetByName(name, Quick, 3)
		if !ok {
			t.Fatalf("no dataset %q", name)
		}
		gens[name] = g
	}
	drainSlabs := func(g stream.Generator, slab int) []string {
		ks := make([]string, slab)
		var got []string
		for n := g.NextBatch(ks); n > 0; n = g.NextBatch(ks) {
			got = append(got, ks[:n]...)
		}
		return got
	}
	for name, g := range gens {
		want := drainSlabs(g, 1)
		if int64(len(want)) != g.Len() {
			t.Fatalf("%s: drained %d messages, Len %d", name, len(want), g.Len())
		}
		for _, slab := range []int{3, 97, 129, 512} {
			g.Reset()
			got := drainSlabs(g, slab)
			if len(got) != len(want) {
				t.Fatalf("%s: slabs of %d drain %d messages, slabs of 1 drain %d", name, slab, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: slabs of %d: message %d = %q, want %q", name, slab, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDatasetStandInsMatchTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset calibration test skipped in -short")
	}
	for _, tc := range []struct {
		name string
		p1   float64
		tol  float64
	}{
		{"WP", WPP1, 0.15},
		{"TW", TWP1, 0.15},
		{"CT", CTP1, 0.35}, // drift makes overall p1 noisier
	} {
		gen, ok := DatasetByName(tc.name, Quick, 1)
		if !ok {
			t.Fatalf("DatasetByName(%q) not found", tc.name)
		}
		s := stream.Collect(gen)
		if s.Messages == 0 || s.Keys == 0 {
			t.Fatalf("%s: empty stand-in", tc.name)
		}
		rel := math.Abs(s.P1-tc.p1) / tc.p1
		if rel > tc.tol {
			t.Errorf("%s: p1=%f, want ≈%f (rel err %.2f)", tc.name, s.P1, tc.p1, rel)
		}
	}
}

func TestDatasetByNameUnknown(t *testing.T) {
	if _, ok := DatasetByName("NOPE", Quick, 1); ok {
		t.Fatal("unknown dataset resolved")
	}
}

func TestAliasDistributionProperty(t *testing.T) {
	// Property: alias table construction conserves probability mass — each
	// slot's prob ∈ [0,1] and every alias index is valid.
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			w[i] = float64(b)
			total += w[i]
		}
		if total == 0 {
			return true // NewAlias would panic; separately tested
		}
		a := NewAlias(w)
		for i := range a.prob {
			if a.prob[i] < 0 || a.prob[i] > 1+1e-9 {
				return false
			}
			if a.alias[i] < 0 || int(a.alias[i]) >= len(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkZipfNextBatch(b *testing.B) {
	g := NewZipf(1.5, 100000, int64(b.N)+1, 1)
	slab := make([]string, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(slab) {
		g.NextBatch(slab[:min(len(slab), b.N-i)])
	}
}
