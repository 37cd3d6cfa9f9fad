package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"slb/internal/workload"
)

func cfg(n int) Config { return Config{Workers: n, Seed: 42} }

// routeOne routes one message as a slab of one and returns its worker.
func routeOne(p Partitioner, key string) int {
	var dig [1]KeyDigest
	var dst [1]int
	p.RouteBatchDigests([]string{key}, dig[:], dst[:])
	return dst[0]
}

// TestNewByName checks that every symbol in Names builds that scheme
// and that an unknown symbol is an error.
func TestNewByName(t *testing.T) {
	schemes := map[string]Partitioner{
		"KG":  (*KeyGrouping)(nil),
		"SG":  (*ShuffleGrouping)(nil),
		"PKG": (*PKG)(nil),
		"D-C": (*DChoices)(nil),
		"W-C": (*DChoices)(nil),
		"RR":  (*RoundRobin)(nil),
	}
	if len(schemes) != len(Names) {
		t.Fatalf("Names lists %d symbols, want %d", len(Names), len(schemes))
	}
	for _, name := range Names {
		p, err := New(name, cfg(10))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got, want := fmt.Sprintf("%T", p), fmt.Sprintf("%T", schemes[name]); got != want {
			t.Fatalf("New(%q) built a %s, want %s", name, got, want)
		}
		if p.Workers() != 10 {
			t.Fatalf("%s Workers() = %d", name, p.Workers())
		}
	}
	if _, err := New("nope", cfg(10)); err == nil {
		t.Fatal("unknown name did not error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Workers: 50}.withDefaults()
	if c.Theta != 1.0/250 {
		t.Fatalf("default theta = %f, want 1/(5n)", c.Theta)
	}
	if c.Epsilon != 1e-4 {
		t.Fatalf("default eps = %f", c.Epsilon)
	}
	if c.SketchCapacity < int(1/c.Theta) {
		t.Fatalf("sketch capacity %d below 1/θ", c.SketchCapacity)
	}
	if c.SolveEvery != 1024 {
		t.Fatalf("default SolveEvery = %d", c.SolveEvery)
	}
}

func TestConfigPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Workers=0")
		}
	}()
	NewPKG(Config{})
}

func TestKeyGroupingConsistency(t *testing.T) {
	kg := NewKeyGrouping(cfg(16))
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%d", i)
		w := routeOne(kg, k)
		for j := 0; j < 3; j++ {
			if routeOne(kg, k) != w {
				t.Fatalf("KG routed %q inconsistently", k)
			}
		}
	}
}

func TestShuffleGroupingPerfectBalance(t *testing.T) {
	sg := NewShuffleGrouping(cfg(7))
	counts := make([]int, 7)
	for i := 0; i < 7*100; i++ {
		counts[routeOne(sg, "any")]++
	}
	for w, c := range counts {
		if c != 100 {
			t.Fatalf("SG worker %d got %d, want 100", w, c)
		}
	}
}

func TestPKGRoutesOnlyToCandidates(t *testing.T) {
	p := NewPKG(cfg(20))
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%d", i%50)
		w := routeOne(p, k)
		c1 := p.family.BucketDigest(0, Digest(k), 20)
		c2 := p.family.BucketDigest(1, Digest(k), 20)
		if w != c1 && w != c2 {
			t.Fatalf("PKG routed %q to %d, candidates {%d,%d}", k, w, c1, c2)
		}
	}
}

func TestPKGPrefersLessLoaded(t *testing.T) {
	p := NewPKG(cfg(4))
	// Find a key with two distinct candidates.
	var key string
	var c1, c2 int
	for i := 0; ; i++ {
		key = fmt.Sprintf("probe%d", i)
		c1 = p.family.BucketDigest(0, Digest(key), 4)
		c2 = p.family.BucketDigest(1, Digest(key), 4)
		if c1 != c2 {
			break
		}
	}
	// Preload c1 heavily.
	loads := make([]int64, 4)
	loads[c1] = 100
	setLoads(&p.greedy, loads)
	if w := routeOne(p, key); w != c2 {
		t.Fatalf("PKG chose %d, want less-loaded %d", w, c2)
	}
}

func TestGreedyLoadAccounting(t *testing.T) {
	p := NewPKG(cfg(8))
	for i := 0; i < 500; i++ {
		routeOne(p, fmt.Sprintf("k%d", i%40))
	}
	var sum int64
	for _, l := range p.loads {
		sum += l
	}
	if sum != 500 {
		t.Fatalf("local loads sum to %d, want 500", sum)
	}
}

// routeStream pushes a Zipf stream through a fresh partitioner and
// returns the global load fractions.
func routeStream(tb testing.TB, p Partitioner, z float64, keys int, m int64) []float64 {
	tb.Helper()
	gen := workload.NewZipf(z, keys, m, 7)
	loads := make([]int64, p.Workers())
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		loads[routeOne(p, k)]++
	}
	out := make([]float64, len(loads))
	for i, l := range loads {
		out[i] = float64(l) / float64(m)
	}
	return out
}

func imbalance(loads []float64) float64 {
	max, sum := 0.0, 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	return max - sum/float64(len(loads))
}

func TestWChoicesBeatsPKGAtScaleAndSkew(t *testing.T) {
	// The paper's headline claim: at n = 50, z = 2.0 (p1 ≈ 0.6), PKG's two
	// choices cannot contain the hot key, while W-C stays near perfect.
	n := 50
	pkgImb := imbalance(routeStream(t, NewPKG(cfg(n)), 2.0, 1000, 200000))
	wcImb := imbalance(routeStream(t, NewWChoices(cfg(n)), 2.0, 1000, 200000))
	if pkgImb < 0.1 {
		t.Fatalf("PKG imbalance %f unexpectedly low; test premise broken", pkgImb)
	}
	if wcImb > 0.01 {
		t.Fatalf("W-C imbalance %f, want < 0.01", wcImb)
	}
	if wcImb > pkgImb/10 {
		t.Fatalf("W-C (%f) should beat PKG (%f) by ≥10×", wcImb, pkgImb)
	}
}

func TestDChoicesBeatsPKGAtScaleAndSkew(t *testing.T) {
	n := 50
	pkgImb := imbalance(routeStream(t, NewPKG(cfg(n)), 2.0, 1000, 200000))
	dcImb := imbalance(routeStream(t, NewDChoices(cfg(n)), 2.0, 1000, 200000))
	if dcImb > pkgImb/10 {
		t.Fatalf("D-C (%f) should beat PKG (%f) by ≥10×", dcImb, pkgImb)
	}
}

func TestRoundRobinBeatsPKGAtScaleAndSkew(t *testing.T) {
	n := 50
	pkgImb := imbalance(routeStream(t, NewPKG(cfg(n)), 2.0, 1000, 200000))
	rrImb := imbalance(routeStream(t, NewRoundRobin(cfg(n)), 2.0, 1000, 200000))
	if rrImb > pkgImb/5 {
		t.Fatalf("RR (%f) should clearly beat PKG (%f)", rrImb, pkgImb)
	}
}

func TestDChoicesUsesTwoChoicesWithoutSkew(t *testing.T) {
	// Uniform stream: no head, D-C must stay at d = 2 (PKG behaviour).
	p := NewDChoices(cfg(10))
	gen := workload.NewZipf(0, 500, 20000, 3)
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		routeOne(p, k)
	}
	if p.D() != 2 {
		t.Fatalf("D-C chose d=%d on uniform stream, want 2", p.D())
	}
}

func TestDChoicesDRespectsP1LowerBound(t *testing.T) {
	// z=2.0, |K|=1000: p1 ≈ 0.61, so with n = 10 we need d ≥ ⌈6.1⌉ = 7
	// (or a switch to W-C at d = n).
	p := NewDChoices(cfg(10))
	gen := workload.NewZipf(2.0, 1000, 50000, 5)
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		routeOne(p, k)
	}
	if p.D() < 7 {
		t.Fatalf("D-C d=%d below the p1·n lower bound 7", p.D())
	}
}

func TestWChoicesHeadGoesToLeastLoaded(t *testing.T) {
	p := NewWChoices(Config{Workers: 5, Seed: 1, Theta: 0.2})
	// Make "hot" a heavy hitter within the sketch.
	for i := 0; i < 100; i++ {
		routeOne(p, "hot")
	}
	// Skew local loads, then verify the next hot message lands on the
	// (unique) least-loaded worker.
	setLoads(&p.greedy, []int64{100, 200, 300, 0, 500})
	if w := routeOne(p, "hot"); w != 3 {
		t.Fatalf("W-C routed hot key to %d, want least-loaded 3", w)
	}
}

func TestRoundRobinSpreadsHeadEvenly(t *testing.T) {
	p := NewRoundRobin(Config{Workers: 4, Seed: 0, Theta: 0.5})
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[routeOne(p, "only-key")]++
	}
	// After warmup the single key is in the head and round-robins; allow
	// the first few pre-head messages to perturb counts slightly.
	for w, c := range counts {
		if c < 90 || c > 110 {
			t.Fatalf("RR head spread uneven: worker %d got %d/400", w, c)
		}
	}
}

func TestRouteRangeProperty(t *testing.T) {
	for _, name := range Names {
		p, err := New(name, cfg(13))
		if err != nil {
			t.Fatal(err)
		}
		prop := func(key string) bool {
			w := routeOne(p, key)
			return w >= 0 && w < 13
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDeterministicRouting(t *testing.T) {
	// Same seed, same stream → identical routing decisions for every
	// algorithm (SG included, it is seed-offset round robin).
	for _, name := range Names {
		a, _ := New(name, cfg(9))
		b, _ := New(name, cfg(9))
		gen := workload.NewZipf(1.2, 100, 2000, 11)
		for one := make([]string, 1); gen.NextBatch(one) == 1; {
			k := one[0]
			if routeOne(a, k) != routeOne(b, k) {
				t.Fatalf("%s is not deterministic", name)
			}
		}
	}
}

func TestDChoicesSwitchesToWChoicesUnderExtremeSkew(t *testing.T) {
	// A single key stream: p1 = 1. No d < n is feasible, so D-C must
	// effectively use all workers (W-C switch) and stay balanced.
	n := 10
	p := NewDChoices(cfg(n))
	counts := make([]int64, n)
	for i := 0; i < 10000; i++ {
		counts[routeOne(p, "onlykey")]++
	}
	var max, min int64 = 0, 1 << 62
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max-min > 200 {
		t.Fatalf("single-key stream not spread: max %d min %d (d=%d)", max, min, p.D())
	}
}

func TestHeadTrackerMergeSharpensEstimates(t *testing.T) {
	// Two senders each see half the stream; after merging, the head
	// estimate reflects the union.
	cfgT := Config{Workers: 10, Seed: 1, Theta: 0.05}
	a := NewWChoices(cfgT)
	b := NewWChoices(cfgT)
	for i := 0; i < 1000; i++ {
		routeOne(a, "hh")
		routeOne(a, fmt.Sprintf("ta%d", i))
		routeOne(b, "hh")
		routeOne(b, fmt.Sprintf("tb%d", i))
	}
	before := a.HeadTracker().Sketch().N()
	// The coordinator's step, as the simulator's MergeEvery takes it.
	a.HeadTracker().SetSketch(a.HeadTracker().Sketch().Merge(b.HeadTracker().Sketch()))
	after := a.HeadTracker().Sketch().N()
	if after != before+b.HeadTracker().Sketch().N() {
		t.Fatalf("merge did not combine stream lengths: %d → %d", before, after)
	}
	c, _, ok := a.HeadTracker().Sketch().CountDigest(Digest("hh"))
	if !ok || c < 2000 {
		t.Fatalf("merged estimate for hh = %d, want ≥ 2000", c)
	}
}

func TestConfigRejectsInvalidValues(t *testing.T) {
	cases := []struct {
		name string
		c    Config
	}{
		{"theta NaN", Config{Workers: 4, Theta: math.NaN()}},
		{"theta negative", Config{Workers: 4, Theta: -0.1}},
		{"epsilon NaN", Config{Workers: 4, Epsilon: math.NaN()}},
		{"epsilon negative", Config{Workers: 4, Epsilon: -1}},
		{"sketch capacity negative", Config{Workers: 4, SketchCapacity: -1}},
		{"solve every negative", Config{Workers: 4, SolveEvery: -5}},
		{"theta too small for derived capacity", Config{Workers: 4, Theta: 1e-12}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: withDefaults did not panic", tc.name)
				}
			}()
			tc.c.withDefaults()
		}()
	}
	// Explicit capacity sidesteps the tiny-theta derivation guard.
	c := Config{Workers: 4, Theta: 1e-12, SketchCapacity: 128}.withDefaults()
	if c.SketchCapacity != 128 {
		t.Fatalf("explicit capacity overridden: %d", c.SketchCapacity)
	}
}

// collectKeys materializes a generator's stream.
func collectKeys(gen *workload.Zipf) []string {
	keys := make([]string, 0, gen.Len())
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		keys = append(keys, k)
	}
	return keys
}

// TestRouteBatchMatchesRoute pins the slab contract: for every
// algorithm and slab size, routing whole slabs must produce the same
// worker sequence as routing slabs of one on a second instance —
// including across head/tail crossings, solver re-solve boundaries
// inside runs, and the sketch modes that route every run at length 1.
func TestRouteBatchMatchesRoute(t *testing.T) {
	configs := []struct {
		label string
		cfg   Config
	}{
		{"default", cfg(50)},
		{"tight solver", Config{Workers: 20, Seed: 42, SolveEvery: 16}},
		{"high theta", Config{Workers: 10, Seed: 42, Theta: 0.3}},
		{"windowed", Config{Workers: 10, Seed: 42, SketchWindow: 512}},
		{"non-monotone theta", Config{Workers: 10, Seed: 42, Theta: 0.995}},
	}
	keys := collectKeys(workload.NewZipf(2.0, 400, 20000, 17))
	for _, cc := range configs {
		for _, name := range Names {
			for _, bs := range []int{1, 3, 64, 997} {
				a, err := New(name, cc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := New(name, cc.cfg)
				digs := make([]KeyDigest, bs)
				dst := make([]int, bs)
				for i := 0; i < len(keys); i += bs {
					chunk := keys[i:min(i+bs, len(keys))]
					b.RouteBatchDigests(chunk, digs, dst)
					for j, k := range chunk {
						if want := routeOne(a, k); dst[j] != want {
							t.Fatalf("%s/%s bs=%d: message %d (%q) routed to %d by the slab, %d by a slab of one",
								cc.label, name, bs, i+j, k, dst[j], want)
						}
					}
				}
			}
		}
	}
}

// TestRouteBatchMatchesRouteExperimental covers the non-registry
// partitioners (ForcedD, Oracle) the experiments construct directly.
func TestRouteBatchMatchesRouteExperimental(t *testing.T) {
	keys := collectKeys(workload.NewZipf(2.0, 300, 15000, 23))
	hot := func(k string) bool { return k == "k0" }
	cases := []struct {
		label string
		a, b  Partitioner
	}{
		{"forced-5", NewForcedD(cfg(20), 5), NewForcedD(cfg(20), 5)},
		{"forced-n", NewForcedD(cfg(20), 20), NewForcedD(cfg(20), 20)},
		{"oracle", NewOracle(cfg(20), hot), NewOracle(cfg(20), hot)},
	}
	for _, tc := range cases {
		digs := make([]KeyDigest, 128)
		dst := make([]int, 128)
		for i := 0; i < len(keys); i += 128 {
			chunk := keys[i:min(i+128, len(keys))]
			tc.b.RouteBatchDigests(chunk, digs, dst)
			for j, k := range chunk {
				if want := routeOne(tc.a, k); dst[j] != want {
					t.Fatalf("%s: message %d diverged", tc.label, i+j)
				}
			}
		}
	}
}

func TestRouteBatchPanicsOnShortDst(t *testing.T) {
	p := NewPKG(cfg(4))
	defer func() {
		if recover() == nil {
			t.Fatal("RouteBatchDigests with short dst did not panic")
		}
	}()
	p.RouteBatchDigests([]string{"a", "b"}, make([]KeyDigest, 2), make([]int, 1))
}

// steadyStateCase is one configuration of the zero-allocation tests: a
// stream, a config, and how long to warm up. The solver runs at its
// default cadence inside every measured window.
type steadyStateCase struct {
	label  string
	cfg    Config
	algos  []string
	keys   []string
	warm   int  // passes over keys before measuring
	resume bool // head picks must mostly resume a level cursor
}

// steadyStateCases returns the paper-scale case (n = 50, z = 2.0: a head
// of dozens) and the at-scale case the solver's allocation-free path
// exists for: n = 4096 over 100k keys at z = 0.8, a head of ≈ 2.8k keys
// and d ≈ 91, warmed until the sketch is full so that only steady-state
// work remains; and D-C at n = 1024, z = 2.0, where d is in the hundreds
// and the hot keys' level cursors resume, pass and follow the solver's
// wobble in the measured windows. Each measured window below spans ≥ 8
// solves.
func steadyStateCases() []steadyStateCase {
	return []steadyStateCase{
		{"n=50", cfg(50), []string{"PKG", "D-C", "W-C", "RR"},
			collectKeys(workload.NewZipf(2.0, 2000, 30000, 31)), 1, false},
		{"n=4096", cfg(4096), []string{"D-C"},
			collectKeys(workload.NewZipf(0.8, 100_000, 1<<20, 31)), 2, false},
		{"n=1024/z=2.0", cfg(1024), []string{"D-C"},
			collectKeys(workload.NewZipf(2.0, 10_000, 1<<17, 31)), 2, true},
	}
}

// TestSteadyStateRoutingDoesNotAllocate pins the zero-allocation
// contract of the routing path at a slab of one and at a slab of 256 —
// FINDOPTIMALCHOICES included: D-Choices re-solves every 1024 messages
// inside the measured windows, over a tracker-owned snapshot and the
// solver's own tables.
func TestSteadyStateRoutingDoesNotAllocate(t *testing.T) {
	for _, tc := range steadyStateCases() {
		for _, name := range tc.algos {
			p, err := New(name, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys := tc.keys
			digs := make([]KeyDigest, 256)
			dst := make([]int, 256)
			for pass := 0; pass < tc.warm; pass++ {
				for i := 0; i < len(keys); i += 256 {
					// warmup: sketch at capacity, pools primed
					p.RouteBatchDigests(keys[i:min(i+256, len(keys))], digs, dst)
				}
			}
			solves := func() int64 { st, _ := Stats(p); return st.Solves }
			before := solves()
			i := 0
			avg := testing.AllocsPerRun(10000, func() {
				k := i % len(keys)
				p.RouteBatchDigests(keys[k:k+1], digs, dst)
				i++
			})
			if avg != 0 {
				t.Errorf("%s/%s: steady-state routing of a slab of one allocates %.3f allocs/op, want 0", tc.label, name, avg)
			}
			j := 0
			avg = testing.AllocsPerRun(200, func() {
				if j+256 > len(keys) {
					j = 0
				}
				p.RouteBatchDigests(keys[j:j+256], digs, dst)
				j += 256
			})
			if avg != 0 {
				t.Errorf("%s/%s: steady-state routing of a slab of 256 allocates %.3f allocs/slab, want 0", tc.label, name, avg)
			}
			if n := solves() - before; name == "D-C" && n < 16 {
				t.Errorf("%s/%s: the measured windows held %d solves, want ≥ 8 each", tc.label, name, n)
			}
			if st, _ := Stats(p); tc.resume && 8*greedyOf(p).nPasses > st.ScanMinPicks {
				t.Errorf("%s/%s: %d cursor passes for %d head picks: the cursor did not resume", tc.label, name, greedyOf(p).nPasses, st.ScanMinPicks)
			}
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			p, _ := New(name, cfg(50))
			gen := workload.NewZipf(1.4, 10000, int64(b.N)+1, 1)
			one := make([]string, 1)
			dig := make([]KeyDigest, 1)
			dst := make([]int, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.NextBatch(one)
				p.RouteBatchDigests(one, dig, dst)
			}
		})
	}
}

func BenchmarkRouteBatchCore(b *testing.B) {
	keys := collectKeys(workload.NewZipf(2.0, 10000, 1<<17, 1))
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			p, _ := New(name, cfg(50))
			digs := make([]KeyDigest, 512)
			dst := make([]int, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 512 {
				off := i & (1<<17 - 1)
				end := off + 512
				if end > len(keys) {
					end = len(keys)
				}
				p.RouteBatchDigests(keys[off:end], digs, dst)
			}
		})
	}
}
