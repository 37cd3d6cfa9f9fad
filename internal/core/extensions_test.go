package core

import (
	"fmt"
	"strings"
	"testing"

	"slb/internal/workload"
)

func TestForcedDClamping(t *testing.T) {
	if d := NewForcedD(cfg(10), 0).D(); d != 2 {
		t.Fatalf("ForcedD(0) clamped to %d, want 2", d)
	}
	if d := NewForcedD(cfg(10), 99).D(); d != 10 {
		t.Fatalf("ForcedD(99) clamped to %d, want 10", d)
	}
	if d := NewForcedD(cfg(10), 5).D(); d != 5 {
		t.Fatalf("ForcedD(5) clamped to %d, want 5", d)
	}
}

func TestForcedDImbalanceImprovesWithD(t *testing.T) {
	// On an extreme-skew stream at n=20, more choices for the head can
	// only help (monotone up to noise); d=n must be near-perfect.
	imbAt := func(d int) float64 {
		p := NewForcedD(cfg(20), d)
		return imbalance(routeStream(t, p, 2.0, 1000, 100000))
	}
	i2, i20 := imbAt(2), imbAt(20)
	if i20 > i2/10 {
		t.Fatalf("Greedy-20 (%f) should be ≫ better than Greedy-2 (%f)", i20, i2)
	}
}

func TestOracleMatchesWChoicesOnStationaryStream(t *testing.T) {
	n := 50
	// Ground-truth head: ranks above θ for z=2.0.
	probs := workload.ZipfProbs(2.0, 1000)
	theta := 1.0 / (5 * float64(n))
	headSet := map[string]bool{}
	for r, p := range probs {
		if p >= theta {
			headSet[fmt.Sprintf("k%d", r)] = true
		}
	}
	oracle := NewOracle(cfg(n), func(k string) bool { return headSet[k] })
	oImb := imbalance(routeStream(t, oracle, 2.0, 1000, 200000))
	wc := NewWChoices(cfg(n))
	wImb := imbalance(routeStream(t, wc, 2.0, 1000, 200000))
	// The sketch-based scheme should be within a small factor of the
	// oracle (the paper's implicit claim: estimation error is negligible).
	if wImb > 5*oImb+1e-4 {
		t.Fatalf("W-C (%f) far from oracle (%f)", wImb, oImb)
	}
}

func TestOraclePanicsWithoutPredicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOracle(nil) did not panic")
		}
	}()
	NewOracle(cfg(4), nil)
}

func TestSketchWindowMode(t *testing.T) {
	c := cfg(10)
	c.SketchWindow = 1000
	p := NewWChoices(c)
	// Sliding mode exposes no mergeable sketch.
	if p.HeadTracker().Sketch() != nil {
		t.Fatal("windowed tracker should not expose a plain sketch")
	}
	// SetSketch must be a safe no-op.
	p.HeadTracker().SetSketch(nil)
	// Routing still works and balances a hot key.
	counts := make([]int64, 10)
	for i := 0; i < 20000; i++ {
		counts[routeOne(p, "hot")]++
	}
	if imb := imbalanceInt(counts); imb > 0.02 {
		t.Fatalf("windowed W-C imbalance %f on single-key stream", imb)
	}
}

func imbalanceInt(loads []int64) float64 {
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	return float64(max)/float64(sum) - 1.0/float64(len(loads))
}

func TestSketchWindowAdaptsFasterUnderDrift(t *testing.T) {
	// Long stream with a late hot-key switch: the windowed tracker must
	// classify the new hot key as head again well before the plain one.
	mkStream := func() []string {
		var keys []string
		for i := 0; i < 30000; i++ {
			if i%2 == 0 {
				keys = append(keys, "hotA")
			} else {
				keys = append(keys, fmt.Sprintf("t%d", i%97))
			}
		}
		for i := 0; i < 4000; i++ {
			if i%2 == 0 {
				keys = append(keys, "hotB")
			} else {
				keys = append(keys, fmt.Sprintf("t%d", i%97))
			}
		}
		return keys
	}
	detect := func(c Config) int {
		p := NewWChoices(c)
		keys := mkStream()
		for i, k := range keys {
			before := p.head.headMsgs
			routeOne(p, k)
			if i >= 30000 && k == "hotB" && p.head.headMsgs > before {
				return i - 30000 // the first hotB message routed as head
			}
		}
		return 1 << 30
	}
	plainCfg := cfg(10)
	winCfg := cfg(10)
	winCfg.SketchWindow = 2000
	plain := detect(plainCfg)
	windowed := detect(winCfg)
	if windowed >= plain {
		t.Fatalf("windowed detection (%d msgs) not faster than plain (%d msgs)", windowed, plain)
	}
	if windowed > 6000 {
		t.Fatalf("windowed detection took %d messages, want ≤ ~2 windows", windowed)
	}
}

func TestPhaseOffsetsSpreadSources(t *testing.T) {
	// Distinct instances must start SG at distinct workers (mod n).
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		c := Config{Workers: 64, Seed: 42, Instance: i}
		sg := NewShuffleGrouping(c)
		seen[routeOne(sg, "x")] = true
	}
	if len(seen) < 6 {
		t.Fatalf("8 instances start at only %d distinct workers", len(seen))
	}
}

func TestInstanceDoesNotAffectHashing(t *testing.T) {
	// The correctness invariant behind multi-sender routing: every
	// sender must map a key to the SAME candidate workers, or a key's
	// state would scatter beyond its d choices. Instance may only shift
	// round-robin phases.
	a := NewPKG(Config{Workers: 32, Seed: 9, Instance: 0})
	b := NewPKG(Config{Workers: 32, Seed: 9, Instance: 7})
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%d", i)
		for h := 0; h < 2; h++ {
			if a.family.BucketDigest(h, Digest(k), 32) != b.family.BucketDigest(h, Digest(k), 32) {
				t.Fatalf("instance changed hash candidates for %q", k)
			}
		}
	}
}

func TestAllAlgorithmsConserveLocalLoads(t *testing.T) {
	// Every load-tracking partitioner's local vector must sum to the
	// number of routed messages.
	for _, name := range []string{"PKG", "D-C", "W-C", "RR"} {
		p, err := New(name, cfg(12))
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewZipf(1.6, 300, 5000, 3)
		for one := make([]string, 1); gen.NextBatch(one) == 1; {
			k := one[0]
			routeOne(p, k)
		}
		var sum int64
		for _, v := range greedyOf(p).loads {
			sum += v
		}
		if sum != 5000 {
			t.Errorf("%s local loads sum to %d, want 5000", name, sum)
		}
	}
}

func TestNamesHaveNoOracle(t *testing.T) {
	// Oracle and ForcedD are experimental instruments, not part of the
	// paper's algorithm set exposed through the registry.
	for _, n := range Names {
		if strings.Contains(n, "Oracle") || strings.Contains(n, "Greedy") {
			t.Fatalf("registry leaked experimental algorithm %q", n)
		}
	}
	if _, err := New("Oracle", cfg(4)); err == nil {
		t.Fatal("Oracle constructible by name")
	}
}
