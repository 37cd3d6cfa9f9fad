package slb_test

import (
	"fmt"
	"testing"

	"slb"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/spacesaving"
	"slb/internal/stream"
	"slb/internal/workload"
)

// routeOne routes one message through p as a slab of one and returns
// its worker.
func routeOne(p slb.Partitioner, key string) int {
	var dig [1]slb.KeyDigest
	var dst [1]int
	slb.RouteBatchDigests(p, []string{key}, dig[:], dst[:])
	return dst[0]
}

// TestFacadeConstructors checks the facade's one constructor: every
// symbol in Algorithms builds that scheme, and an unknown symbol is an
// error.
func TestFacadeConstructors(t *testing.T) {
	cfg := slb.Config{Workers: 8, Seed: 1}
	schemes := map[string]slb.Partitioner{
		"KG":  (*core.KeyGrouping)(nil),
		"SG":  (*core.ShuffleGrouping)(nil),
		"PKG": (*core.PKG)(nil),
		"D-C": (*core.DChoices)(nil),
		"W-C": (*core.WChoices)(nil),
		"RR":  (*core.RoundRobin)(nil),
	}
	if len(schemes) != len(slb.Algorithms) {
		t.Fatalf("Algorithms lists %d symbols, want %d", len(slb.Algorithms), len(schemes))
	}
	for _, name := range slb.Algorithms {
		p, err := slb.New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got, want := fmt.Sprintf("%T", p), fmt.Sprintf("%T", schemes[name]); got != want {
			t.Errorf("New(%q) built a %s, want %s", name, got, want)
		}
		if w := routeOne(p, "key"); w < 0 || w >= 8 {
			t.Errorf("%s routed out of range: %d", name, w)
		}
	}
	if _, err := slb.New("nope", cfg); err == nil {
		t.Error("New of an unknown symbol did not error")
	}
}

func TestFacadeStreams(t *testing.T) {
	gen := slb.NewZipfStream(1.5, 100, 1000, 3)
	st := slb.CollectStats(gen)
	if st.Messages != 1000 || st.Keys == 0 || st.P1 <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	drift := slb.NewDriftStream(1.5, 100, 1000, 250, 10, 3)
	if drift.Len() != 1000 {
		t.Fatal("drift stream length wrong")
	}
	fixed := stream.FromSlice([]string{"a", "b"})
	if slb.CollectStats(fixed).Keys != 2 {
		t.Fatal("slice stream broken")
	}
	for _, symbol := range []string{"WP", "TW", "CT"} {
		if _, ok := workload.DatasetByName(symbol, workload.Default, 1); !ok {
			t.Errorf("Dataset(%q) missing", symbol)
		}
	}
	if _, ok := workload.DatasetByName("XX", workload.Default, 1); ok {
		t.Error("unknown dataset resolved")
	}
}

func TestFacadeSimulate(t *testing.T) {
	gen := slb.NewZipfStream(2.0, 500, 50_000, 9)
	cfg := slb.Config{Workers: 20, Seed: 9}
	pkg, err := slb.Simulate(gen, "PKG", cfg, slb.SimOptions{Sources: 5})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := slb.Simulate(gen, "W-C", cfg, slb.SimOptions{Sources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Imbalance >= pkg.Imbalance {
		t.Fatalf("W-C (%f) should beat PKG (%f)", wc.Imbalance, pkg.Imbalance)
	}
}

func TestFacadeCluster(t *testing.T) {
	gen := slb.NewZipfStream(1.4, 200, 5_000, 2)
	res, err := slb.SimulateCluster(gen, slb.ClusterConfig{
		Workers: 8, Sources: 4, Algorithm: "W-C",
		Core: slb.Config{Seed: 2}, ServiceTime: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5000 {
		t.Fatalf("cluster completed %d", res.Completed)
	}
}

func TestFacadeTopology(t *testing.T) {
	gen := slb.NewZipfStream(1.0, 100, 2_000, 4)
	res, err := slb.RunTopology(gen, slb.EngineConfig{
		Workers: 4, Sources: 2, Algorithm: "PKG", Core: slb.Config{Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Fatalf("topology completed %d", res.Completed)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	if got := metrics.Imbalance([]int64{10, 0}); got != 0.5 {
		t.Fatalf("Imbalance = %f", got)
	}
	probs := slb.ZipfProbs(2.0, 1000)
	if probs[0] < 0.5 {
		t.Fatalf("ZipfProbs p1 = %f, want ≈0.6", probs[0])
	}
	d := slb.SolveD(probs[:5], 0.2, 10, 1e-4)
	if d < 6 || d > 10 {
		t.Fatalf("SolveD = %d", d)
	}
	hh := spacesaving.New(10)
	hh.OfferDigest(slb.DigestKey("x"), "x")
	if c, _, ok := hh.CountDigest(slb.DigestKey("x")); !ok || c != 1 {
		t.Fatal("heavy hitter sketch broken on facade digests")
	}
}

// TestDeterministicRoutingBothAPIs pins the determinism and parity
// contract of the routing layer: routing one seeded stream twice
// through fresh partitioners yields identical worker sequences, in
// slabs of one, in slabs of 256, and across the two slab sizes — for
// every algorithm.
func TestDeterministicRoutingBothAPIs(t *testing.T) {
	const (
		workers = 50
		batch   = 256
	)
	for _, algo := range slb.Algorithms {
		mkKeys := func() []string {
			gen := slb.NewZipfStream(2.0, 1000, 20_000, 99)
			keys := make([]string, 0, 20_000)
			buf := make([]string, batch)
			for {
				n := slb.NextBatch(gen, buf)
				if n == 0 {
					break
				}
				keys = append(keys, buf[:n]...)
			}
			return keys
		}
		keys := mkKeys()
		if len(keys) != 20_000 {
			t.Fatalf("stream materialized %d keys", len(keys))
		}

		routeSeq := func() []int {
			p, err := slb.New(algo, slb.Config{Workers: workers, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, len(keys))
			for i, k := range keys {
				out[i] = routeOne(p, k)
			}
			return out
		}
		routeBat := func() []int {
			p, err := slb.New(algo, slb.Config{Workers: workers, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, len(keys))
			digs := make([]slb.KeyDigest, batch)
			dst := make([]int, batch)
			for i := 0; i < len(keys); i += batch {
				end := i + batch
				if end > len(keys) {
					end = len(keys)
				}
				slb.RouteBatchDigests(p, keys[i:end], digs, dst)
				copy(out[i:end], dst[:end-i])
			}
			return out
		}

		a, b := routeSeq(), routeSeq()
		c, d := routeBat(), routeBat()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: slabs of one not deterministic at message %d", algo, i)
			}
			if c[i] != d[i] {
				t.Fatalf("%s: slabs of %d not deterministic at message %d", algo, batch, i)
			}
			if a[i] != c[i] {
				t.Fatalf("%s: slabs of one and of %d diverge at message %d: %d vs %d",
					algo, batch, i, a[i], c[i])
			}
		}
	}
}

// TestFacadeBatchAPI exercises the batch entry points through the
// facade.
func TestFacadeBatchAPI(t *testing.T) {
	if slb.DigestKey("x") != slb.DigestKey("x") || slb.DigestKey("x") == slb.DigestKey("y") {
		t.Fatal("DigestKey broken")
	}
	p, err := slb.New("PKG", slb.Config{Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "a"}
	digs := make([]slb.KeyDigest, 3)
	dst := make([]int, 3)
	slb.RouteBatchDigests(p, keys, digs, dst)
	for i, w := range dst {
		if w < 0 || w >= 8 {
			t.Fatalf("RouteBatchDigests out of range: %v", dst)
		}
		if digs[i] != slb.DigestKey(keys[i]) {
			t.Fatalf("RouteBatchDigests digest %d = %x, want %x", i, digs[i], slb.DigestKey(keys[i]))
		}
	}
	gen := stream.FromSlice(keys)
	buf := make([]string, 2)
	if n := slb.NextBatch(gen, buf); n != 2 || buf[0] != "a" || buf[1] != "b" {
		t.Fatalf("NextBatch = %d %v", n, buf)
	}
}

// ExampleSimulate demonstrates the headline comparison: PKG versus
// D-Choices on a heavily skewed stream at scale.
func ExampleSimulate() {
	gen := slb.NewZipfStream(2.0, 1000, 100_000, 42)
	cfg := slb.Config{Workers: 50, Seed: 42}
	pkg, _ := slb.Simulate(gen, "PKG", cfg, slb.SimOptions{Sources: 5})
	dc, _ := slb.Simulate(gen, "D-C", cfg, slb.SimOptions{Sources: 5})
	fmt.Printf("PKG balanced: %v\n", pkg.Imbalance < 0.01)
	fmt.Printf("D-C balanced: %v\n", dc.Imbalance < 0.01)
	// Output:
	// PKG balanced: false
	// D-C balanced: true
}

// ExampleSolveD shows FINDOPTIMALCHOICES on a known distribution.
func ExampleSolveD() {
	probs := slb.ZipfProbs(2.0, 10_000)
	theta := 1.0 / (5 * 10.0) // n = 10 workers
	var head []float64
	tail := 0.0
	for _, p := range probs {
		if p >= theta {
			head = append(head, p)
		} else {
			tail += p
		}
	}
	d := slb.SolveD(head, tail, 10, 1e-4)
	fmt.Printf("head of %d keys needs d=%d of 10 workers\n", len(head), d)
	// Output:
	// head of 5 keys needs d=10 of 10 workers
}
