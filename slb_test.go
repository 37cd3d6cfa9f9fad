package slb_test

import (
	"fmt"
	"testing"

	"slb"
)

func TestFacadeConstructors(t *testing.T) {
	cfg := slb.Config{Workers: 8, Seed: 1}
	constructors := map[string]func(slb.Config) slb.Partitioner{
		"KG":  slb.NewKeyGrouping,
		"SG":  slb.NewShuffleGrouping,
		"PKG": slb.NewPKG,
		"D-C": slb.NewDChoices,
		"W-C": slb.NewWChoices,
		"RR":  slb.NewRoundRobin,
	}
	if len(constructors) != len(slb.Algorithms) {
		t.Fatalf("facade exposes %d constructors, Algorithms lists %d", len(constructors), len(slb.Algorithms))
	}
	for name, ctor := range constructors {
		p := ctor(cfg)
		if p.Name() != name {
			t.Errorf("constructor for %s returned %s", name, p.Name())
		}
		if w := p.Route("key"); w < 0 || w >= 8 {
			t.Errorf("%s routed out of range: %d", name, w)
		}
		byName, err := slb.New(name, cfg)
		if err != nil || byName.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, byName, err)
		}
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
	fixed := slb.StreamFromKeys([]string{"a", "b"})
	if slb.CollectStats(fixed).Keys != 2 {
		t.Fatal("slice stream broken")
	}
	for _, symbol := range []string{"WP", "TW", "CT"} {
		if _, ok := slb.Dataset(symbol, 1); !ok {
			t.Errorf("Dataset(%q) missing", symbol)
		}
	}
	if _, ok := slb.Dataset("XX", 1); ok {
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

func TestFacadePipeline(t *testing.T) {
	gen := slb.NewZipfStream(1.5, 100, 2_000, 8)
	pipe := slb.NewPipeline(gen, 2).
		AddStage("pass", 2, "SG", 0, func(k string, emit func(string)) { emit(k) }).
		AddStage("sink", 4, "W-C", 0, func(string, func(string)) {})
	res, err := pipe.Run(slb.PipelineConfig{Core: slb.Config{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 2000 || len(res.Stages) != 2 {
		t.Fatalf("pipeline result %+v", res)
	}
	if res.Stages[1].Processed != 2000 {
		t.Fatalf("sink processed %d", res.Stages[1].Processed)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	if got := slb.Imbalance([]int64{10, 0}); got != 0.5 {
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
	hh := slb.NewHeavyHitters(10)
	hh.Offer("x")
	if c, _, ok := hh.Count("x"); !ok || c != 1 {
		t.Fatal("heavy hitter sketch broken through facade")
	}
}

// TestDeterministicRoutingBothAPIs pins the determinism and parity
// contract of the routing layer: routing one seeded stream twice
// through fresh partitioners yields identical worker sequences, via the
// per-message API, via the batch API, and across the two APIs — for
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
				out[i] = p.Route(k)
			}
			return out
		}
		routeBat := func() []int {
			p, err := slb.New(algo, slb.Config{Workers: workers, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, len(keys))
			dst := make([]int, batch)
			for i := 0; i < len(keys); i += batch {
				end := i + batch
				if end > len(keys) {
					end = len(keys)
				}
				slb.RouteBatch(p, keys[i:end], dst)
				copy(out[i:end], dst[:end-i])
			}
			return out
		}

		a, b := routeSeq(), routeSeq()
		c, d := routeBat(), routeBat()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Route not deterministic at message %d", algo, i)
			}
			if c[i] != d[i] {
				t.Fatalf("%s: RouteBatch not deterministic at message %d", algo, i)
			}
			if a[i] != c[i] {
				t.Fatalf("%s: Route and RouteBatch diverge at message %d: %d vs %d",
					algo, i, a[i], c[i])
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
	p := slb.NewPKG(slb.Config{Workers: 8, Seed: 1})
	keys := []string{"a", "b", "a"}
	dst := make([]int, 3)
	slb.RouteBatch(p, keys, dst)
	for _, w := range dst {
		if w < 0 || w >= 8 {
			t.Fatalf("RouteBatch out of range: %v", dst)
		}
	}
	gen := slb.StreamFromKeys(keys)
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
