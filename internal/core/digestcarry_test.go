package core

import (
	"testing"

	"slb/internal/hashing"
	"slb/internal/workload"
)

// TestRouteBatchDigestsMatchesRoute pins the digest-carry batch
// contract: for every algorithm and batch size — including the sketch
// modes that route every run at length 1 — RouteBatchDigests must
// produce the same worker sequence as per-message Route AND fill
// digs[i] with exactly Digest(keys[i]).
func TestRouteBatchDigestsMatchesRoute(t *testing.T) {
	configs := []struct {
		label string
		cfg   Config
	}{
		{"default", cfg(50)},
		{"tight solver", Config{Workers: 20, Seed: 42, SolveEvery: 16}},
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
						if want := a.Route(k); dst[j] != want {
							t.Fatalf("%s/%s bs=%d: message %d (%q) routed to %d by digest batch, %d by Route",
								cc.label, name, bs, i+j, k, dst[j], want)
						}
						if want := hashing.Digest(k); digs[j] != want {
							t.Fatalf("%s/%s bs=%d: message %d (%q) digest %x, want %x",
								cc.label, name, bs, i+j, k, digs[j], want)
						}
					}
				}
			}
		}
	}
}

// TestRouteDigestMatchesRoute pins the per-message digest-carry form:
// RouteDigest(Digest(k), k) is Route(k), for every algorithm including
// the experimental ones.
func TestRouteDigestMatchesRoute(t *testing.T) {
	keys := collectKeys(workload.NewZipf(2.0, 300, 15000, 23))
	type pair struct {
		label string
		a, b  Partitioner
	}
	var cases []pair
	for _, name := range Names {
		a, _ := New(name, cfg(20))
		b, _ := New(name, cfg(20))
		cases = append(cases, pair{name, a, b})
	}
	hot := func(k string) bool { return k == "k0" }
	cases = append(cases,
		pair{"forced-5", NewForcedD(cfg(20), 5), NewForcedD(cfg(20), 5)},
		pair{"oracle", NewOracle(cfg(20), hot), NewOracle(cfg(20), hot)})
	for _, tc := range cases {
		for i, k := range keys {
			if want, got := tc.a.Route(k), tc.b.RouteDigest(hashing.Digest(k), k); got != want {
				t.Fatalf("%s: message %d (%q) routed to %d by RouteDigest, %d by Route", tc.label, i, k, got, want)
			}
		}
	}
}

// TestRouteBatchDigestsPanicsOnShortDigs: the digs slab is part of the
// contract, so an undersized one must fail loudly.
func TestRouteBatchDigestsPanicsOnShortDigs(t *testing.T) {
	p := NewPKG(cfg(4))
	defer func() {
		if recover() == nil {
			t.Fatal("RouteBatchDigests with short digs did not panic")
		}
	}()
	p.RouteBatchDigests([]string{"a", "b"}, make([]KeyDigest, 1), make([]int, 2))
}

// TestSteadyStateDigestRoutingDoesNotAllocate extends the
// zero-allocation contract to the digest-carry APIs: warm steady-state
// RouteBatchDigests (caller-owned slab) and RouteDigest allocate
// nothing, with the D-Choices solver running at its default cadence
// inside the measured windows, at paper scale and at n = 4096 (see
// steadyStateCases).
func TestSteadyStateDigestRoutingDoesNotAllocate(t *testing.T) {
	for _, tc := range steadyStateCases() {
		for _, name := range tc.algos {
			p, err := New(name, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys := tc.keys
			for pass := 0; pass < tc.warm; pass++ {
				for _, k := range keys {
					p.Route(k) // warmup: sketch at capacity, pools primed
				}
			}
			solves := func() int64 { st, _ := Stats(p); return st.Solves }
			before := solves()
			i := 0
			if avg := testing.AllocsPerRun(10000, func() {
				k := keys[i%len(keys)]
				p.RouteDigest(hashing.Digest(k), k)
				i++
			}); avg != 0 {
				t.Errorf("%s/%s: steady-state RouteDigest allocates %.3f allocs/op, want 0", tc.label, name, avg)
			}
			digs := make([]KeyDigest, 256)
			dst := make([]int, 256)
			j := 0
			if avg := testing.AllocsPerRun(200, func() {
				if j+256 > len(keys) {
					j = 0
				}
				p.RouteBatchDigests(keys[j:j+256], digs, dst)
				j += 256
			}); avg != 0 {
				t.Errorf("%s/%s: steady-state RouteBatchDigests allocates %.3f allocs/batch, want 0", tc.label, name, avg)
			}
			if n := solves() - before; name == "D-C" && n < 16 {
				t.Errorf("%s/%s: the measured windows held %d solves, want ≥ 8 each", tc.label, name, n)
			}
		}
	}
}
