package core

import (
	"testing"

	"slb/internal/hashing"
	"slb/internal/workload"
)

// TestRouteBatchDigestsMatchesRoute pins the digest-carry slab
// contract: for every algorithm and slab size — including the sketch
// modes that route every run at length 1 — RouteBatchDigests must
// produce the same worker sequence as slabs of one on a second instance
// AND fill digs[i] with exactly Digest(keys[i]).
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
						if want := routeOne(a, k); dst[j] != want {
							t.Fatalf("%s/%s bs=%d: message %d (%q) routed to %d by the slab, %d by a slab of one",
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

// TestRouteDigestMatchesRoute pins one-message-at-a-time routing
// against the whole stream routed as a single slab, digests included,
// for every algorithm including the experimental ones.
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
		digs := make([]KeyDigest, len(keys))
		dst := make([]int, len(keys))
		tc.b.RouteBatchDigests(keys, digs, dst)
		for i, k := range keys {
			if want := routeOne(tc.a, k); dst[i] != want {
				t.Fatalf("%s: message %d (%q) routed to %d by the whole slab, %d by a slab of one", tc.label, i, k, dst[i], want)
			}
			if want := hashing.Digest(k); digs[i] != want {
				t.Fatalf("%s: message %d (%q) digest %x, want %x", tc.label, i, k, digs[i], want)
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
// zero-allocation contract to caller-owned digest slabs: warm
// steady-state RouteBatchDigests allocates nothing at a slab of one —
// the path the discrete-event engine routes every emit through — or at
// a slab of 256, with the D-Choices solver running at its default
// cadence inside the measured windows, at paper scale and at n = 4096
// (see steadyStateCases).
func TestSteadyStateDigestRoutingDoesNotAllocate(t *testing.T) {
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
			if avg := testing.AllocsPerRun(10000, func() {
				k := i % len(keys)
				p.RouteBatchDigests(keys[k:k+1], digs, dst)
				i++
			}); avg != 0 {
				t.Errorf("%s/%s: steady-state RouteBatchDigests of a slab of one allocates %.3f allocs/op, want 0", tc.label, name, avg)
			}
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
