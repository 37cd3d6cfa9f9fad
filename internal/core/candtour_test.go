package core

import (
	"fmt"
	"testing"
)

// shortRunStream builds a stream that chops two hot keys into many
// 1–2 message runs separated by cold-key traffic — the regime the
// persistent candidate tournament exists for, after a long opening run
// per hot key.
func shortRunStream(msgs int) []string {
	keys := make([]string, 0, msgs)
	hot := []string{"hot-alpha", "hot-beta"}
	for _, h := range hot {
		for i := 0; i < 8; i++ {
			keys = append(keys, h)
		}
	}
	rng := uint64(0xfeed)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for len(keys) < msgs {
		h := hot[next(2)]
		for r := 1 + next(2); r > 0 && len(keys) < msgs; r-- {
			keys = append(keys, h)
		}
		for c := 1 + next(3); c > 0 && len(keys) < msgs; c-- {
			keys = append(keys, fmt.Sprintf("cold-%d", next(500)))
		}
	}
	return keys[:msgs]
}

// forcedTours builds algo ("D-C" or "Greedy-7") at n workers with
// candidate tournaments forced onto every head list, beside the plain
// Algorithm 1 reference for the same config.
func forcedTours(algo string, n int) (Partitioner, *refScheme) {
	c := Config{Workers: n, Seed: 42}
	var p Partitioner
	var ref *refScheme
	if algo == "Greedy-7" {
		p, ref = NewForcedD(c, 7), newRef("Greedy-d", c)
		ref.forcedD = 7
	} else {
		p, ref = NewDChoices(c), newRef(algo, c)
	}
	setTourMode(p, 1)
	return p, ref
}

// routeMatchesRef routes keys through p in slabs of the given size and
// fails at the first worker that differs from ref's.
func routeMatchesRef(t *testing.T, p Partitioner, ref *refScheme, keys []string, slab int) {
	t.Helper()
	digs := make([]KeyDigest, slab)
	dst := make([]int, slab)
	for i := 0; i < len(keys); i += slab {
		chunk := keys[i:min(i+slab, len(keys))]
		p.RouteBatchDigests(chunk, digs, dst)
		for j, k := range chunk {
			if want := ref.route(k); dst[j] != want {
				t.Fatalf("msg %d (key %q): routed to %d, reference %d", i+j, k, dst[j], want)
			}
		}
	}
}

// TestCandTourShortRunParity pins that the persistent tournament's
// repair path routes bit-identically to plain Algorithm 1 on a stream
// of deliberately short head runs, through the batched API with a slab
// size that splits runs across batch boundaries. With tournaments
// forced, Greedy-7 caches one for every head run (c = 7), so 1–2
// message runs exercise the replay path constantly.
func TestCandTourShortRunParity(t *testing.T) {
	keys := shortRunStream(30000)
	for _, algo := range []string{"Greedy-7", "D-C"} {
		for _, n := range []int{16, 200} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				p, ref := forcedTours(algo, n)
				routeMatchesRef(t, p, ref, keys, 61)
			})
		}
	}
}

// TestCandTourLogRollover drives one core far past candTourLogMax
// increments between runs of a cached head key, forcing generation
// bumps (replay impossible, entry invalidated) and verifying routing
// stays bit-exact with plain Algorithm 1 through the rebuild.
func TestCandTourLogRollover(t *testing.T) {
	const target = 4 * candTourLogMax
	keys := make([]string, 0, target+candTourLogMax+512)
	for len(keys) < target {
		for i := 0; i < 6; i++ {
			keys = append(keys, "hot-alpha")
		}
		// Enough cold traffic to roll the modification log several
		// times before the hot key returns.
		for i := 0; i < candTourLogMax+257; i++ {
			keys = append(keys, fmt.Sprintf("cold-%d", i%911))
		}
	}
	p, ref := forcedTours("Greedy-7", 32)
	routeMatchesRef(t, p, ref, keys, 128)
}

// TestCandTourRepair unit-tests the repair path directly: build a
// tournament for one digest, interleave increments on candidate and
// non-candidate workers (all logged via bump), then route another run
// and check it against a scan replica of the same load history.
func TestCandTourRepair(t *testing.T) {
	const n = 64
	g, ref := newTestGreedy(n, 1), newTestGreedy(n, 1)
	cand := []int32{3, 17, 5, 40, 9, 22, 31}
	dg := KeyDigest(0xabcdef0123456789)

	dst := make([]int, 5)
	g.routeHead(dg, cand, dst)
	for range dst {
		ref.routeCands(cand)
	}
	if g.nTourBuilds != 1 {
		t.Fatal("tournament not built by the first run")
	}
	// Foreign-key traffic: bumps on candidates and non-candidates.
	for _, w := range []int{5, 5, 40, 2, 60, 9} {
		g.bump(w)
		ref.bump(w)
	}
	// Short run: must take the repair path and match the scan replica.
	short := make([]int, 2)
	g.routeHead(dg, cand, short)
	if g.nTourBuilds != 1 || g.nTourRepairs != 1 {
		t.Fatalf("short run after a few increments: %d builds, %d repairs, want 1 and 1", g.nTourBuilds, g.nTourRepairs)
	}
	for m := range short {
		if want, _ := ref.routeCands(cand); short[m] != want {
			t.Fatalf("repaired route %d: got %d, want %d", m, short[m], want)
		}
	}
	for w := range g.loads {
		if g.loads[w] != ref.loads[w] {
			t.Fatalf("loads diverged at worker %d: %d vs %d", w, g.loads[w], ref.loads[w])
		}
	}
}

// BenchmarkCandTourCosts measures the three unit costs the tournament
// policy in loadtree.go trades against one another, at the shape of
// route-scale's D-C.n4096.z2.0 cell (n = 4096, c = 1,900 candidates,
// near-level loads): a scan per candidate visited (no candidate at the
// floor, so every scan runs to the end), a replay per logged increment
// (increments land on uniformly random workers, 46% of them
// candidates), a build per candidate, and a route through the built
// tournament per message. candTourLagDiv is replay ÷ scan and
// candTourBuildScans build ÷ scan.
func BenchmarkCandTourCosts(b *testing.B) {
	const n, c = 4096, 1900
	rng := uint64(7)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(m))
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cand := perm[:c]
	mk := func() *greedy {
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = int64(1 + next(2))
		}
		// One non-candidate holds the floor, so no scan stops early.
		loads[perm[n-1]] = 0
		g := newTestGreedy(n, 1)
		setLoads(g, loads)
		return g
	}
	b.Run("scan/candidate", func(b *testing.B) { // includes one bump per c candidates
		g := mk()
		for i := 0; i < b.N; i += c {
			g.routeCands(cand)
		}
	})
	b.Run("build/candidate", func(b *testing.B) {
		g := mk()
		var e candTour
		g.tours = []candTour{e}
		for i := 0; i < b.N; i += c {
			if !g.tourBuild(&g.tours[0], cand) {
				b.Fatal("no storage")
			}
		}
	})
	b.Run("bump/increment", func(b *testing.B) { // the baseline inside the next two
		g := mk()
		g.clog = make([]int32, candTourLogMax)
		for i := 0; i < b.N; i++ {
			g.bump(int(perm[next(n-1)]))
		}
	})
	b.Run("replay/increment", func(b *testing.B) {
		g := mk()
		g.clog = make([]int32, candTourLogMax)
		g.tours = make([]candTour, 1)
		e := &g.tours[0]
		g.tourBuild(e, cand)
		e.at = g.clogPos
		const lag = 64
		b.ResetTimer()
		for i := 0; i < b.N; i += lag {
			for j := 0; j < lag; j++ {
				g.bump(int(perm[next(n-1)]))
			}
			e.repair(g, cand)
			e.at = g.clogPos
		}
	})
	b.Run("route/message", func(b *testing.B) {
		g := mk()
		g.tours = make([]candTour, 1)
		e := &g.tours[0]
		g.tourBuild(e, cand)
		dst := make([]int, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(dst) {
			g.tourRoute(e, dst)
		}
	})
}

// TestCandTourRepairMatchesRebuild checks the replay at the level of
// the structure: after any batch of logged increments (repeats and
// non-candidates included) and any growth or shrinkage of the list
// along its prefix order, a repaired tournament holds exactly the nodes
// a fresh build over the same list and loads holds. The early exit in
// repair is only sound with the replay stamps; this is the test that
// fails without them.
func TestCandTourRepairMatchesRebuild(t *testing.T) {
	rng := uint64(31)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(m))
	}
	for trial := 0; trial < 200; trial++ {
		n := 8 + next(300)
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = int64(next(3))
		}
		g := newTestGreedy(n, 1)
		setLoads(g, loads)
		g.clog = make([]int32, candTourLogMax)
		g.tours = make([]candTour, 2)
		e, fresh := &g.tours[0], &g.tours[1]
		c := 2 + next(n-2)
		// Same leaf capacity for both, so the node arrays compare.
		if !g.tourBuild(e, perm[:c]) || !g.tourStorage(fresh, c) {
			t.Fatal("no storage")
		}
		e.at = g.clogPos
		for round := 0; round < 6; round++ {
			for k := next(3 * n); k > 0; k-- {
				if next(4) == 0 {
					g.bump(int(perm[next(c)])) // pile onto candidates: repeats
				} else {
					g.bump(next(n))
				}
			}
			// Move the list length inside the leaf capacity, as a
			// wobbling d does.
			c += next(5) - 2
			if c < 2 {
				c = 2
			}
			if c > int(e.leaves) {
				c = int(e.leaves)
			}
			if c > n {
				c = n
			}
			e.repair(g, perm[:c])
			e.at = g.clogPos
			fresh.build(g, perm[:c])
			if e.leaves != fresh.leaves || e.c != fresh.c {
				t.Fatalf("trial %d round %d: shape (%d leaves, c=%d) vs fresh (%d, %d)", trial, round, e.leaves, e.c, fresh.leaves, fresh.c)
			}
			for k := 1; k < 2*int(e.leaves); k++ {
				if e.node[k] != fresh.node[k] {
					t.Fatalf("trial %d round %d (n=%d c=%d): node[%d] = %d after repair, %d after rebuild", trial, round, n, c, k, e.node[k], fresh.node[k])
				}
			}
		}
	}
}
