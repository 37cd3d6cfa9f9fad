package core

import (
	"fmt"
	"testing"

	"slb/internal/workload"
)

// newTestGreedy returns a bare n-worker core with its floor index
// built, in the given tournament mode (greedy.tourMode).
func newTestGreedy(n int, tourMode int8) *greedy {
	g := &greedy{n: n, loads: make([]int64, n), tourMode: tourMode}
	g.index()
	return g
}

// setLoads overwrites g's load vector and rebuilds its floor index: the
// one way a test moves loads other than by routing.
func setLoads(g *greedy, loads []int64) {
	copy(g.loads, loads)
	if g.idx != nil {
		g.idx.rebuild()
	}
}

// scanArgmin is the linear first-lowest-wins argmin the index answers.
func scanArgmin(loads []int64) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	return best
}

// checkIndex verifies every invariant of a floor index against its
// loads (see loadtree.go) and that min() is the scan's argmin.
func checkIndex(t *testing.T, x *floorIndex) {
	t.Helper()
	for w, l := range x.loads {
		if l < x.floor {
			t.Fatalf("worker %d load %d below the floor %d", w, l, x.floor)
		}
		far := l-x.floor >= floorLevels
		if far && l < x.farMin {
			t.Fatalf("far worker %d load %d below farMin %d", w, l, x.farMin)
		}
		for lv := x.floor; lv < x.floor+floorLevels; lv++ {
			set := x.words[(w>>6)*floorLevels+int(lv&(floorLevels-1))]&(1<<(w&63)) != 0
			if set != (lv == l) {
				t.Fatalf("worker %d (load %d, floor %d): bit at level %d is %v", w, l, x.floor, lv, set)
			}
		}
	}
	for c := 0; c < x.cur; c++ {
		if x.words[c*floorLevels+int(x.floor&(floorLevels-1))] != 0 {
			t.Fatalf("floor row word %d below the cursor %d is not empty", c, x.cur)
		}
	}
	if got, want := x.min(), scanArgmin(x.loads); got != want {
		t.Fatalf("min() = %d (load %d), scan argmin = %d (load %d)", got, x.loads[got], want, x.loads[want])
	}
}

// TestFloorIndexMatchesScan drives indexes of assorted sizes — one
// bitmap word, exactly one, just over one, several — through random
// increments and checks min() against the linear scan after every bump.
// The first half of each run piles onto one hot worker, which leaves
// the window and becomes far; the second half mostly bumps the argmin,
// so the floor climbs and far workers re-enter. The "far" start also
// begins with workers 64 to 100 levels above the floor.
func TestFloorIndexMatchesScan(t *testing.T) {
	rng := uint64(0x1234_5678)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for _, n := range []int{1, 2, 3, 63, 64, 65, 130, 1000} {
		for _, start := range []string{"zero", "far"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, start), func(t *testing.T) {
				loads := make([]int64, n)
				top := int64(0) // highest starting load
				if start == "far" {
					for w := range loads {
						loads[w] = int64(next(3))
						if next(8) == 0 {
							loads[w] = int64(floorLevels + next(37))
						}
						top = max(top, loads[w])
					}
				}
				x := newFloorIndex(loads)
				checkIndex(t, x)
				hot := next(n)
				steps := 96*n + 4000
				for step := 0; step < steps; step++ {
					var w int
					switch r := next(4); {
					case step < steps/2 && r < 2:
						w = hot
					case r == 3:
						w = next(n)
					default:
						w = x.min()
					}
					loads[w]++
					x.bump(w, loads[w])
					if got, want := x.min(), scanArgmin(loads); got != want {
						t.Fatalf("step %d (bumped %d): min() = %d (load %d), scan argmin = %d (load %d)",
							step, w, got, loads[got], want, loads[want])
					}
					if step%97 == 0 {
						checkIndex(t, x)
					}
				}
				checkIndex(t, x)
				if x.floor+floorLevels <= top {
					t.Fatalf("floor reached only %d: not every far starting load (up to %d) re-entered", x.floor, top)
				}
			})
		}
	}
}

// TestFloorIndexTieBreak pins the lower-index-wins tie-break directly:
// taking the minimum and bumping it must visit 0, 1, …, n−1 round after
// round, across bitmap words.
func TestFloorIndexTieBreak(t *testing.T) {
	const n = 130
	loads := make([]int64, n)
	x := newFloorIndex(loads)
	for round := 0; round < 3; round++ {
		for want := 0; want < n; want++ {
			if got := x.min(); got != want {
				t.Fatalf("round %d: min() = %d, want %d", round, got, want)
			}
			loads[want]++
			x.bump(want, loads[want])
		}
	}
}

// TestCandTreeDifferential fuzzes the candidate subset tournament
// against the routeCands scan on random loads, candidate lists and
// message counts: every routed worker must match, which pins the
// earlier-position tie-break end to end.
func TestCandTreeDifferential(t *testing.T) {
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for trial := 0; trial < 500; trial++ {
		n := 2 + next(12)
		c := 2 + next(n-1)
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		cand := perm[:c]
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = int64(next(4))
		}
		g1, g2 := newTestGreedy(n, -1), newTestGreedy(n, 1)
		setLoads(g1, loads)
		setLoads(g2, loads)
		msgs := 2 + next(20)
		dst2 := make([]int, msgs)
		g2.routeHead(KeyDigest(uint64(trial)*0x9e3779b97f4a7c15+1), cand, dst2)
		for m := 0; m < msgs; m++ {
			if w1, _ := g1.routeCands(cand); w1 != dst2[m] {
				t.Fatalf("trial %d msg %d: scan %d tree %d (cand=%v loads=%v)", trial, m, w1, dst2[m], cand, loads)
			}
		}
	}
}

// scanTreePartitioners builds the same algorithm twice: once with every
// candidate list scanned, once with candidate tournaments forced onto
// every list (greedy.tourMode).
func scanTreePartitioners(t *testing.T, algo string, n int) (scan, tree Partitioner) {
	t.Helper()
	mk := func(tourMode int8) Partitioner {
		c := Config{Workers: n, Seed: 42}
		var p Partitioner
		switch algo {
		case "Greedy-7":
			p = NewForcedD(c, 7)
		case "Oracle":
			p = NewOracle(c, func(k string) bool { return len(k) < 5 })
		default:
			var err error
			if p, err = New(algo, c); err != nil {
				t.Fatal(err)
			}
		}
		setTourMode(p, tourMode)
		return p
	}
	return mk(-1), mk(1)
}

// TestScanTreeRoutingParity is the candidate path's regression suite:
// for every algorithm (including the experimental Greedy-7 and Oracle),
// across worker counts from one bitmap word to many and a skew sweep,
// the scan-only and the tournament-only configurations must produce
// identical worker sequences — message for message — at slabs of one
// and in batches (slabs of a deliberately odd size, so runs split across
// slab boundaries).
func TestScanTreeRoutingParity(t *testing.T) {
	algos := append(append([]string{}, Names...), "Greedy-7", "Oracle")
	for _, n := range []int{8, 200, 5000} {
		for _, z := range []float64{0.6, 1.4, 2.0} {
			m := int64(8000)
			if n == 5000 {
				m = 20000 // enough traffic for head keys to emerge at scale
			}
			keys := collectKeys(workload.NewZipf(z, 2000, m, 7))
			for _, algo := range algos {
				t.Run(fmt.Sprintf("%s/n=%d/z=%.1f", algo, n, z), func(t *testing.T) {
					scan, tree := scanTreePartitioners(t, algo, n)
					// First half per message, second half batched.
					half := len(keys) / 2
					for i, k := range keys[:half] {
						ws, wt := routeOne(scan, k), routeOne(tree, k)
						if ws != wt {
							t.Fatalf("msg %d (key %q): scan → %d, tree → %d", i, k, ws, wt)
						}
					}
					const slab = 97
					digs := make([]KeyDigest, slab)
					dstS := make([]int, slab)
					dstT := make([]int, slab)
					for i := half; i < len(keys); i += slab {
						end := min(i+slab, len(keys))
						scan.RouteBatchDigests(keys[i:end], digs, dstS)
						tree.RouteBatchDigests(keys[i:end], digs, dstT)
						for j := 0; j < end-i; j++ {
							if dstS[j] != dstT[j] {
								t.Fatalf("batch msg %d (key %q): scan → %d, tree → %d", i+j, keys[i+j], dstS[j], dstT[j])
							}
						}
					}
				})
			}
		}
	}
}

// TestWorkerCapLifted verifies that nothing caps the worker count:
// W-Choices constructs and routes far above 65536 workers.
func TestWorkerCapLifted(t *testing.T) {
	const big = 1 << 17
	// Theta is set explicitly so the derived sketch stays small; the
	// default 1/(5n) would ask for a multi-million-entry sketch.
	cfg := Config{Workers: big, Seed: 1, Theta: 1e-4}
	p := NewWChoices(cfg)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		w := routeOne(p, fmt.Sprintf("key%d", i%37))
		if w < 0 || w >= big {
			t.Fatalf("worker %d out of range", w)
		}
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Fatalf("routing at n=%d stuck on %d worker(s)", big, len(seen))
	}
}

// TestGreedyIndexStaysInSync builds the floor index of each scheme
// that can argmin over the whole vector up front, routes a skewed
// stream, and verifies at several points that the index still satisfies
// its invariants against the live load vector — i.e. every increment in
// every routing path went through bump. The schemes that increment
// loads directly (RR, PKG) must never build one.
func TestGreedyIndexStaysInSync(t *testing.T) {
	keys := collectKeys(workload.NewZipf(1.8, 300, 12000, 11))
	for _, algo := range []string{"W-C", "D-C", "Greedy-7", "RR", "PKG"} {
		c := Config{Workers: 150, Seed: 5}
		var p Partitioner
		if algo == "Greedy-7" {
			p = NewForcedD(c, 7)
		} else {
			var err error
			if p, err = New(algo, c); err != nil {
				t.Fatal(err)
			}
		}
		g := greedyOf(p)
		indexed := algo != "RR" && algo != "PKG"
		if indexed {
			g.index()
		}
		digs := make([]KeyDigest, 64)
		dst := make([]int, 64)
		for i := 0; i < len(keys); i += 64 {
			p.RouteBatchDigests(keys[i:min(i+64, len(keys))], digs, dst)
			if g.idx != nil && i%(64*16) == 0 {
				checkIndex(t, g.idx)
			}
		}
		if indexed {
			checkIndex(t, g.idx)
		} else if g.idx != nil {
			t.Fatalf("%s: unexpectedly built a load index", algo)
		}
	}
}

// setTourMode sets the candidate tournament mode (greedy.tourMode) of
// a scheme that routes candidate lists — D-C, pinned or not — and
// reports whether p is one.
func setTourMode(p Partitioner, mode int8) bool {
	q, ok := p.(*DChoices)
	if ok {
		q.tourMode = mode
	}
	return ok
}

// greedyOf returns the load-aware core inside p.
func greedyOf(p Partitioner) *greedy {
	switch q := p.(type) {
	case *PKG:
		return &q.greedy
	case *DChoices:
		return &q.greedy
	case *RoundRobin:
		return &q.greedy
	case *Oracle:
		return &q.greedy
	}
	panic(fmt.Sprintf("%T has no load vector", p))
}
