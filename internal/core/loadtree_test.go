package core

import (
	"fmt"
	"testing"

	"slb/internal/workload"
)

// newTestGreedy returns a bare n-worker core with its floor index
// built.
func newTestGreedy(n int) *greedy {
	g := &greedy{n: n, loads: make([]int64, n)}
	g.index()
	return g
}

// newFloorIndex returns an index built over loads (not copied).
func newFloorIndex(loads []int64) *floorIndex {
	x := &floorIndex{}
	x.build(loads)
	return x
}

// setLoads overwrites g's load vector and rebuilds its floor index: the
// one way a test moves loads other than by routing.
func setLoads(g *greedy, loads []int64) {
	copy(g.loads, loads)
	if g.indexed {
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

// scanTreePartitioners builds the same algorithm twice, to route one
// stream side by side: "scan" forgets every level cursor after each
// routing call (forgetCursors), so each call's first message of a head
// key is a plain scan of its list, and "tree" keeps them, as production
// does.
func scanTreePartitioners(t *testing.T, algo string, n int) (scan, tree Partitioner) {
	t.Helper()
	mk := func() Partitioner {
		c := Config{Workers: n, Seed: 42}
		switch algo {
		case "Greedy-7":
			return NewForcedD(c, 7)
		case "Oracle":
			return NewOracle(c, func(k string) bool { return len(k) < 5 })
		}
		p, err := New(algo, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk(), mk()
}

// TestScanTreeRoutingParity is the candidate path's regression suite:
// for every algorithm (including the experimental Greedy-7 and Oracle),
// across worker counts from one bitmap word to many and a skew sweep,
// the configuration that forgets its level cursors after every call
// and the one that keeps them (scanTreePartitioners) must produce
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
						forgetCursors(scan)
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
						forgetCursors(scan)
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
// stream, and verifies at several points that the index, while it is
// held, still satisfies its invariants against the live load vector —
// i.e. every increment in every routing path went through bump. The
// pinned schemes hold it throughout; D-C releases it whenever a solve
// takes d below n (TestDChoicesReleasesFloorIndex). The schemes that
// increment loads directly (RR, PKG) must never build one.
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
			if g.indexed && i%(64*16) == 0 {
				checkIndex(t, &g.idx)
			}
		}
		switch {
		case g.indexed:
			checkIndex(t, &g.idx)
			if !indexed {
				t.Fatalf("%s: unexpectedly built a load index", algo)
			}
		case indexed && algo != "D-C":
			t.Fatalf("%s: released its load index", algo)
		}
	}
}

// forgetCursors resets every level cursor of a scheme that routes
// candidate lists — D-C, pinned or not — so that the next message of
// each head key takes a full pass, and reports whether p is one.
func forgetCursors(p Partitioner) bool {
	q, ok := p.(*DChoices)
	if ok {
		clear(q.cache.curs)
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

// TestDChoicesReleasesFloorIndex drives a D-C whose solved d crosses n
// in both directions — a stream dominated by one key, then a flat one,
// then the hot key again — and checks that it routes as plain
// Algorithm 1 throughout, holds no floor index whenever d < n, and holds
// a valid one whenever its head messages argmin over all n workers.
func TestDChoicesReleasesFloorIndex(t *testing.T) {
	const n = 10
	c := Config{Workers: n, Seed: 3, SolveEvery: 64}
	var keys []string
	rng := uint64(5)
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(m))
	}
	for i := 0; i < 4000; i++ { // hot: d ≥ n
		if next(20) == 0 {
			keys = append(keys, fmt.Sprintf("cold-%d", next(50)))
		} else {
			keys = append(keys, "hot")
		}
	}
	for i := 0; i < 30000; i++ { // flat: d < n
		keys = append(keys, fmt.Sprintf("flat-%d", next(200)))
	}
	for i := 0; i < 400000; i++ { // hot again: d ≥ n
		keys = append(keys, "hot")
	}
	p, ref := NewDChoices(c), newRef("D-C", c)
	digs := make([]KeyDigest, 64)
	dst := make([]int, 64)
	var crossings []bool // d ≥ n, at each change
	for i := 0; i < len(keys); i += 64 {
		chunk := keys[i:min(i+64, len(keys))]
		p.RouteBatchDigests(chunk, digs, dst)
		for j, k := range chunk {
			if want := ref.route(k); dst[j] != want {
				t.Fatalf("message %d (%q): routed to %d, reference %d", i+j, k, dst[j], want)
			}
		}
		all := p.d >= p.n
		if len(crossings) == 0 || crossings[len(crossings)-1] != all {
			crossings = append(crossings, all)
		}
		switch {
		case !all && p.indexed:
			t.Fatalf("after message %d: d = %d < n and the floor index is still held", i+len(chunk), p.d)
		case p.indexed:
			checkIndex(t, &p.idx)
		}
	}
	if len(crossings) < 3 || !crossings[0] {
		t.Fatalf("d ≥ n at each change of side: %v; want true, false, …, true", crossings)
	}
	if !crossings[len(crossings)-1] || !p.indexed {
		t.Fatalf("the stream ended with d = %d (indexed %v); want d ≥ n on a rebuilt index", p.d, p.indexed)
	}
}
