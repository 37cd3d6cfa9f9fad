package core

import (
	"fmt"
	"testing"

	"slb/internal/workload"
)

// checkTree verifies every structural invariant of a load tree: each
// internal node holds the winner of its children, and the root equals
// the linear first-lowest-wins argmin over the loads.
func checkTree(t *testing.T, lt *loadTree) {
	t.Helper()
	n := lt.n
	for k := n - 1; k >= 1; k-- {
		if got, want := lt.node[k], lt.winner(lt.node[2*k], lt.node[2*k+1]); got != want {
			t.Fatalf("node[%d] = %d, want winner(node[%d], node[%d]) = %d", k, got, 2*k, 2*k+1, want)
		}
	}
	best := 0
	for i := 1; i < n; i++ {
		if lt.loads[i] < lt.loads[best] {
			best = i
		}
	}
	if lt.min() != best {
		t.Fatalf("min() = %d (load %d), scan argmin = %d (load %d)", lt.min(), lt.loads[lt.min()], best, lt.loads[best])
	}
}

// TestLoadTreeInvariants drives trees of assorted (non-power-of-two)
// sizes through random increments, checking every invariant after every
// fix — the per-increment structural guarantee the routing parity
// builds on.
func TestLoadTreeInvariants(t *testing.T) {
	rng := uint64(0x1234_5678)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for _, n := range []int{1, 2, 3, 5, 8, 37, 130, 1000} {
		loads := make([]int64, n)
		lt := newLoadTree(loads)
		checkTree(t, lt)
		for step := 0; step < 2000; step++ {
			w := next(n)
			loads[w]++
			lt.fix(w)
			checkTree(t, lt)
		}
	}
}

// TestLoadTreeTieBreak pins the lower-index-wins tie-break directly:
// with all-equal loads the root must always be the lowest unloaded
// index, exactly as the packed scan resolves ties.
func TestLoadTreeTieBreak(t *testing.T) {
	const n = 11
	loads := make([]int64, n)
	lt := newLoadTree(loads)
	// Repeatedly take the min and bump it: the sequence must be
	// 0,1,...,n-1, 0,1,... — first-lowest-wins round after round.
	for round := 0; round < 3; round++ {
		for want := 0; want < n; want++ {
			if got := lt.min(); got != want {
				t.Fatalf("round %d: min() = %d, want %d", round, got, want)
			}
			loads[lt.min()]++
			lt.fix(lt.min())
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
		g1 := greedy{n: n, loads: append([]int64{}, loads...), lidx: LoadIndexScan}
		g2 := greedy{n: n, loads: append([]int64{}, loads...), lidx: LoadIndexTree}
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

// scanTreePartitioners builds the same algorithm twice: once forced
// onto the packed scans, once forced onto the tournament tree (and the
// candidate subset tournament).
func scanTreePartitioners(t *testing.T, algo string, n int) (scan, tree Partitioner) {
	t.Helper()
	mk := func(lidx int) Partitioner {
		c := Config{Workers: n, Seed: 42, LoadIndex: lidx}
		if algo == "Greedy-7" {
			return NewForcedD(c, 7)
		}
		if algo == "Oracle" {
			return NewOracle(c, func(k string) bool { return len(k) < 5 })
		}
		p, err := New(algo, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk(LoadIndexScan), mk(LoadIndexTree)
}

// TestScanTreeRoutingParity is the satellite regression suite: for
// every algorithm (including the experimental ForcedD and Oracle),
// across worker counts spanning both sides of the crossover and a skew
// sweep, the scan-based and tree-based configurations must produce
// identical worker sequences — message for message — through BOTH the
// per-message and the batched API (slabs of a deliberately odd size, so
// runs split across slab boundaries).
func TestScanTreeRoutingParity(t *testing.T) {
	algos := append(append([]string{}, Names...), "Greedy-7", "Oracle")
	for _, n := range []int{8, 200, 5000} {
		for _, z := range []float64{0.6, 1.4, 2.0} {
			m := int64(8000)
			if n == 5000 {
				m = 20000 // enough traffic for head keys to emerge at scale
			}
			gen := workload.NewZipf(z, 2000, m, 7)
			keys := make([]string, m)
			keys = keys[:gen.NextBatch(keys)]
			for _, algo := range algos {
				t.Run(fmt.Sprintf("%s/n=%d/z=%.1f", algo, n, z), func(t *testing.T) {
					scan, tree := scanTreePartitioners(t, algo, n)
					// First half per message, second half batched.
					half := len(keys) / 2
					for i, k := range keys[:half] {
						ws, wt := scan.Route(k), tree.Route(k)
						if ws != wt {
							t.Fatalf("msg %d (key %q): scan → %d, tree → %d", i, k, ws, wt)
						}
					}
					const slab = 97
					dstS := make([]int, slab)
					dstT := make([]int, slab)
					for i := half; i < len(keys); i += slab {
						end := i + slab
						if end > len(keys) {
							end = len(keys)
						}
						scan.RouteBatch(keys[i:end], dstS)
						tree.RouteBatch(keys[i:end], dstT)
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

// TestAutoCrossoverMatchesForcedModes pins that LoadIndexAuto routes
// identically to both forced modes on either side of the crossover (it
// is one of them, selected by n).
func TestAutoCrossoverMatchesForcedModes(t *testing.T) {
	for _, n := range []int{loadIndexCrossover / 2, loadIndexCrossover, loadIndexCrossover * 2} {
		gen := workload.NewZipf(1.6, 500, 4000, 3)
		auto := NewWChoices(Config{Workers: n, Seed: 42})
		scan := NewWChoices(Config{Workers: n, Seed: 42, LoadIndex: LoadIndexScan})
		tree := NewWChoices(Config{Workers: n, Seed: 42, LoadIndex: LoadIndexTree})
		if wantTree := n >= loadIndexCrossover; wantTree != (auto.tree != nil) {
			t.Fatalf("n=%d: auto tree presence = %v, want %v", n, auto.tree != nil, wantTree)
		}
		for one := make([]string, 1); gen.NextBatch(one) == 1; {
			k := one[0]
			wa, ws, wt := auto.Route(k), scan.Route(k), tree.Route(k)
			if wa != ws || wa != wt {
				t.Fatalf("n=%d key %q: auto %d scan %d tree %d", n, k, wa, ws, wt)
			}
		}
	}
}

// TestWorkerCapLifted verifies the former hard 65536-worker cap is
// gone: the tree path constructs and routes far above it, while a
// FORCED packed scan — which cannot encode that many workers — still
// panics loudly.
func TestWorkerCapLifted(t *testing.T) {
	const big = 1 << 17
	// Theta is set explicitly so the derived sketch stays small; the
	// default 1/(5n) would ask for a multi-million-entry sketch.
	cfg := Config{Workers: big, Seed: 1, Theta: 1e-4}
	p := NewWChoices(cfg)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		w := p.Route(fmt.Sprintf("key%d", i%37))
		if w < 0 || w >= big {
			t.Fatalf("worker %d out of range", w)
		}
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Fatalf("routing at n=%d stuck on %d worker(s)", big, len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("forced LoadIndexScan above the packing limit did not panic")
		}
	}()
	cfg.LoadIndex = LoadIndexScan
	NewWChoices(cfg)
}

// TestGreedyTreeStaysInSync routes a skewed stream through W-Choices
// and D-Choices with the tree attached and verifies, at several points,
// that the tree still satisfies its invariants against the live load
// vector — i.e. every increment in every routing path went through the
// index.
func TestGreedyTreeStaysInSync(t *testing.T) {
	gen := workload.NewZipf(1.8, 300, 12000, 11)
	keys := make([]string, 0, 12000)
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		keys = append(keys, k)
	}
	for _, algo := range []string{"W-C", "D-C", "RR", "PKG"} {
		p, err := New(algo, Config{Workers: 150, Seed: 5, LoadIndex: LoadIndexTree})
		if err != nil {
			t.Fatal(err)
		}
		var g *greedy
		switch q := p.(type) {
		case *WChoices:
			g = &q.greedy
		case *DChoices:
			g = &q.greedy
		case *RoundRobin:
			g = &q.greedy
		case *PKG:
			g = &q.greedy
		}
		dst := make([]int, 64)
		for i := 0; i < len(keys); i += 64 {
			end := i + 64
			if end > len(keys) {
				end = len(keys)
			}
			p.RouteBatch(keys[i:end], dst)
			if g.tree != nil && i%(64*16) == 0 {
				checkTree(t, g.tree)
			}
		}
		switch algo {
		case "W-C", "D-C":
			if g.tree == nil {
				t.Fatalf("%s: LoadIndexTree did not attach a tree", algo)
			}
			checkTree(t, g.tree)
		case "RR", "PKG":
			// Schemes that never argmin over the whole vector must not
			// pay for an index even when the tree is forced.
			if g.tree != nil {
				t.Fatalf("%s: unexpectedly carries a load index", algo)
			}
		}
	}
}
