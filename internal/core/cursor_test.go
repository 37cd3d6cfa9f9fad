package core

import (
	"fmt"
	"testing"

	"slb/internal/hashing"
)

// The level cursor's tests. TestCandTour* and TestCandTreeDifferential
// keep the names of the candidate-tournament tests they took over; each
// now pins the cursor on the ground its predecessor covered.

// scanFirstLowest is the plain Greedy-d argmin over a candidate list:
// the lowest load, first lowest winning.
func scanFirstLowest(loads []int64, cand []int32) int {
	best := int(cand[0])
	for _, w := range cand[1:] {
		if loads[w] < loads[best] {
			best = int(w)
		}
	}
	return best
}

// checkCursor verifies the cursor's two invariants (loadtree.go) on a
// list no longer than its span.
func checkCursor(t testing.TB, loads []int64, cand []int32, c *levelCursor) {
	t.Helper()
	if c.span == 0 {
		return
	}
	for i, w := range cand[:min(len(cand), int(c.span))] {
		if loads[w] < c.lvl {
			t.Fatalf("candidate %d (worker %d, load %d) below the cursor level %d", i, w, loads[w], c.lvl)
		}
		if i < int(c.cur) && loads[w] <= c.lvl {
			t.Fatalf("candidate %d (worker %d, load %d) before the cursor %d is not above level %d", i, w, loads[w], c.cur, c.lvl)
		}
	}
}

// shortRunStream builds a stream that chops two hot keys into many
// 1–2 message runs separated by cold-key traffic, after a long opening
// run per hot key: every run resumes a cursor the cold traffic between
// has moved loads under.
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

// headScheme builds algo ("D-C" or "Greedy-7") at n workers beside the
// plain Algorithm 1 reference for the same config.
func headScheme(algo string, n int) (Partitioner, *refScheme) {
	c := Config{Workers: n, Seed: 42}
	if algo == "Greedy-7" {
		ref := newRef("Greedy-d", c)
		ref.forcedD = 7
		return NewForcedD(c, 7), ref
	}
	return NewDChoices(c), newRef(algo, c)
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

// TestCandTourShortRunParity pins that resumed cursors route
// bit-identically to plain Algorithm 1 on a stream of deliberately
// short head runs, through the batched API with a slab size that splits
// runs across batch boundaries: Greedy-7 keeps a cursor per hot key
// (c = 7), so 1–2 message runs resume one constantly.
func TestCandTourShortRunParity(t *testing.T) {
	keys := shortRunStream(30000)
	for _, algo := range []string{"Greedy-7", "D-C"} {
		for _, n := range []int{16, 200} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				p, ref := headScheme(algo, n)
				routeMatchesRef(t, p, ref, keys, 61)
			})
		}
	}
}

// TestCandTourLogRollover puts thousands of foreign increments between
// the runs of one cached head key — far more than its candidates' loads
// move between two of its own messages — and checks routing stays
// bit-exact with plain Algorithm 1: a cursor's invariants only need
// loads not to fall, however much they rise.
func TestCandTourLogRollover(t *testing.T) {
	const target = 4 * 4096
	keys := make([]string, 0, target+4096+512)
	for len(keys) < target {
		for i := 0; i < 6; i++ {
			keys = append(keys, "hot-alpha")
		}
		for i := 0; i < 4096+257; i++ {
			keys = append(keys, fmt.Sprintf("cold-%d", i%911))
		}
	}
	p, ref := headScheme("Greedy-7", 32)
	routeMatchesRef(t, p, ref, keys, 128)
}

// TestCandTourRepair unit-tests the resume directly: route a run, bump
// candidates and non-candidates from outside, then route another run —
// it must match a scan replica of the same load history and continue
// from the cursor without a pass.
func TestCandTourRepair(t *testing.T) {
	const n = 64
	g, ref := newTestGreedy(n), newTestGreedy(n)
	cand := []int32{3, 17, 5, 40, 9, 22, 31}
	var c levelCursor

	dst := make([]int, 5)
	g.routeHead(&c, cand, dst)
	for m := range dst {
		want := scanFirstLowest(ref.loads, cand)
		ref.bump(want)
		if dst[m] != want {
			t.Fatalf("first run, message %d: got %d, want %d", m, dst[m], want)
		}
	}
	if g.nPasses != 1 {
		t.Fatalf("first run took %d passes, want 1", g.nPasses)
	}
	// Foreign-key traffic: bumps on candidates and non-candidates.
	for _, w := range []int{5, 5, 40, 2, 60, 9} {
		g.bump(w)
		ref.bump(w)
	}
	checkCursor(t, g.loads, cand, &c)
	short := make([]int, 2)
	g.routeHead(&c, cand, short)
	for m := range short {
		want := scanFirstLowest(ref.loads, cand)
		ref.bump(want)
		if short[m] != want {
			t.Fatalf("resumed run, message %d: got %d, want %d", m, short[m], want)
		}
	}
	if g.nPasses != 1 {
		t.Fatalf("the resumed run took a pass (%d in all): the cursor did not resume", g.nPasses)
	}
	for w := range g.loads {
		if g.loads[w] != ref.loads[w] {
			t.Fatalf("loads diverged at worker %d: %d vs %d", w, g.loads[w], ref.loads[w])
		}
	}
}

// TestCandTourRepairMatchesRebuild checks the cursor at the level of its
// state: after any mix of foreign increments (repeats and
// non-candidates included), messages routed and growth or shrinkage of
// the list along its prefix order, the kept cursor satisfies both
// invariants, decides what a fresh cursor decides, and a fresh cursor
// decides what the plain scan decides.
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
		g := newTestGreedy(n)
		loads := make([]int64, n)
		for i := range loads {
			loads[i] = int64(next(3))
		}
		setLoads(g, loads)
		var kept levelCursor
		c := 2 + next(n-2)
		for round := 0; round < 12; round++ {
			for k := next(3 * n); k > 0; k-- {
				if next(4) == 0 {
					g.bump(int(perm[next(c)])) // pile onto candidates: repeats
				} else {
					g.bump(next(n))
				}
			}
			c = min(max(c+next(9)-4, 1), n) // a wobbling d
			cand := perm[:c]
			if len(cand) <= int(kept.span) {
				checkCursor(t, g.loads, cand, &kept)
			}
			fresh := levelCursor{}
			gf := newTestGreedy(n)
			setLoads(gf, g.loads)
			want := scanFirstLowest(g.loads, cand)
			one, oneFresh := make([]int, 1), make([]int, 1)
			gf.routeHead(&fresh, cand, oneFresh)
			if oneFresh[0] != want {
				t.Fatalf("trial %d round %d: fresh cursor routed %d, scan %d", trial, round, oneFresh[0], want)
			}
			g.routeHead(&kept, cand, one)
			if one[0] != want {
				t.Fatalf("trial %d round %d (n=%d c=%d): kept cursor routed %d, fresh %d", trial, round, n, c, one[0], want)
			}
			checkCursor(t, g.loads, cand, &kept)
		}
	}
}

// cursorDifferential drives one candidate cache and its cursors through
// a random life — head runs of up to 128 keys (more than the cache has
// entries, so entries are evicted), foreign bumps on candidates and
// non-candidates, and solves whose d wobbles inside and jumps outside
// the entries' derivation windows (lists that grow and shrink along
// dedup prefixes, and re-derivations) and whose re-fits now and then
// re-lay the cache out — against a plain first-lowest scan over a twin
// load vector. Every routed worker must match.
func cursorDifferential(t testing.TB, seed uint64, steps int) {
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func(m int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(m))
	}
	n := 2 + next(300)
	f := hashing.NewFamily(n, seed)
	d := 2 + next(n-1)
	cc := newCandCache(n, d)
	g, ref := newTestGreedy(n), make([]int64, n)
	for w := range ref {
		ref[w] = int64(next(3))
	}
	setLoads(g, ref)
	keys := make([]KeyDigest, 8+next(120))
	for i := range keys {
		keys[i] = hashing.Digest(fmt.Sprintf("k%d-%d", seed, i))
	}
	heads, dst := len(keys), make([]int, 24)
	for step := 0; step < steps; step++ {
		switch r := next(16); {
		case r < 10: // a head run, at the d of the last solve
			dg := keys[next(len(keys))]
			cand, cur := cc.lookup(dg, d, f)
			run := dst[:1+next(len(dst))]
			g.routeHead(cur, cand, run)
			for m, w := range run {
				want := scanFirstLowest(ref, cand)
				ref[want]++
				if w != want {
					t.Fatalf("seed %d step %d (n=%d d=%d c=%d) message %d: cursor routed %d, scan %d",
						seed, step, n, d, len(cand), m, w, want)
				}
			}
		case r < 15: // foreign traffic
			for k := next(2 * n); k > 0; k-- {
				w := next(n)
				g.bump(w)
				ref[w]++
			}
		default: // a solve: d wobbles or jumps, and the cache is re-fitted
			if next(4) == 0 {
				d = 2 + next(n-1) // usually outside every entry's window
			} else {
				d = min(max(d+next(5)-2, 2), n)
			}
			if next(4) == 0 {
				heads = next(600)
			}
			cc.fit(heads, d)
		}
	}
	for w := range ref {
		if g.loads[w] != ref[w] {
			t.Fatalf("seed %d: loads diverged at worker %d: %d vs %d", seed, w, g.loads[w], ref[w])
		}
	}
}

// TestCandTreeDifferential is the cursor's randomized differential
// against the plain scan (see cursorDifferential).
func TestCandTreeDifferential(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		cursorDifferential(t, seed, 400)
	}
}

// FuzzCursorMatchesScan is cursorDifferential under the fuzzer.
func FuzzCursorMatchesScan(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42} {
		f.Add(seed, uint16(500))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		cursorDifferential(t, seed, 1+int(steps)%2000)
	})
}
