package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"slb/internal/workload"
)

func TestBHBasics(t *testing.T) {
	// One key, one choice: exactly one worker expected.
	if got := BH(10, 1, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("BH(10,1,1) = %f, want 1", got)
	}
	// Zero placements cover zero workers.
	if got := BH(10, 0, 5); got != 0 {
		t.Fatalf("BH(10,0,5) = %f, want 0", got)
	}
	// Many placements approach n.
	if got := BH(10, 100, 10); got < 9.99 {
		t.Fatalf("BH(10,100,10) = %f, want ≈10", got)
	}
}

func TestBHMonotonicity(t *testing.T) {
	prop := func(nRaw, hRaw, dRaw uint8) bool {
		n := int(nRaw%100) + 2
		h := int(hRaw%20) + 1
		d := int(dRaw%20) + 1
		b := BH(n, h, d)
		// Bounded by both n and the number of placements.
		if b < 0 || b > float64(n)+1e-9 || b > float64(h*d)+1e-9 {
			return false
		}
		// Monotone in h and in d.
		return BH(n, h+1, d) >= b && BH(n, h, d+1) >= b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBHMatchesMonteCarlo(t *testing.T) {
	// Empirically place h·d balls into n bins and compare occupancy.
	n, h, d := 20, 3, 4
	rng := workload.NewRNG(42)
	trials := 20000
	sum := 0.0
	for tr := 0; tr < trials; tr++ {
		var occupied [20]bool
		cnt := 0
		for i := 0; i < h*d; i++ {
			b := int(rng.Uint64() % uint64(n))
			if !occupied[b] {
				occupied[b] = true
				cnt++
			}
		}
		sum += float64(cnt)
	}
	got := sum / float64(trials)
	want := BH(n, h, d)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("Monte Carlo %f vs analytic %f", got, want)
	}
}

func TestSplitHead(t *testing.T) {
	probs := []float64{0.5, 0.2, 0.1, 0.1, 0.05, 0.05}
	head, tail := SplitHead(probs, 0.1)
	if len(head) != 4 {
		t.Fatalf("head size %d, want 4", len(head))
	}
	if math.Abs(tail-0.1) > 1e-12 {
		t.Fatalf("tail mass %f, want 0.1", tail)
	}
	head, tail = SplitHead(probs, 0.6)
	if len(head) != 0 || math.Abs(tail-1) > 1e-12 {
		t.Fatalf("empty head expected, got %d, tail %f", len(head), tail)
	}
}

func TestHeadCardinalityAgainstFig3Shape(t *testing.T) {
	// Fig 3: for Zipf |K|=1e4, θ=2/n with n=50 → θ=0.04: at low skew no key
	// passes; at z=2.0 only a handful do. For θ=1/(5n) (0.004) the head
	// peaks at moderate skew and shrinks again at extreme skew.
	k := 10000
	thetaTight := 2.0 / 50
	thetaLoose := 1.0 / (5 * 50)
	cardTight := map[float64]int{}
	cardLoose := map[float64]int{}
	for _, z := range []float64{0.4, 1.0, 1.4, 2.0} {
		p := workload.ZipfProbs(z, k)
		cardTight[z] = HeadCardinality(p, thetaTight)
		cardLoose[z] = HeadCardinality(p, thetaLoose)
	}
	if cardTight[0.4] != 0 {
		t.Errorf("θ=2/n z=0.4: head %d, want 0", cardTight[0.4])
	}
	if cardTight[2.0] == 0 || cardTight[2.0] > 10 {
		t.Errorf("θ=2/n z=2.0: head %d, want small positive", cardTight[2.0])
	}
	if cardLoose[1.4] <= cardLoose[0.4] {
		t.Errorf("θ=1/5n: head should grow from z=0.4 (%d) to z=1.4 (%d)",
			cardLoose[0.4], cardLoose[1.4])
	}
	if cardLoose[2.0] >= cardLoose[1.4] {
		t.Errorf("θ=1/5n: head should shrink from z=1.4 (%d) to z=2.0 (%d)",
			cardLoose[1.4], cardLoose[2.0])
	}
}

func TestSolveDEmptyHead(t *testing.T) {
	if d := SolveD(nil, 1.0, 50, 1e-4); d != 2 {
		t.Fatalf("SolveD(empty head) = %d, want 2", d)
	}
}

func TestSolveDRespectsLowerBound(t *testing.T) {
	// p1 = 0.6, n = 10: need at least d = 6.
	p := workload.ZipfProbs(2.0, 10000)
	head, tail := SplitHead(p, 1.0/(5*10))
	d := SolveD(head, tail, 10, 1e-4)
	if d < 6 {
		t.Fatalf("SolveD = %d, below ⌈p1·n⌉ = 6 (p1=%f)", d, p[0])
	}
	if d > 10 {
		t.Fatalf("SolveD = %d exceeds n", d)
	}
}

func TestSolveDFeasibleAtSolutionInfeasibleBelow(t *testing.T) {
	for _, z := range []float64{1.2, 1.6, 2.0} {
		p := workload.ZipfProbs(z, 10000)
		n := 50
		head, tail := SplitHead(p, 1.0/(5*float64(n)))
		d := SolveD(head, tail, n, 1e-4)
		if d >= n {
			continue // switched to W-C; nothing to check
		}
		if !referenceFeasibleD(head, tail, n, d, 1e-4) {
			t.Errorf("z=%.1f: returned d=%d infeasible", z, d)
		}
		lower := int(math.Ceil(head[0] * float64(n)))
		if d > lower && d > 2 && referenceFeasibleD(head, tail, n, d-1, 1e-4) {
			t.Errorf("z=%.1f: d=%d not minimal, d−1 feasible", z, d)
		}
	}
}

func TestSolveDMonotoneInEps(t *testing.T) {
	p := workload.ZipfProbs(1.8, 10000)
	head, tail := SplitHead(p, 1.0/250)
	n := 50
	prev := n + 1
	// Looser tolerance can only need fewer (or equal) choices.
	for _, eps := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		d := SolveD(head, tail, n, eps)
		if d > prev {
			t.Fatalf("SolveD not non-increasing in eps: eps=%g gives %d > %d", eps, d, prev)
		}
		prev = d
	}
}

func TestSolveDFig4Shape(t *testing.T) {
	// Fig 4: at n=100 the fraction d/n stays below 1 across all skews, and
	// d grows with skew in the high-skew regime.
	n := 100
	p14 := workload.ZipfProbs(1.4, 10000)
	p20 := workload.ZipfProbs(2.0, 10000)
	h14, t14 := SplitHead(p14, 1.0/(5*float64(n)))
	h20, t20 := SplitHead(p20, 1.0/(5*float64(n)))
	d14 := SolveD(h14, t14, n, 1e-4)
	d20 := SolveD(h20, t20, n, 1e-4)
	if d20 < d14 {
		t.Errorf("d should grow with extreme skew: d(1.4)=%d d(2.0)=%d", d14, d20)
	}
	if d14 >= n {
		t.Errorf("n=100 z=1.4: D-C should not need all workers (d=%d)", d14)
	}
}

func TestFeasibleDTrivial(t *testing.T) {
	if !solverFeasible(nil, 1, 10, 2, 0, 0) {
		t.Fatal("empty head must always be feasible")
	}
}

func TestBHPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BH(0,...) did not panic")
		}
	}()
	BH(0, 1, 1)
}

// referenceFeasibleD and referenceSolveD are FINDOPTIMALCHOICES as it
// stood before the memoised Solver: every b_h and (b_h/n)^d recomputed
// by math.Pow on every call. The Solver must agree with them exactly —
// same d for every input — because routing decisions depend on d.
func referenceFeasibleD(headProbs []float64, tailMass float64, n, d int, eps float64) bool {
	if len(headProbs) == 0 {
		return true
	}
	nf := float64(n)
	headMass := 0.0
	for _, p := range headProbs {
		headMass += p
	}
	prefix := 0.0
	for h := 1; h <= len(headProbs); h++ {
		prefix += headProbs[h-1]
		bh := BH(n, h, d)
		ratio := bh / nf
		lhs := prefix + math.Pow(ratio, float64(d))*(headMass-prefix) + ratio*ratio*tailMass
		rhs := bh * (1/nf + eps)
		if lhs > rhs {
			return false
		}
	}
	return true
}

func referenceSolveD(headProbs []float64, tailMass float64, n int, eps float64) int {
	if len(headProbs) == 0 {
		return 2
	}
	d := int(math.Ceil(headProbs[0] * float64(n)))
	if d < 2 {
		d = 2
	}
	for ; d < n; d++ {
		if referenceFeasibleD(headProbs, tailMass, n, d, eps) {
			return d
		}
	}
	return n
}

// solverHead draws a head of the given size and shape, in the form the
// sketch produces one: integer counts over a stream length, so equal
// counts are exactly equal frequencies (plateaus) and the vector is
// non-increasing. scale nudges the hottest key, which moves ⌈p1·n⌉ and
// with it the solved d.
func solverHead(shape string, size int, scale float64, rng *workload.RNG) (head []float64, tail float64) {
	counts := make([]uint64, size)
	for i := range counts {
		switch shape {
		case "flat":
			counts[i] = 40
		case "zipf":
			counts[i] = uint64(4 + 200000/math.Pow(float64(i+1), 1.1))
		case "plateau": // long runs of equal counts, as SpaceSaving's low buckets hold
			counts[i] = uint64(8 + 3000/(1+i/97))
		}
	}
	if size > 0 {
		counts[0] = uint64(float64(counts[0]) * scale)
		if size > 1 && counts[0] < counts[1] {
			counts[0] = counts[1]
		}
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	stream := total + total/3 + rng.Uint64()%1000 // the tail's share
	mass := 0.0
	head = make([]float64, size)
	for i, c := range counts {
		head[i] = float64(c) / float64(stream)
		mass += head[i]
	}
	return head, 1 - mass
}

// TestSolverMatchesReference drives ONE Solver per (n, ε) through a
// sequence of heads that grow, shrink, change shape and wobble the
// solved d by a few — the life of a D-Choices partitioner's solver — and
// requires the reference's d on every call: a table kept from an earlier
// solve, extended, evicted or reclaimed must never change an answer.
func TestSolverMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 37, 600, 5000, 4993, 5000, 2816, 111, 3, 5000, 1200, 0, 2816}
	if testing.Short() {
		sizes = []int{0, 1, 37, 600, 2816, 2810, 111, 2816}
	}
	shapes := []string{"zipf", "plateau", "flat"}
	wobble := []float64{1, 1.004, 0.996, 1.008, 1, 0.992}
	for _, n := range []int{8, 64, 4096, 16384} {
		for _, eps := range []float64{1e-4, 1e-3, 1e-2} {
			var s Solver
			rng := workload.NewRNG(uint64(n) + 17)
			for step, size := range sizes {
				for _, shape := range shapes {
					for _, scale := range wobble {
						head, tail := solverHead(shape, size, scale, rng)
						want := referenceSolveD(head, tail, n, eps)
						if got := s.SolveD(head, tail, n, eps); got != want {
							t.Fatalf("n=%d eps=%g step %d (%s, |H|=%d, scale %.3f): Solver d=%d, reference d=%d",
								n, eps, step, shape, size, scale, got, want)
						}
						if got := SolveD(head, tail, n, eps); got != want {
							t.Fatalf("n=%d eps=%g step %d (%s, |H|=%d): SolveD d=%d, reference d=%d",
								n, eps, step, shape, size, got, want)
						}
					}
				}
			}
		}
	}
}

// solverFeasible is the Solver's per-d predicate on a fresh Solver:
// whether d choices satisfy Proposition 4.1's first maxPrefix prefix
// constraints.
func solverFeasible(headProbs []float64, tailMass float64, n, d int, eps float64, maxPrefix int) bool {
	var s Solver
	s.reset(n)
	return s.feasible(headProbs, sum(headProbs), tailMass, d, eps, clampPrefix(maxPrefix, len(headProbs)))
}

// TestSolverFeasibleMatchesReference pins the per-d predicate too, on
// the d around the solution where one differing bit would flip it.
func TestSolverFeasibleMatchesReference(t *testing.T) {
	rng := workload.NewRNG(5)
	for _, n := range []int{64, 4096} {
		for _, shape := range []string{"zipf", "plateau"} {
			head, tail := solverHead(shape, 900, 1, rng)
			d0 := referenceSolveD(head, tail, n, 1e-4)
			for d := d0 - 3; d <= d0+3; d++ {
				if d < 1 {
					continue
				}
				want := referenceFeasibleD(head, tail, n, d, 1e-4)
				if got := solverFeasible(head, tail, n, d, 1e-4, len(head)); got != want {
					t.Fatalf("n=%d %s d=%d: Solver feasible=%v, reference=%v", n, shape, d, got, want)
				}
			}
		}
	}
}

// TestSolverSteadyStateDoesNotAllocate: once its tables cover the head,
// a repeat solve allocates nothing, d wobble included.
func TestSolverSteadyStateDoesNotAllocate(t *testing.T) {
	rng := workload.NewRNG(9)
	var heads [][]float64
	var tails []float64
	for _, scale := range []float64{1, 1.004, 0.996, 1.008} {
		h, tl := solverHead("zipf", 2816, scale, rng)
		heads, tails = append(heads, h), append(tails, tl)
	}
	var s Solver
	for i := range heads {
		s.SolveD(heads[i], tails[i], 4096, 1e-4)
	}
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		s.SolveD(heads[i%len(heads)], tails[i%len(heads)], 4096, 1e-4)
		i++
	}); avg != 0 {
		t.Fatalf("warm Solver.SolveD allocates %.2f allocs/solve, want 0", avg)
	}
}
