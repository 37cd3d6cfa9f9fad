// Package analysis implements the paper's analytical machinery: the
// expected worker-set size b_h (Appendix A), the feasibility constraints
// of Proposition 4.1, the FINDOPTIMALCHOICES solver for the number of
// choices d used by D-Choices, the head-cardinality model (Fig. 3), and
// the memory-overhead models for PKG, SG, D-Choices and W-Choices
// (Figs. 5 and 6). Everything here is pure computation over a known key
// distribution; the online algorithms in internal/core call into this
// package with frequencies estimated by the SpaceSaving sketch.
package analysis

import "math"

// BH returns b_h = n − n·((n−1)/n)^(h·d): the expected number of distinct
// workers covered by the union of the choice sets of the h hottest head
// keys, each hashed with d independent uniform functions (Appendix A:
// balls-into-bins occupancy after h·d placements into n slots).
func BH(n, h, d int) float64 {
	if n <= 0 {
		panic("analysis: BH with non-positive n")
	}
	if h <= 0 || d <= 0 {
		return 0
	}
	nf := float64(n)
	return nf - nf*math.Pow((nf-1)/nf, float64(h*d))
}

// SolveD implements FINDOPTIMALCHOICES: the smallest d that satisfies all
// the prefix constraints of Proposition 4.1,
//
//	Σ_{i≤h} p_i + (b_h/n)^d Σ_{h<i≤|H|} p_i + (b_h/n)^2 Σ_{i>|H|} p_i
//	    ≤ b_h (1/n + ε)    for all h = 1..|H|,
//
// starting from the simple lower bound d = ⌈p1·n⌉ (we need p1 ≤ d/n)
// and never below 2. If no d < n is feasible the function returns n,
// signalling that the caller should switch to the W-Choices strategy.
//
// headProbs must be sorted in non-increasing order; tailMass is the
// total probability of keys outside the head. An empty head yields
// d = 2 (everything is tail, plain PKG). It is Solver.SolveD on a fresh
// Solver; callers that solve repeatedly keep one.
func SolveD(headProbs []float64, tailMass float64, n int, eps float64) int {
	var s Solver
	return s.SolveD(headProbs, tailMass, n, eps)
}

// SolveDPrefix is SolveD with the constraint family truncated to the
// first maxPrefix prefixes (h = 1..maxPrefix). The paper notes the tight
// constraints are h = 1 and h = |H|; the ablation harness uses this to
// quantify what checking only h = 1 would cost.
func SolveDPrefix(headProbs []float64, tailMass float64, n int, eps float64, maxPrefix int) int {
	var s Solver
	return s.solve(headProbs, tailMass, n, eps, maxPrefix)
}

// Solver is FINDOPTIMALCHOICES for a caller that solves again and again
// over a slowly moving head — D-Choices re-solves every SolveEvery
// messages. In Proposition 4.1's constraint, b_h and (b_h/n)^d are
// functions of (n, h, d) alone, and they are where the time goes: two
// math.Pow per head key, 2·|H| per solve, with |H| in the thousands at
// θ = 1/(5n), n = 4096 (2.3 ms per solve measured on a 2,816-key head).
// The Solver keeps those two vectors for the few d it last found worth
// evaluating in depth, extended lazily to the longest prefix evaluated,
// so a repeat solve is |H| multiply-adds. The vectors are filled by the
// same BH and math.Pow calls a direct evaluation makes, so every
// comparison sees the same bits and the solved d is identical; after
// warm-up a solve allocates nothing.
//
// The zero value is ready to use. A Solver is bound to one n at a time
// (a different n discards the tables) and is not safe for concurrent
// use. Its memory is at most solverTables × 16 B × the longest head
// evaluated.
type Solver struct {
	n    int
	tick uint64
	tabs [solverTables]dTable
}

// solverTables is how many d keep a table: the solved d wobbles by ±1–2
// between solves (the head is a fluctuating estimate), so four covers
// the values one partitioner alternates between. solverProbe is how many
// prefixes a d without a table is evaluated directly before it may claim
// one: the upward scan from ⌈p1·n⌉ rejects most d at h = 1–2 (measured,
// n = 64, z = 2.0: 24 d per solve, 37 prefixes in total), and those
// probes must neither evict the feasible d's table nor cost more than
// the direct evaluation they are.
const (
	solverTables = 4
	solverProbe  = 4
)

// dTable is the data-independent part of the constraints for one d:
// bh[h-1] = BH(n, h, d) and pd[h-1] = (bh[h-1]/n)^d.
type dTable struct {
	d    int
	used uint64
	bh   []float64
	pd   []float64
}

// extend fills the table up to prefix h.
func (t *dTable) extend(n, h int) {
	nf := float64(n)
	for k := len(t.bh) + 1; k <= h; k++ {
		bh := BH(n, k, t.d)
		t.bh = append(t.bh, bh)
		t.pd = append(t.pd, math.Pow(bh/nf, float64(t.d)))
	}
}

func (s *Solver) reset(n int) {
	if n <= 0 {
		panic("analysis: solver with non-positive n")
	}
	if s.n == n {
		return
	}
	s.n = n
	for i := range s.tabs {
		t := &s.tabs[i]
		t.d, t.used, t.bh, t.pd = 0, 0, t.bh[:0], t.pd[:0]
	}
}

// table returns the table for d, claiming the least recently used one
// when claim is set and none exists (nil otherwise).
func (s *Solver) table(d int, claim bool) *dTable {
	s.tick++
	lru := &s.tabs[0]
	for i := range s.tabs {
		t := &s.tabs[i]
		if t.d == d {
			t.used = s.tick
			return t
		}
		if t.used < lru.used {
			lru = t
		}
	}
	if !claim {
		return nil
	}
	lru.d, lru.used, lru.bh, lru.pd = d, s.tick, lru.bh[:0], lru.pd[:0]
	return lru
}

// SolveD is the package-level SolveD with this Solver's tables.
func (s *Solver) SolveD(headProbs []float64, tailMass float64, n int, eps float64) int {
	return s.solve(headProbs, tailMass, n, eps, len(headProbs))
}

func (s *Solver) solve(headProbs []float64, tailMass float64, n int, eps float64, maxPrefix int) int {
	s.reset(n)
	if len(headProbs) == 0 {
		return 2
	}
	headMass := sum(headProbs)
	upTo := clampPrefix(maxPrefix, len(headProbs))
	d := int(math.Ceil(headProbs[0] * float64(n)))
	if d < 2 {
		d = 2
	}
	for ; d < n; d++ {
		if s.feasible(headProbs, headMass, tailMass, d, eps, upTo) {
			return d
		}
	}
	return n
}

// feasible checks the first upTo prefix constraints for d. headMass is
// the sum of headProbs in slice order (hoisted: it does not depend on d).
func (s *Solver) feasible(headProbs []float64, headMass, tailMass float64, d int, eps float64, upTo int) bool {
	nf := float64(s.n)
	violated := func(prefix, bh, pd float64) bool {
		ratio := bh / nf
		lhs := prefix + pd*(headMass-prefix) + ratio*ratio*tailMass
		rhs := bh * (1/nf + eps)
		return lhs > rhs
	}
	prefix := 0.0
	h := 1
	t := s.table(d, false)
	if t == nil {
		for ; h <= upTo && h <= solverProbe; h++ {
			prefix += headProbs[h-1]
			bh := BH(s.n, h, d)
			if violated(prefix, bh, math.Pow(bh/nf, float64(d))) {
				return false
			}
		}
		if h > upTo {
			return true
		}
		t = s.table(d, true)
	}
	for ; h <= upTo; h++ {
		if h > len(t.bh) {
			t.extend(s.n, h)
		}
		prefix += headProbs[h-1]
		if violated(prefix, t.bh[h-1], t.pd[h-1]) {
			return false
		}
	}
	return true
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func clampPrefix(maxPrefix, heads int) int {
	if maxPrefix > heads {
		return heads
	}
	if maxPrefix < 0 {
		return 0
	}
	return maxPrefix
}

// SplitHead partitions a full probability vector (sorted non-increasing)
// at frequency threshold theta, returning the head probabilities and the
// tail mass. It is the analytic counterpart of the online heavy-hitter
// query H = {k : p_k ≥ θ}.
func SplitHead(probs []float64, theta float64) (head []float64, tailMass float64) {
	cut := 0
	for cut < len(probs) && probs[cut] >= theta {
		cut++
	}
	head = probs[:cut]
	for _, p := range probs[cut:] {
		tailMass += p
	}
	return head, tailMass
}

// HeadCardinality returns |H| for a distribution and threshold (Fig. 3).
func HeadCardinality(probs []float64, theta float64) int {
	head, _ := SplitHead(probs, theta)
	return len(head)
}

// PKGImbalanceLowerBound is the first bound from the PKG analysis the
// paper builds on: if p1 > 2/n, the expected imbalance of two choices is
// at least p1/2 − 1/n asymptotically (the hottest key's load exceeds
// what its two workers can average out). Below the threshold the bound
// is vacuous and 0 is returned. Experiments report it as the predicted
// floor for PKG's measured imbalance.
func PKGImbalanceLowerBound(p1 float64, n int) float64 {
	b := p1/2 - 1/float64(n)
	if b < 0 {
		return 0
	}
	return b
}
