package analysis

import (
	"testing"

	"slb/internal/workload"
)

func TestSolveDPrefixNeverExceedsFull(t *testing.T) {
	// Fewer constraints ⇒ d can only shrink or stay equal.
	for _, z := range []float64{1.0, 1.4, 1.8, 2.0} {
		for _, n := range []int{10, 50, 100} {
			p := workload.ZipfProbs(z, 10000)
			head, tail := SplitHead(p, 1.0/(5*float64(n)))
			full := SolveD(head, tail, n, 1e-4)
			first := SolveDPrefix(head, tail, n, 1e-4, 1)
			if first > full {
				t.Errorf("z=%.1f n=%d: prefix-1 d=%d exceeds full d=%d", z, n, first, full)
			}
			all := SolveDPrefix(head, tail, n, 1e-4, len(head))
			if all != full {
				t.Errorf("z=%.1f n=%d: maxPrefix=|H| (%d) differs from SolveD (%d)", z, n, all, full)
			}
		}
	}
}

func TestSolveDPrefixEdgeCases(t *testing.T) {
	if d := SolveDPrefix(nil, 1, 10, 1e-4, 1); d != 2 {
		t.Fatalf("empty head: d=%d", d)
	}
	// maxPrefix beyond |H| falls back to the full family.
	p := workload.ZipfProbs(2.0, 1000)
	head, tail := SplitHead(p, 0.01)
	if SolveDPrefix(head, tail, 50, 1e-4, 999) != SolveD(head, tail, 50, 1e-4) {
		t.Fatal("oversized maxPrefix diverges from SolveD")
	}
	// maxPrefix ≤ 0 means no constraints: the p1·n floor remains.
	if d := SolveDPrefix(head, tail, 50, 1e-4, 0); d < 2 {
		t.Fatalf("no-constraint solve returned %d", d)
	}
}

func TestSolveDPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	SolveDPrefix([]float64{0.5}, 0.5, 0, 1e-4, 1)
}

func TestFeasibleDPrefixSubsetOfFull(t *testing.T) {
	// If the full family is feasible, any prefix subset must be too.
	p := workload.ZipfProbs(1.6, 10000)
	head, tail := SplitHead(p, 1.0/250)
	n := 50
	d := SolveD(head, tail, n, 1e-4)
	if d < n {
		for maxPrefix := 1; maxPrefix <= len(head); maxPrefix++ {
			if !solverFeasible(head, tail, n, d, 1e-4, maxPrefix) {
				t.Fatalf("prefix %d infeasible at the full solution d=%d", maxPrefix, d)
			}
		}
	}
	if !solverFeasible(nil, 1, 10, 2, 0, 1) {
		t.Fatal("empty head must be feasible")
	}
}

func TestPKGImbalanceLowerBound(t *testing.T) {
	// Below the 2/n threshold the bound is vacuous.
	if got := PKGImbalanceLowerBound(0.01, 50); got != 0 {
		t.Fatalf("vacuous bound = %f", got)
	}
	// p1=0.6, n=50: 0.3 − 0.02 = 0.28.
	if got := PKGImbalanceLowerBound(0.6, 50); got < 0.279 || got > 0.281 {
		t.Fatalf("bound = %f, want 0.28", got)
	}
	// Monotone in p1 and in n.
	if PKGImbalanceLowerBound(0.5, 50) >= PKGImbalanceLowerBound(0.6, 50) {
		t.Fatal("bound not increasing in p1")
	}
	if PKGImbalanceLowerBound(0.6, 10) >= PKGImbalanceLowerBound(0.6, 100) {
		t.Fatal("bound not increasing in n")
	}
}
