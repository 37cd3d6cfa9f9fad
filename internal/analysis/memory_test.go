package analysis

import (
	"math"
	"testing"

	"slb/internal/workload"
)

func TestExpectedDistinct(t *testing.T) {
	if got := ExpectedDistinct(10, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ExpectedDistinct(10,1) = %f", got)
	}
	if got := ExpectedDistinct(10, 1000); got < 9.999 {
		t.Fatalf("ExpectedDistinct(10,1000) = %f, want ≈10", got)
	}
	if ExpectedDistinct(10, 3) >= 3.0+1e-9 {
		t.Fatal("ExpectedDistinct must be below d due to collisions")
	}
}

func TestMemoryModelOrdering(t *testing.T) {
	// For any skew: memPKG ≤ memDC ≤ memWC ≤ memSG.
	m := 1e7
	n := 50
	theta := 1.0 / (5 * float64(n))
	for _, z := range []float64{0.4, 1.0, 1.6, 2.0} {
		p := workload.ZipfProbs(z, 10000)
		head, tail := SplitHead(p, theta)
		d := SolveD(head, tail, n, 1e-4)
		pkg := MemPKG(p, m)
		dc := MemDC(p, m, n, d, theta)
		wc := MemWC(p, m, n, theta)
		sg := MemSG(p, m, n)
		if !(pkg <= dc+1e-9 && dc <= wc+1e-9 && wc <= sg+1e-9) {
			t.Errorf("z=%.1f ordering violated: pkg=%.0f dc=%.0f wc=%.0f sg=%.0f",
				z, pkg, dc, wc, sg)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	// Fig 5: D-C and W-C cost at most ~30% more than PKG, and W-C ≥ D-C.
	m := 1e7
	for _, n := range []int{50, 100} {
		theta := 1.0 / (5 * float64(n))
		for _, z := range []float64{0.8, 1.2, 1.6, 2.0} {
			p := workload.ZipfProbs(z, 10000)
			head, tail := SplitHead(p, theta)
			d := SolveD(head, tail, n, 1e-4)
			pkg := MemPKG(p, m)
			over := OverheadPct(MemWC(p, m, n, theta), pkg)
			if over > 40 {
				t.Errorf("n=%d z=%.1f: W-C overhead vs PKG %.1f%%, paper says ≤~30%%", n, z, over)
			}
			if OverheadPct(MemDC(p, m, n, d, theta), pkg) > over+1e-9 {
				t.Errorf("n=%d z=%.1f: D-C overhead exceeds W-C", n, z)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	// Fig 6: versus SG, both D-C and W-C save at least ~70-80% at n∈{50,100}
	// for moderate-to-high skew.
	m := 1e7
	for _, n := range []int{50, 100} {
		theta := 1.0 / (5 * float64(n))
		for _, z := range []float64{0.8, 1.2, 1.6, 2.0} {
			p := workload.ZipfProbs(z, 10000)
			head, tail := SplitHead(p, theta)
			d := SolveD(head, tail, n, 1e-4)
			sg := MemSG(p, m, n)
			for name, mem := range map[string]float64{
				"D-C": MemDC(p, m, n, d, theta),
				"W-C": MemWC(p, m, n, theta),
			} {
				over := OverheadPct(mem, sg)
				if over > -60 {
					t.Errorf("n=%d z=%.1f: %s vs SG = %.1f%%, want strong savings", n, z, name, over)
				}
			}
		}
	}
}

func TestOverheadPct(t *testing.T) {
	if got := OverheadPct(130, 100); math.Abs(got-30) > 1e-12 {
		t.Fatalf("OverheadPct(130,100) = %f", got)
	}
	if got := OverheadPct(20, 100); math.Abs(got+80) > 1e-12 {
		t.Fatalf("OverheadPct(20,100) = %f", got)
	}
	if OverheadPct(1, 0) != 0 {
		t.Fatal("zero baseline should return 0")
	}
}

func TestMemSingleOccurrenceKeys(t *testing.T) {
	// Keys that appear once cost one replica under every scheme.
	p := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	m := 3.0
	if MemPKG(p, m) != 3 || MemSG(p, m, 10) != 3 {
		t.Fatal("singleton keys should cost exactly 1 replica each")
	}
}
