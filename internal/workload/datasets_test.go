package workload

import (
	"math"
	"testing"
)

func TestDatasetDims(t *testing.T) {
	for _, tc := range []struct {
		scale Scale
		divM  int64
		divK  int
	}{
		{Quick, 100, 100},
		{Default, 10, 10},
		{Full, 1, 1},
	} {
		m, k := datasetDims(tc.scale, 1000, 500)
		if m != 1000/tc.divM || k != 500/tc.divK {
			t.Errorf("scale %v: dims (%d, %d)", tc.scale, m, k)
		}
	}
}

func TestDatasetLengthsScale(t *testing.T) {
	q := WikipediaLike(Quick, 1)
	d := WikipediaLike(Default, 1)
	if q.Len() >= d.Len() {
		t.Fatalf("quick (%d) not smaller than default (%d)", q.Len(), d.Len())
	}
}

func TestDriftOverallP1Monotone(t *testing.T) {
	// Overall p1 of the rotated mixture grows with z.
	prev := 0.0
	for _, z := range []float64{0.5, 1.0, 1.5, 2.0, 3.0} {
		got := driftOverallP1(z, 290, CashtagEpochs, 290/CashtagEpochs)
		if got < prev {
			t.Fatalf("driftOverallP1 not monotone at z=%f: %f < %f", z, got, prev)
		}
		prev = got
	}
	// At z=0 the mixture is uniform: overall p1 = 1/keys.
	if got := driftOverallP1(0, 100, 4, 25); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("uniform drift p1 = %f, want 0.01", got)
	}
}

func TestCalibrateDriftZHitsTarget(t *testing.T) {
	keys, epochs, stride := 290, 8, 36
	z := calibrateDriftZ(0.0329, keys, epochs, stride)
	got := driftOverallP1(z, keys, epochs, stride)
	if math.Abs(got-0.0329)/0.0329 > 0.02 {
		t.Fatalf("calibrated overall p1 = %f, want ≈0.0329", got)
	}
}

func TestCashtagEpochStructure(t *testing.T) {
	gen := CashtagLike(Quick, 2)
	d, ok := gen.(*Drift)
	if !ok {
		t.Fatal("CashtagLike is not a Drift generator")
	}
	if epochs(d) != CashtagEpochs {
		t.Fatalf("epochs = %d, want %d", epochs(d), CashtagEpochs)
	}
}

func TestTwitterLikeQuickStats(t *testing.T) {
	gen := TwitterLike(Quick, 1)
	if gen.Len() != 1_200_000 {
		t.Fatalf("TW quick length = %d", gen.Len())
	}
}
