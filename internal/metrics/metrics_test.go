package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImbalance(t *testing.T) {
	for _, tc := range []struct {
		loads []int64
		want  float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{5, 5}, 0},
		{[]int64{10, 0}, 0.5},       // max 1.0, avg 0.5
		{[]int64{6, 2, 2, 2}, 0.25}, // max 0.5, avg 0.25
	} {
		if got := Imbalance(tc.loads); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Imbalance(%v) = %f, want %f", tc.loads, got, tc.want)
		}
	}
}

func TestImbalanceNonNegativeProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		loads := make([]int64, len(raw))
		for i, v := range raw {
			loads[i] = int64(v)
		}
		i := Imbalance(loads)
		return i >= 0 && i <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
