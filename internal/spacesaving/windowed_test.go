package spacesaving

import (
	"fmt"
	"testing"
	"testing/quick"

	"slb/internal/hashing"
)

// winOffer, winCount and winFreq drive the digest-keyed Windowed API by
// key, digesting as the head tracker does.
func winOffer(w *Windowed, key string) { w.OfferDigest(hashing.Digest(key), key) }

func winCount(w *Windowed, key string) (uint64, bool) {
	c, _, ok := w.CountDigest(hashing.Digest(key))
	return c, ok
}

func winFreq(w *Windowed, key string) float64 {
	c, _ := winCount(w, key)
	if w.N() == 0 {
		return 0
	}
	return float64(c) / float64(w.N())
}

func TestWindowedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindowed(.., 0) did not panic")
		}
	}()
	NewWindowed(4, 0)
}

func TestWindowedCountsWithinWindow(t *testing.T) {
	w := NewWindowed(10, 100)
	for i := 0; i < 30; i++ {
		winOffer(w, "a")
	}
	c, ok := winCount(w, "a")
	if !ok || c != 30 {
		t.Fatalf("Count(a) = (%d, %v), want 30", c, ok)
	}
	if w.N() != 30 {
		t.Fatalf("N = %d", w.N())
	}
	if f := winFreq(w, "a"); f != 1.0 {
		t.Fatalf("frequency = %f", f)
	}
}

func TestWindowedRotationForgets(t *testing.T) {
	w := NewWindowed(10, 50)
	// Fill two full generations with "old"; it then lives only in prev.
	for i := 0; i < 100; i++ {
		winOffer(w, "old")
	}
	// One more generation of "new" pushes "old" fully out.
	for i := 0; i < 100; i++ {
		winOffer(w, "new")
	}
	if _, ok := winCount(w, "old"); ok {
		t.Fatal("old key survived two rotations")
	}
	if c, _ := winCount(w, "new"); c == 0 {
		t.Fatal("new key lost")
	}
	// Covered mass stays bounded by 2×window.
	if w.N() > 100 {
		t.Fatalf("N = %d exceeds 2×window", w.N())
	}
}

func TestWindowedAdaptationBounded(t *testing.T) {
	// After drift, the new hot key must cross θ=0.5 within ~2 windows, no
	// matter how long the stream ran before — the property the plain
	// sketch lacks.
	w := NewWindowed(10, 100)
	for i := 0; i < 10000; i++ {
		winOffer(w, "era1")
	}
	detect := -1
	for i := 0; i < 300; i++ {
		winOffer(w, "era2")
		if winFreq(w, "era2") >= 0.5 && detect < 0 {
			detect = i + 1
		}
	}
	if detect < 0 || detect > 200 {
		t.Fatalf("era2 detected after %d messages, want ≤ 2 windows", detect)
	}

	// The plain sketch by contrast needs ≥ N·θ ≈ 5000 occurrences.
	s := New(10)
	for i := 0; i < 10000; i++ {
		offer(s, "era1")
	}
	for i := 0; i < 300; i++ {
		offer(s, "era2")
	}
	if c, _, _ := count(s, "era2"); float64(c) >= 0.5*float64(s.N()) {
		t.Fatal("plain sketch should NOT have adapted this fast; test premise broken")
	}
}

func TestWindowedHeavyHittersCombineGenerations(t *testing.T) {
	w := NewWindowed(10, 100)
	// 60 "a" in generation 1, then rotation, then 60 more in generation 2.
	for i := 0; i < 60; i++ {
		winOffer(w, "a")
	}
	for i := 0; i < 40; i++ {
		winOffer(w, fmt.Sprintf("t%d", i))
	}
	// Generation rotated at N=100. Now a second generation:
	for i := 0; i < 60; i++ {
		winOffer(w, "a")
	}
	hh := w.HeavyHitters(0.5)
	if len(hh) != 1 || hh[0].Key != "a" {
		t.Fatalf("HeavyHitters = %v", hh)
	}
	if hh[0].Count != 120 {
		t.Fatalf("combined count = %d, want 120", hh[0].Count)
	}
}

func TestWindowedEmpty(t *testing.T) {
	w := NewWindowed(4, 10)
	if w.N() != 0 || winFreq(w, "x") != 0 || len(w.HeavyHitters(0.1)) != 0 {
		t.Fatal("empty windowed sketch misbehaves")
	}
	if _, ok := winCount(w, "x"); ok {
		t.Fatal("Count on empty should be !ok")
	}
}

func TestWindowedHeavyHittersSorted(t *testing.T) {
	prop := func(raw []uint8) bool {
		w := NewWindowed(8, 32)
		for _, b := range raw {
			winOffer(w, fmt.Sprintf("w%d", b%16))
		}
		hh := w.HeavyHitters(0.01)
		for i := 1; i < len(hh); i++ {
			if hh[i].Count > hh[i-1].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedNeverUnderestimatesWithinGeneration(t *testing.T) {
	// Within a single generation (no rotation), the windowed sketch's
	// count upper-bound property matches the plain sketch's.
	prop := func(raw []uint8) bool {
		if len(raw) > 30 {
			raw = raw[:30] // stay under one 64-item window
		}
		w := NewWindowed(4, 64)
		truth := map[string]uint64{}
		for _, b := range raw {
			k := fmt.Sprintf("p%d", b%8)
			winOffer(w, k)
			truth[k]++
		}
		for k, tr := range truth {
			if c, ok := winCount(w, k); ok && c < tr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
