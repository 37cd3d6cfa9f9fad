package slb_test

// Golden regression tests: the whole stack (hashing, sketch, solver,
// routing, simulation) is deterministic for a fixed seed, so these
// exact values must never change unless an algorithm is intentionally
// modified. A failure here means routing behaviour changed — review
// whether that was intended before updating the constants.
//
// The fixtures were regenerated once when the digest-based routing path
// replaced per-member key rescanning (hash values necessarily changed:
// one FNV-1a digest per key, multiply-shift member mixing, Lemire
// bucket reduction). To regenerate after another intentional change,
// run the equivalent of:
//
//	gen := slb.NewZipfStream(1.8, 5000, 100_000, 77)
//	for _, algo := range slb.Algorithms {
//		res, _ := slb.Simulate(gen, algo, slb.Config{Workers: 25, Seed: 77},
//			slb.SimOptions{Sources: 5})
//		fmt.Printf("{%q, %d, %d, %.10f},\n", algo, res.Loads[0], res.Loads[24], res.Imbalance)
//	}
//	p, _ := slb.New("PKG", slb.Config{Workers: 100, Seed: 1})
//	keys := []string{"alpha", "beta", "gamma", "alpha"}
//	dst := make([]int, len(keys))
//	slb.RouteBatchDigests(p, keys, make([]slb.KeyDigest, len(keys)), dst)
//	fmt.Println(dst)
//
// and paste the output below.

import (
	"math"
	"testing"

	"slb"
)

func TestGoldenSimulationValues(t *testing.T) {
	want := []struct {
		algo          string
		load0, load24 int64
		imbalance     float64
	}{
		{"KG", 137, 3211, 0.6520300000},
		{"SG", 4000, 4000, 0.0000000000},
		{"PKG", 1686, 2130, 0.2256100000},
		{"D-C", 4063, 3919, 0.0006800000},
		{"W-C", 4000, 3996, 0.0000100000},
		{"RR", 4019, 3961, 0.0019700000},
	}
	gen := slb.NewZipfStream(1.8, 5000, 100_000, 77)
	for _, w := range want {
		res, err := slb.Simulate(gen, w.algo, slb.Config{Workers: 25, Seed: 77},
			slb.SimOptions{Sources: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Loads[0] != w.load0 || res.Loads[24] != w.load24 {
			t.Errorf("%s: loads[0]=%d loads[24]=%d, want %d, %d",
				w.algo, res.Loads[0], res.Loads[24], w.load0, w.load24)
		}
		if math.Abs(res.Imbalance-w.imbalance) > 1e-9 {
			t.Errorf("%s: imbalance %.10f, want %.10f", w.algo, res.Imbalance, w.imbalance)
		}
	}
}

func TestGoldenHashValues(t *testing.T) {
	// The hash family is part of the on-the-wire contract: all senders
	// must agree on candidates forever.
	p, err := slb.New("PKG", slb.Config{Workers: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"alpha", "beta", "gamma", "alpha"}
	got := make([]int, len(keys))
	slb.RouteBatchDigests(p, keys, make([]slb.KeyDigest, len(keys)), got)
	want := []int{54, 93, 6, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("routing sequence changed: got %v, want %v", got, want)
		}
	}
}

// TestGoldenDigestValues pins the digest layer itself: the canonical
// KeyDigest of a key is a pure function of its bytes (64-bit FNV-1a) and
// is shared by every sender and every sketch.
func TestGoldenDigestValues(t *testing.T) {
	want := map[string]slb.KeyDigest{
		"":      0xcbf29ce484222325,
		"alpha": 0x8ac625bb85ed202b,
		"k0":    0x08be0e07b562230e,
	}
	for key, w := range want {
		if got := slb.DigestKey(key); got != w {
			t.Errorf("DigestKey(%q) = %#x, want %#x", key, got, w)
		}
	}
}
