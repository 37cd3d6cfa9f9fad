package spacesaving_test

import (
	"fmt"

	"slb/internal/hashing"
	"slb/internal/spacesaving"
)

// The sketch tracks the hottest keys of a stream with bounded memory:
// with capacity c, any key whose frequency exceeds 1/c is guaranteed to
// be monitored.
func Example() {
	s := spacesaving.New(3)
	offer := func(key string) { s.OfferDigest(hashing.Digest(key), key) }
	for i := 0; i < 60; i++ {
		offer("hot")
	}
	for i := 0; i < 30; i++ {
		offer("warm")
	}
	for i := 0; i < 10; i++ {
		offer(fmt.Sprintf("cold-%d", i)) // 10 distinct rare keys
	}
	for _, e := range s.HeavyHitters(0.2) {
		fmt.Printf("%s ≥ %d occurrences\n", e.Key, e.Count-e.Err)
	}
	// Output:
	// hot ≥ 60 occurrences
	// warm ≥ 30 occurrences
}

// Summaries from different sub-streams merge into a global view — the
// distributed heavy-hitters construction the paper's sources can use.
func ExampleSummary_Merge() {
	a, b := spacesaving.New(4), spacesaving.New(4)
	k := hashing.Digest("k")
	for i := 0; i < 40; i++ {
		a.OfferDigest(k, "k")
	}
	for i := 0; i < 25; i++ {
		b.OfferDigest(k, "k")
	}
	merged := a.Merge(b)
	c, _, _ := merged.CountDigest(k)
	fmt.Println("global estimate:", c)
	// Output:
	// global estimate: 65
}

// The windowed variant forgets old stream mass, so a newly hot key is
// detected within a bounded number of messages no matter how long the
// stream has been running.
func ExampleWindowed() {
	w := spacesaving.NewWindowed(4, 100)
	offer := func(key string) { w.OfferDigest(hashing.Digest(key), key) }
	for i := 0; i < 1000; i++ {
		offer("old-star")
	}
	for i := 0; i < 150; i++ {
		offer("new-star")
	}
	c, _, _ := w.CountDigest(hashing.Digest("new-star"))
	fmt.Printf("new-star freq over recent window: %.2f\n", float64(c)/float64(w.N()))
	// Output:
	// new-star freq over recent window: 1.00
}
