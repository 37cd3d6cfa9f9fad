package workload_test

import (
	"fmt"

	"slb/internal/stream"
	"slb/internal/workload"
)

// A Zipf stream with any exponent (including z ≤ 1, which the standard
// library's Zipf cannot generate) over a finite key space.
func ExampleNewZipf() {
	gen := workload.NewZipf(2.0, 1000, 100_000, 42)
	st := stream.Collect(gen)
	fmt.Printf("hottest key %q carries %.0f%% of %d messages\n",
		st.TopKey, 100*st.P1, st.Messages)
	// Output:
	// hottest key "k0" carries 61% of 100000 messages
}

// CalibrateZ finds the exponent that reproduces a published head
// frequency at a chosen key-space size — how the dataset stand-ins
// match Table I of the paper.
func ExampleCalibrateZ() {
	z := workload.CalibrateZ(0.0932, 29_000) // Wikipedia's p1 at 29k keys
	p1 := workload.ZipfProbs(z, 29_000)[0]
	fmt.Printf("p1 = %.4f\n", p1)
	// Output:
	// p1 = 0.0932
}

// A drifting stream rotates the identity of the hot keys every epoch,
// stressing online heavy-hitter tracking like the paper's cashtag data.
func ExampleNewDrift() {
	gen := workload.NewDrift(2.0, 100, 4000, 1000, 25, 7)
	hot := map[int64]string{}
	counts := map[string]int{}
	var seen int64
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		counts[k]++
		seen++
		if seen%1000 == 0 { // end of an epoch
			top, topC := "", 0
			for key, c := range counts {
				if c > topC {
					top, topC = key, c
				}
			}
			hot[seen/1000-1] = top
			counts = map[string]int{}
		}
	}
	fmt.Println("distinct hot keys over 4 epochs:", len(map[string]bool{
		hot[0]: true, hot[1]: true, hot[2]: true, hot[3]: true,
	}))
	// Output:
	// distinct hot keys over 4 epochs: 4
}
