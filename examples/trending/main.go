// Trending: ranking hashtags by total ENGAGEMENT — a weighted sum
// rather than a plain count — on the goroutine DSPE's two-phase
// topology, the shape the paper's evaluation models. The source
// normalizes raw events into hashtags; D-Choices routes them to
// stateful workers, which fold each event's engagement weight through a
// Sum merger per (window, hashtag) into windowed partial sums; a reduce
// stage sharded by hashtag digest merges each hashtag's partial sums
// into exact per-window finals. The hot hashtag would crush a
// key-grouped summing stage; D-Choices splits exactly that key — and
// this example shows what the split costs downstream (the partials the
// reduce stage must merge) and proves the weighted sums still come out
// EXACT against a single-node ground truth.
//
//	go run ./examples/trending
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"slb"
)

// engagement returns the deterministic weight of one event on a tag
// (likes + reposts, say) — derived from the tag so the single-node
// ground truth is independent of executor interleaving.
func engagement(tag string) int64 {
	return int64(len(tag)%5) + 1
}

// normalize extracts the lower-cased hashtag from a raw event key.
func normalize(key string) string {
	raw := "User123 Check This Out #" + strings.ToUpper(key)
	return strings.ToLower(raw[strings.LastIndexByte(raw, '#')+1:])
}

// tagStream turns raw events ("user123 check this out #<tag>" with Zipf
// tags) into their normalized hashtags at the source, so every later
// stage routes, sums and merges by hashtag.
type tagStream struct{ inner slb.Generator }

func (t tagStream) NextBatch(dst []string) int {
	n := t.inner.NextBatch(dst)
	for i, k := range dst[:n] {
		dst[i] = normalize(k)
	}
	return n
}
func (t tagStream) Len() int64 { return t.inner.Len() }
func (t tagStream) Reset()     { t.inner.Reset() }

func main() {
	const (
		spouts    = 4
		workers   = 12 // stateful weighted partials, split by D-Choices
		shards    = 2  // reduce-stage shards (keyed by hashtag digest)
		hashtags  = 3_000
		events    = 120_000
		window    = 12_000 // tumbling window: 10 windows over the run
		seed      = 19
		zTrending = 1.8 // a trending topic dominates
	)

	tags := tagStream{inner: slb.NewZipfStream(zTrending, hashtags, events, seed)}

	// Single-node ground truth: total engagement per tag.
	truth := map[string]int64{}
	var truthTotal int64
	slab := make([]string, 512)
	for n := tags.NextBatch(slab); n > 0; n = tags.NextBatch(slab) {
		for _, tag := range slab[:n] {
			truth[tag] += engagement(tag)
			truthTotal += engagement(tag)
		}
	}
	tags.Reset()

	// Merged finals, one per (window, tag), summed over windows here.
	// OnFinal calls are serialized by the engine across the reducer
	// shards, so no locking is needed.
	sums := map[string]int64{}
	windows := map[int64]bool{}
	// Each event's engagement rides with it as the Sum merger's sample.
	weighted := slb.WithValues(tags, func(tag string, _ int64) int64 { return engagement(tag) })
	res, err := slb.RunTopology(weighted, slb.EngineConfig{
		Workers:   workers,
		Sources:   spouts,
		Algorithm: "D-C",
		Core:      slb.Config{Seed: seed},
		AggWindow: window,
		AggShards: shards,
		AggMerger: slb.SumMerger,
		OnFinal: func(f slb.AggFinal) {
			sums[f.Key] += f.Value
			windows[f.Window] = true
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Exactness: weighted sums reassemble from the split partials
	// without loss — tag for tag against the ground truth.
	ranked := make([]string, 0, len(sums))
	var totalMerged int64
	for tag := range sums {
		ranked = append(ranked, tag)
		totalMerged += sums[tag]
	}
	if totalMerged != truthTotal {
		log.Fatalf("engagement mismatch: merged %d, ground truth %d", totalMerged, truthTotal)
	}
	if len(sums) != len(truth) {
		log.Fatalf("merged %d distinct tags, ground truth has %d", len(sums), len(truth))
	}
	for tag, want := range truth {
		if sums[tag] != want {
			log.Fatalf("tag %q: merged engagement %d, ground truth %d", tag, sums[tag], want)
		}
	}

	sort.Slice(ranked, func(i, j int) bool { return sums[ranked[i]] > sums[ranked[j]] })
	fmt.Println("trending now (total engagement, exact, merged from windowed weighted partials):")
	for _, tag := range ranked[:5] {
		fmt.Printf("  #%-8s %7d  (%.1f%%)\n", tag, sums[tag],
			100*float64(sums[tag])/float64(truthTotal))
	}

	st := res.Agg
	fmt.Printf("\nprocessed %d events end-to-end in %v (p99 latency %v)\n",
		res.Completed, res.Elapsed.Round(1_000_000), res.P99)
	fmt.Printf("load imbalance I(m) = %.6f across %d workers\n", res.Imbalance, workers)
	fmt.Printf("reduce stage: %d partials merged into %d finals over %d windows by %d shards\n",
		st.Partials, st.Finals, len(windows), shards)
	fmt.Printf("\nexactness check passed: %d tags match the ground truth to the unit.\n", len(truth))
	fmt.Printf("the summing stage stays balanced even though one hashtag carries\n")
	fmt.Printf("half the stream; the bill is the reduce stage's %d partials\n", st.Partials)
	fmt.Printf("(%.2f per distinct hashtag-window) — the paper's balance/overhead tradeoff.\n",
		float64(st.Partials)/float64(st.Finals))
}
