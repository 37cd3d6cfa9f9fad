// Wordcount: the canonical stateful streaming job, run as a REAL
// two-phase topology on the goroutine DSPE. Words follow a Zipf
// distribution (as natural language does) and are partitioned with
// D-Choices; each bolt keeps windowed partial counts and flushes closed
// windows to a SHARDED reduce stage (AggShards parallel reducers, each
// owning the words whose digests map to it), which merges the partials
// — the aggregation phase whose traffic is proportional to how many
// workers share a key — and emits exact per-window finals. The example
// prints the top words (summed over windows, checked against a
// single-node ground truth), the per-bolt load balance, and the
// aggregation bill D-Choices actually paid: partial messages, measured
// replication factor, and reducer memory.
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"sort"

	"slb"
)

// vocabulary returns the i-th most frequent "word".
func vocabulary(i int) string {
	common := []string{"the", "of", "and", "to", "a", "in", "is", "it", "you", "that"}
	if i < len(common) {
		return common[i]
	}
	return fmt.Sprintf("word%04d", i)
}

// wordStream adapts the rank-keyed Zipf generator to natural-looking
// word keys (routing is identical: same key ↔ same digest everywhere).
type wordStream struct{ inner slb.Generator }

func (w wordStream) NextBatch(dst []string) int {
	n := w.inner.NextBatch(dst)
	for i, k := range dst[:n] {
		var rank int
		fmt.Sscanf(k, "k%d", &rank)
		dst[i] = vocabulary(rank)
	}
	return n
}
func (w wordStream) Len() int64 { return w.inner.Len() }
func (w wordStream) Reset()     { w.inner.Reset() }

func main() {
	const (
		workers  = 16
		sources  = 4
		shards   = 4 // parallel reducer shards (keyed by word digest)
		keys     = 5_000
		messages = 200_000
		window   = 20_000 // tumbling window: 10 windows over the run
		seed     = 7
	)

	// A Zipf(1.1) word stream — roughly English-like (p("the") ≈ 7%).
	words := wordStream{inner: slb.NewZipfStream(1.1, keys, messages, seed)}

	// Single-node ground truth for the exactness check below.
	truth := make(map[string]int64)
	slab := make([]string, 512)
	for n := words.NextBatch(slab); n > 0; n = words.NextBatch(slab) {
		for _, w := range slab[:n] {
			truth[w]++
		}
	}
	words.Reset()

	// Final counts, merged by the sharded reduce stage per (window,
	// word); summed over windows here for the top-words report. OnFinal
	// calls are serialized by the engine across the reducer shards, so
	// no locking is needed.
	total := make(map[string]int64)
	windows := make(map[int64]bool)
	res, err := slb.RunTopology(words, slb.EngineConfig{
		Workers:   workers,
		Sources:   sources,
		Algorithm: "D-C",
		Core:      slb.Config{Seed: seed},
		AggWindow: window,
		AggShards: shards,
		OnFinal: func(f slb.AggFinal) {
			// Serialized across reducer shards by the engine.
			total[f.Key] += f.Count
			windows[f.Window] = true
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	ranked := make([]string, 0, len(total))
	for w := range total {
		ranked = append(ranked, w)
	}
	sort.Slice(ranked, func(i, j int) bool { return total[ranked[i]] > total[ranked[j]] })

	fmt.Printf("processed %d words in %v (%.0f words/s)\n\n",
		res.Completed, res.Elapsed.Round(1_000_000), res.Throughput)
	fmt.Println("top words (exact, merged from per-bolt partials):")
	for _, w := range ranked[:10] {
		fmt.Printf("  %-10s %7d\n", w, total[w])
	}

	st := res.Agg
	fmt.Printf("\nload imbalance I(m) = %.6f across %d bolts\n", res.Imbalance, workers)
	fmt.Printf("aggregation bill over %d windows of %d words, reduced by %d shards:\n",
		len(windows), window, shards)
	// Per window, the windows counted from the finals: st.WindowsClosed
	// counts each window once per shard that closed a slice of it.
	fmt.Printf("  %d partial messages (%.1f per window), %d merges, %d finals\n",
		st.Partials, float64(st.Partials)/float64(len(windows)), st.Merges, st.Finals)
	fmt.Printf("  measured replication factor %.3f (KG would pay exactly 1.000)\n", res.AggReplication)
	fmt.Printf("  reducer peak memory: %d live entries over %d open windows\n",
		st.PeakEntries, st.PeakWindows)
	fmt.Printf("  busiest reducer shard merged %.1f%% of the run (mean %.1f%%)\n",
		100*res.AggReducerUtil, 100*res.AggReducerUtilMean)

	// Exactness: sharding the reduce stage changes its topology, never
	// its results — every word's merged total equals the single-node
	// ground truth, word for word.
	if res.AggTotal != res.Completed {
		log.Fatalf("count mismatch: finals sum to %d, processed %d", res.AggTotal, res.Completed)
	}
	if len(total) != len(truth) {
		log.Fatalf("merged %d distinct words, ground truth has %d", len(total), len(truth))
	}
	for w, want := range truth {
		if total[w] != want {
			log.Fatalf("word %q: merged %d, ground truth %d", w, total[w], want)
		}
	}
	fmt.Printf("\nexactness check passed: %d distinct words match the ground truth.\n", len(truth))
	fmt.Println("hot words are split across several bolts (kept balanced); each")
	fmt.Println("reducer shard pays one merge per extra replica — the paper's tradeoff.")
}
