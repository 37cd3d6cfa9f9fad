package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"slb/internal/analysis"
	"slb/internal/hashing"
	"slb/internal/spacesaving"
	"slb/internal/workload"
)

// refDChoices is D-Choices as Algorithm 1 states it, one message at a
// time, with none of the production path's machinery: no batching, no
// candidate cache, no tournaments, no load index, and FINDOPTIMALCHOICES
// exactly as it ran before the counts-only snapshot and the memoised
// solver — a HeavyHitters Entry snapshot, a sort, and two math.Pow per
// head key per candidate d. It shares only the hash family and the
// sketch with the code under test. The production partitioner must
// agree with it on every routed worker and on every solved d.
type refDChoices struct {
	n          int
	family     *hashing.Family
	loads      []int64
	sketch     *spacesaving.Summary
	theta, eps float64
	solveEvery uint64

	d          int
	solved     bool
	lastSolveN uint64
	solves     int64

	buckets map[KeyDigest][]int32 // F_1(k), F_2(k), … as far as any d has asked
}

func newRefDChoices(cfg Config) *refDChoices {
	cfg = cfg.withDefaults()
	return &refDChoices{
		n:          cfg.Workers,
		family:     hashing.NewFamily(cfg.Workers, cfg.Seed),
		loads:      make([]int64, cfg.Workers),
		sketch:     spacesaving.New(cfg.SketchCapacity),
		theta:      cfg.Theta,
		eps:        cfg.Epsilon,
		solveEvery: uint64(cfg.SolveEvery),
		d:          2,
		buckets:    map[KeyDigest][]int32{},
	}
}

// refFeasibleD and refSolveD are the solver's loop before the memo.
func refFeasibleD(headProbs []float64, tailMass float64, n, d int, eps float64) bool {
	nf := float64(n)
	headMass := 0.0
	for _, p := range headProbs {
		headMass += p
	}
	prefix := 0.0
	for h := 1; h <= len(headProbs); h++ {
		prefix += headProbs[h-1]
		bh := analysis.BH(n, h, d)
		ratio := bh / nf
		lhs := prefix + math.Pow(ratio, float64(d))*(headMass-prefix) + ratio*ratio*tailMass
		rhs := bh * (1/nf + eps)
		if lhs > rhs {
			return false
		}
	}
	return true
}

func refSolveD(headProbs []float64, tailMass float64, n int, eps float64) int {
	if len(headProbs) == 0 {
		return 2
	}
	d := int(math.Ceil(headProbs[0] * float64(n)))
	if d < 2 {
		d = 2
	}
	for ; d < n; d++ {
		if refFeasibleD(headProbs, tailMass, n, d, eps) {
			return d
		}
	}
	return n
}

func (r *refDChoices) findOptimalChoices() int {
	n := r.sketch.N()
	if r.solved && n-r.lastSolveN < r.solveEvery {
		return r.d
	}
	r.solves++
	entries := r.sketch.HeavyHitters(r.theta)
	head := make([]float64, len(entries))
	mass := 0.0
	for i, e := range entries {
		head[i] = float64(e.Count) / float64(n)
		mass += head[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(head)))
	tail := 1 - mass
	if tail < 0 {
		tail = 0
	}
	r.d = refSolveD(head, tail, r.n, r.eps)
	if r.d < 2 {
		r.d = 2
	}
	r.solved, r.lastSolveN = true, n
	return r.d
}

func (r *refDChoices) route(key string) int {
	dg := hashing.Digest(key)
	c := r.sketch.OfferDigest(dg, key)
	d := 2
	if c >= minHeadCount && float64(c) >= r.theta*float64(r.sketch.N()) {
		d = r.findOptimalChoices()
	}
	best := 0
	if d >= r.n {
		// The switching point: W-Choices, lowest worker index on ties.
		for w := 1; w < r.n; w++ {
			if r.loads[w] < r.loads[best] {
				best = w
			}
		}
	} else {
		b := r.buckets[dg]
		for i := len(b); i < d; i++ {
			b = append(b, int32(r.family.BucketDigest(i, dg, r.n)))
		}
		r.buckets[dg] = b
		best = int(b[0])
		for _, w := range b[1:d] {
			if r.loads[w] < r.loads[best] {
				best = int(w)
			}
		}
	}
	r.loads[best]++
	return best
}

// TestDChoicesMatchesReference is the end-to-end differential check of
// this package's D-Choices accelerators at the scale they exist for:
// n = 4096 over 100k keys, where the head is thousands of keys at
// z = 0.8 and d is in the thousands at z = 2.0. Every worker and every
// (solve count, d) pair — sampled after each 256-message slab, four per
// solve period — must equal the reference's, through the batched entry
// point in all three LoadIndex modes (the forced tree keeps a
// tournament for every head key; auto runs the admission policy) and
// through per-message Route. z = 2.0 puts solve boundaries inside long
// runs of the hot key, where the batch path defers sketch offers around
// the solve.
func TestDChoicesMatchesReference(t *testing.T) {
	msgs, seeds := int64(256<<10), []uint64{7, 8, 9}
	if testing.Short() || raceEnabled {
		msgs, seeds = 64<<10, seeds[:1]
	}
	const slab = 256
	type solveState struct {
		solves int64
		d      int
	}
	for _, z := range []float64{0.8, 1.4, 2.0} {
		for _, seed := range seeds {
			keys := collectKeys(workload.NewZipf(z, 100_000, msgs, seed))
			cfg := Config{Workers: 4096, Seed: 7}
			ref := newRefDChoices(cfg)
			want := make([]int32, len(keys))
			var wantSolves []solveState
			for i, k := range keys {
				want[i] = int32(ref.route(k))
				if (i+1)%slab == 0 {
					wantSolves = append(wantSolves, solveState{ref.solves, ref.d})
				}
			}
			for _, mode := range []struct {
				name  string
				lidx  int
				batch bool
			}{
				{"scan/batch", LoadIndexScan, true},
				{"tree/batch", LoadIndexTree, true},
				{"auto/batch", LoadIndexAuto, true},
				{"auto/route", LoadIndexAuto, false},
			} {
				t.Run(fmt.Sprintf("z=%.1f/seed=%d/%s", z, seed, mode.name), func(t *testing.T) {
					c := cfg
					c.LoadIndex = mode.lidx
					p := NewDChoices(c)
					digs := make([]KeyDigest, slab)
					dst := make([]int, slab)
					for i := 0; i+slab <= len(keys); i += slab {
						if mode.batch {
							p.RouteBatchDigests(keys[i:i+slab], digs, dst)
						} else {
							for j, k := range keys[i : i+slab] {
								dst[j] = p.Route(k)
							}
						}
						for j, w := range dst {
							if int32(w) != want[i+j] {
								t.Fatalf("message %d (%q): routed to %d, reference %d", i+j, keys[i+j], w, want[i+j])
							}
						}
						if got := (solveState{p.solves, p.d}); got != wantSolves[i/slab] {
							t.Fatalf("after message %d: (solves, d) = %+v, reference %+v", i+slab, got, wantSolves[i/slab])
						}
					}
					if st := p.RouteStats(); mode.lidx == LoadIndexAuto && mode.batch && z == 2.0 && st.TourRepairs == 0 {
						t.Fatalf("auto mode at z = 2.0 never repaired a tournament: %+v", st)
					}
				})
			}
		}
	}
}
