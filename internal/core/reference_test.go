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

// refScheme is Algorithm 1 as the paper states it, one message at a
// time, for all eight schemes, with none of the production path's
// machinery: no runs, no candidate cache, no tournaments, no load index,
// and FINDOPTIMALCHOICES exactly as it ran before the counts-only
// snapshot and the memoised solver — a HeavyHitters Entry snapshot, a
// sort, and two math.Pow per head key per candidate d. It shares only
// the hash family and the sketches (spacesaving.Summary, Windowed) with
// the code under test, which must agree with it on every routed worker
// and on every solved d.
type refScheme struct {
	name       string // KG, SG, PKG, D-C, W-C, RR, Greedy-d, Oracle
	n          int
	family     *hashing.Family
	loads      []int64
	next       int // SG's ring, RR's head ring
	sketch     *spacesaving.Summary
	win        *spacesaving.Windowed
	theta, eps float64
	solveEvery uint64
	forcedD    int               // Greedy-d
	isHead     func(string) bool // Oracle

	d          int
	solved     bool
	lastSolveN uint64
	solves     int64

	buckets map[KeyDigest][]int32 // F_1(k), F_2(k), … as far as any d has asked
}

func newRef(name string, cfg Config) *refScheme {
	cfg = cfg.withDefaults()
	r := &refScheme{
		name:       name,
		n:          cfg.Workers,
		family:     hashing.NewFamily(cfg.Workers, cfg.Seed),
		loads:      make([]int64, cfg.Workers),
		next:       phaseOffset(cfg),
		theta:      cfg.Theta,
		eps:        cfg.Epsilon,
		solveEvery: uint64(cfg.SolveEvery),
		d:          2,
		buckets:    map[KeyDigest][]int32{},
	}
	if name == "KG" {
		r.family = hashing.NewFamily(1, cfg.Seed)
	}
	if cfg.SketchWindow > 0 {
		r.win = spacesaving.NewWindowed(cfg.SketchCapacity, cfg.SketchWindow)
	} else {
		r.sketch = spacesaving.New(cfg.SketchCapacity)
	}
	return r
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

// observed and heavyHitters read whichever sketch the config selects.
func (r *refScheme) observed() uint64 {
	if r.win != nil {
		return r.win.N()
	}
	return r.sketch.N()
}

func (r *refScheme) heavyHitters() []spacesaving.Entry {
	if r.win != nil {
		return r.win.HeavyHitters(r.theta)
	}
	return r.sketch.HeavyHitters(r.theta)
}

// offer is UPDATESPACESAVING followed by the head test p̂_k ≥ θ, behind
// the count floor minHeadCount.
func (r *refScheme) offer(dg KeyDigest, key string) bool {
	var c uint64
	if r.win != nil {
		r.win.OfferDigest(dg, key)
		c, _, _ = r.win.CountDigest(dg)
	} else {
		c = r.sketch.OfferDigest(dg, key)
	}
	return c >= minHeadCount && float64(c) >= r.theta*float64(r.observed())
}

func (r *refScheme) findOptimalChoices() int {
	n := r.observed()
	if r.solved && n-r.lastSolveN < r.solveEvery {
		return r.d
	}
	r.solves++
	entries := r.heavyHitters()
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

func (r *refScheme) ring() int {
	w := r.next
	r.next = (r.next + 1) % r.n
	return w
}

func (r *refScheme) route(key string) int {
	dg := hashing.Digest(key)
	switch r.name {
	case "KG":
		return r.family.BucketDigest(0, dg, r.n)
	case "SG":
		return r.ring()
	}
	head := false
	switch r.name {
	case "PKG":
	case "Oracle":
		head = r.isHead(key)
	default:
		head = r.offer(dg, key)
	}
	d := 2
	if head {
		switch r.name {
		case "D-C":
			d = r.findOptimalChoices()
		case "W-C", "Oracle":
			d = r.n
		case "RR":
			w := r.ring()
			r.loads[w]++
			return w
		default:
			d = r.forcedD
		}
	}
	best := 0
	if d >= r.n {
		// All n choices: the least-loaded worker, lowest index on ties.
		for w := 1; w < r.n; w++ {
			if r.loads[w] < r.loads[best] {
				best = w
			}
		}
	} else {
		// Greedy-d over F_1(k)..F_d(k), first lowest wins.
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

// refSchemes names the eight schemes and builds each from a config: the
// registry's six plus the two experimental instruments.
var refSchemes = []struct {
	name string
	mk   func(Config) (Partitioner, *refScheme)
}{
	{"KG", registered("KG")},
	{"SG", registered("SG")},
	{"PKG", registered("PKG")},
	{"D-C", registered("D-C")},
	{"W-C", registered("W-C")},
	{"RR", registered("RR")},
	{"Greedy-5", func(c Config) (Partitioner, *refScheme) {
		r := newRef("Greedy-d", c)
		r.forcedD = 5
		return NewForcedD(c, 5), r
	}},
	{"Oracle", func(c Config) (Partitioner, *refScheme) {
		isHead := func(k string) bool { return k == "k0" || k == "k1" }
		r := newRef("Oracle", c)
		r.isHead = isHead
		return NewOracle(c, isHead), r
	}},
}

func registered(name string) func(Config) (Partitioner, *refScheme) {
	return func(c Config) (Partitioner, *refScheme) {
		p, err := New(name, c)
		if err != nil {
			panic(err)
		}
		return p, newRef(name, c)
	}
}

// TestRoutingMatchesReference is the differential check of every
// scheme's one routing body against plain Algorithm 1, with the stream
// cut into slabs of each size in {1, 3, 64, 997} and — on one instance —
// at the repeating sequence of those sizes: every worker must equal the
// reference's, and every digest handed back must be the key's. The
// configs put head crossings inside runs (high θ), solver re-solves
// inside hot-key runs (tight solver), and the two sketch modes that
// route every run at length 1 (windowed, θ above maxMonotoneTheta).
func TestRoutingMatchesReference(t *testing.T) {
	configs := []struct {
		label string
		cfg   Config
	}{
		{"default", cfg(50)},
		{"tight solver", Config{Workers: 20, Seed: 42, SolveEvery: 16}},
		{"high theta", Config{Workers: 10, Seed: 42, Theta: 0.3}},
		{"windowed", Config{Workers: 10, Seed: 42, SketchWindow: 512}},
		{"non-monotone theta", Config{Workers: 10, Seed: 42, Theta: 0.995}},
	}
	keys := collectKeys(workload.NewZipf(2.0, 400, 20000, 17))
	sizes := []int{1, 3, 64, 997}
	// Each arm is the sequence of slab sizes it cuts the stream at,
	// repeated: one size, or all of them in turn.
	arms := [][]int{{1}, {3}, {64}, {997}, sizes}
	for _, cc := range configs {
		for _, sc := range refSchemes {
			_, ref := sc.mk(cc.cfg)
			want := make([]int, len(keys))
			for i, k := range keys {
				want[i] = ref.route(k)
			}
			t.Run(cc.label+"/"+sc.name, func(t *testing.T) {
				for _, cuts := range arms {
					arm := fmt.Sprintf("slabs %v", cuts)
					p, _ := sc.mk(cc.cfg)
					digs := make([]KeyDigest, 997)
					dst := make([]int, 997)
					for i, c := 0, 0; i < len(keys); c++ {
						chunk := keys[i:min(i+cuts[c%len(cuts)], len(keys))]
						clear(digs)
						p.RouteBatchDigests(chunk, digs, dst)
						for j, k := range chunk {
							if dst[j] != want[i+j] {
								t.Fatalf("%s: message %d (%q) routed to %d, reference %d",
									arm, i+j, k, dst[j], want[i+j])
							}
							if digs[j] != Digest(k) {
								t.Fatalf("%s: message %d (%q) digest %x, want %x",
									arm, i+j, k, digs[j], Digest(k))
							}
						}
						i += len(chunk)
					}
				}
			})
		}
	}
}

// TestDChoicesMatchesReference is the end-to-end differential check of
// this package's D-Choices accelerators at the scale they exist for:
// n = 4096 over 100k keys, where the head is thousands of keys at
// z = 0.8 and d is in the thousands at z = 2.0. Every worker and every
// (solve count, d) pair — sampled after each 256-message slab, four per
// solve period — must equal the reference's, through the batched entry
// point in all three LoadIndex modes (the forced tree keeps a
// tournament for every head key; auto runs the admission policy) and
// through slabs of one. z = 2.0 puts solve boundaries inside long
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
			ref := newRef("D-C", cfg)
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
							for j := range dst {
								p.RouteBatchDigests(keys[i+j:i+j+1], digs[j:], dst[j:])
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
