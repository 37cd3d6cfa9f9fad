package core

// batch.go holds what every scheme's one routing body is driven by: the
// router, which gives each scheme Partitioner's one routing call,
// RouteBatchDigests, over its body, the run helpers the head-tracking
// bodies share, and the candidate cache behind D-Choices' head lists and
// their level cursors.
//
// A body routes a run — consecutive messages of one key, identified by
// the digest the router filled in — and pays its per-message costs
// (candidate derivation, sketch-table lookups, the head predicate) once
// per run. Skewed streams are exactly the streams where this matters:
// under a Zipf head a large fraction of messages repeat the previous
// key. A single message is a slab of one and a run of one, so slab
// boundaries never change a decision, and steady-state routing
// allocates nothing at any slab size, one included.
//
// Within a run of one key in insertion-only sketch mode, the key's
// estimated count and the stream length each advance by exactly 1 per
// message, so head membership for message m of the run is a pure
// arithmetic predicate (HeadTracker.isHeadAt) over the state after the
// run's first offer — and monotone in m (see maxMonotoneTheta), so one
// crossing scan splits the run into a tail prefix and a head suffix.
// Nothing reads the sketch between the messages of a run except the
// D-Choices solver, so the whole run is offered in ONE OfferDigestN
// (HeadTracker.observeRun); D-Choices defers offers around a solve.
// The sketch modes where this does not hold — the sliding window, θ
// above maxMonotoneTheta — route every run at length 1.

import (
	"math/bits"

	"slb/internal/hashing"
)

// router supplies Partitioner's routing call to every scheme over the
// scheme's one routing body, which the scheme installs at construction:
// runs, or — PKG only — slab.
type router struct {
	runs runBody
	slab slabBody
	// unit makes every run one message long (see HeadTracker.canBatch).
	unit bool
}

// runBody routes len(dst) consecutive messages of one key with digest
// dg. (An interface, not a method value: the call goes straight to the
// method, once per run.)
type runBody interface {
	routeRun(dg KeyDigest, key string, dst []int)
}

// slabBody routes a whole slab, digesting keys[i] into digs[i] as it
// goes (see PKG.routeSlab).
type slabBody interface {
	routeSlab(keys []string, digs []KeyDigest, dst []int)
}

// RouteBatchDigests implements Partitioner: it digests the slab — the
// one scan of each key's bytes routing performs — and routes it through
// the scheme's body, run by run.
func (rt *router) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	if len(digs) < len(keys) || len(dst) < len(keys) {
		panic("core: RouteBatchDigests digs or dst shorter than keys")
	}
	digs, dst = digs[:len(keys)], dst[:len(keys)]
	if rt.slab != nil {
		rt.slab.routeSlab(keys, digs, dst)
		return
	}
	for i, k := range keys {
		digs[i] = hashing.Digest(k)
	}
	runs, unit := rt.runs, rt.unit
	for i := 0; i < len(keys); {
		r := 1
		if !unit {
			r = runLenDigest(digs, i)
		}
		runs.routeRun(digs[i], keys[i], dst[i:i+r])
		i += r
	}
}

// runLenDigest returns the length of the run of identical digests
// starting at i: an integer compare per message. Two distinct keys
// sharing a digest route (and count) identically everywhere in the
// digest world, so merging their runs is exact, not an approximation.
func runLenDigest(digs []KeyDigest, i int) int {
	d := digs[i]
	j := i + 1
	for j < len(digs) && digs[j] == d {
		j++
	}
	return j - i
}

// routeTailSeg routes a segment of tail messages of one key: the
// 2-choice pair is derived once, then two load compares per message
// (plus the O(1) floor-index bump when the scheme carries one).
func (g *greedy) routeTailSeg(dg KeyDigest, dst []int) {
	t0 := g.family.BucketDigest(0, dg, g.n)
	t1 := g.family.BucketDigest(1, dg, g.n)
	loads := g.loads
	for m := range dst {
		w := t0
		if loads[t1] < loads[t0] {
			w = t1
		}
		g.bump(w)
		dst[m] = w
	}
}

// routeTail offers a whole run to h, routes its tail prefix with two
// choices, and returns the head suffix for the caller to route.
func (g *greedy) routeTail(h *HeadTracker, dg KeyDigest, key string, dst []int) []int {
	c0, n0 := h.observeRun(dg, key, len(dst))
	cross := h.headCrossing(c0, n0, len(dst))
	if cross > 0 {
		g.routeTailSeg(dg, dst[:cross])
	}
	h.noteHead(len(dst) - cross)
	return dst[cross:]
}

// routeAllSeg routes every message of dst to the then least-loaded
// worker.
func (g *greedy) routeAllSeg(dst []int) {
	for m := range dst {
		dst[m] = g.routeAll()
	}
}

// Every scheme is a Partitioner.
var (
	_ Partitioner = (*KeyGrouping)(nil)
	_ Partitioner = (*ShuffleGrouping)(nil)
	_ Partitioner = (*PKG)(nil)
	_ Partitioner = (*DChoices)(nil)
	_ Partitioner = (*RoundRobin)(nil)
	_ Partitioner = (*Oracle)(nil)
)

// candWays is the head-candidate cache's set associativity. A skewed
// head is exactly the access pattern that thrashes a direct-mapped
// cache — two hot keys sharing a slot evict each other on every run,
// and at large d each eviction costs a d-mix recompute — while 4-way
// sets with LRU replacement keep the hottest keys resident.
const candWays = 4

// candCacheSets returns the INITIAL number of sets: 8 (32 entries)
// covers the few-dozen-key heads of the paper's configurations; large
// deployments (whose θ-derived heads are bigger and whose recomputes
// cost thousands of mixes) start at 16 sets (64 entries). The D-Choices
// solver then fits the cache to the head cardinality its sketch
// actually observes and to the d it solved (fit) — the static guess
// only has to carry the warm-up.
func candCacheSets(n int) int {
	if n >= 2048 {
		return 16
	}
	return 8
}

// candCacheBytes is the budget of the candidate store (entries·stride
// int32s). An entry reserves room for the list its derivation can
// produce — stride ≥ d + candDSlack(d) — not for n workers: at n = 4096,
// d = 91 an n-strided store bought 256 entries for a 2,816-key head
// (62,485 misses in 106,533 lookups over 256 Ki messages, each
// re-deriving 93 buckets); strided by d the same bytes hold the whole
// head (8,279 misses: one per head key, and again when d leaves the
// key's window while the solver settles).
const candCacheBytes = 4 << 20

// candStride returns the per-entry reservation for derivations at d:
// the list length bound min(d + candDSlack(d), n) plus an eighth of
// headroom (rounded up to 8), so the solver's drift re-strides rarely.
func candStride(d, n int) int {
	need := d + candDSlack(d)
	s := (need + need/8 + 7) &^ 7
	if s > n {
		s = n
	}
	return s
}

// candCacheMaxEntries caps the entry count at a given stride so the
// candidate store stays within candCacheBytes: a large d gets fewer,
// larger entries. Never below the 32-entry static default.
func candCacheMaxEntries(stride int) int {
	m := candCacheBytes / (4 * stride)
	if m < 32 {
		m = 32
	}
	return m
}

// candDSlack is how far past the requested d a miss derives, and
// candDWindow how many consecutive d values, counted down from the top
// of its derivation, an entry serves. The D-Choices solver re-runs
// every SolveEvery messages and its d JITTERS around a fixed point that
// itself drifts while the head estimate settles; keying entries on an
// exact d would invalidate every cached list at each wobble,
// re-deriving thousands of buckets per head key. d is ⌈p̂1·n⌉ or a
// little more, so the wobble scales with d: ±1–2 at the paper's scales,
// but 2,535 → 2,484 → 2,507 → 2,493 over the first 128 Ki messages at
// n = 4096, z = 2.0, where a fixed 4-wide window re-derived every head
// key's ≈ 2,500 buckets twelve times. So the slack is d/64, at least
// the 2 that serves small d and at most the 32 the window word holds,
// and the window is twice the slack: [d − slack + 1, d + slack] around
// the d that missed.
//
// The dedup-prefix property makes the window free: deduplication
// preserves first-occurrence order, so the deduplicated list for d′ < d
// is exactly a PREFIX of the list derived for d. One derivation records
// its full length and, in one word, which of its last 64 buckets were
// duplicates; the prefix length at any d in the window is a popcount
// away, bit-exactly.
func candDSlack(d int) int {
	switch s := d >> 6; {
	case s < 2:
		return 2
	case s > 32:
		return 32
	default:
		return s
	}
}

// candDWindow returns how many d values, from dhi down, an entry whose
// derivation reaches dhi serves: twice the slack at dhi, which is the
// slack of the d that missed or one more — either way at most the 64
// buckets the entry's duplicate word records.
func candDWindow(dhi int32) int32 {
	return 2 * int32(candDSlack(int(dhi)))
}

// candCache memoizes head keys' candidate worker lists across batches.
// Candidates are a pure function of (digest, d), so entries never go
// stale: a lookup validates both. Deriving a head key's d candidates is
// d hash mixes — the single largest per-message cost for D-Choices when
// the solver picks a large d — and with the cache routing pays it once
// per (head key, d window) instead of once per run. Each entry also
// carries the key's level cursor (loadtree.go), which a derivation or a
// re-layout resets.
type candCache struct {
	n      int
	stride int // int32s reserved per entry; every lookup's d + candDSlack(d) (capped at n) fits
	sets   int
	digs   []KeyDigest // sets·candWays entries
	dhi    []int32     // highest d the entry's derivation covers (0 = empty)
	lens   []int32     // dedup length of the whole derivation (at d = dhi)
	dups   []uint64    // bit k set: bucket dhi−1−k repeated an earlier worker
	used   []uint32    // LRU stamps, one per entry
	tick   uint32
	cands  []int32       // flat [sets·candWays][stride]
	curs   []levelCursor // one per entry
	// Dedup stamps: mark[w] == epoch means worker w is already in the
	// list being built. An epoch bump invalidates every mark in O(1),
	// making a miss O(d) instead of the O(d²) a membership scan costs —
	// the difference between microseconds and milliseconds per miss
	// once the solver picks d in the thousands (large deployments).
	mark  []int32
	epoch int32

	// Hit/miss counters over lookup calls (one lookup serves a run's
	// head messages, or a chunk of them between solves, so these count
	// runs, not messages); surfaced via RouteStats.
	hits   int64
	misses int64
}

// newCandCache returns a cache for n workers whose entries fit
// derivations at d (D-Choices starts at 2 and re-fits after each solve;
// a pinned d never changes).
func newCandCache(n, d int) candCache {
	cc := candCache{n: n, mark: make([]int32, n)}
	cc.resize(candCacheSets(n), candStride(d, n))
	return cc
}

// resize lays the cache out afresh. It discards the cached entries,
// which is harmless because candidates are a pure function of
// (digest, d) and re-derive bit-identically on the next lookup.
func (cc *candCache) resize(sets, stride int) {
	entries := sets * candWays
	cc.sets, cc.stride = sets, stride
	cc.digs = make([]KeyDigest, entries)
	cc.dhi = make([]int32, entries)
	cc.lens = make([]int32, entries)
	cc.dups = make([]uint64, entries)
	cc.used = make([]uint32, entries)
	cc.cands = make([]int32, entries*stride)
	cc.curs = make([]levelCursor, entries)
	cc.tick = 0
}

// fit sizes the cache for an observed head of `heads` keys routed with d
// choices: entries strided for d (re-striding up as soon as d outgrows
// the reservation, down only once d needs at most half of it, so a
// wobbling d never flaps), and the smallest power-of-two set count
// giving at least 2·heads entries (half-empty sets keep LRU conflicts
// rare) within candCacheMaxEntries. The entry count never shrinks at an
// unchanged stride. The solver calls this after each solve, off the
// per-message path.
func (cc *candCache) fit(heads, d int) {
	stride, sets := cc.stride, cc.sets
	if s := candStride(d, cc.n); s > stride || 2*s <= stride {
		stride, sets = s, candCacheSets(cc.n)
	}
	limit := candCacheMaxEntries(stride)
	want := 2 * heads
	if want > limit {
		want = limit
	}
	for sets*candWays < want {
		sets <<= 1
	}
	for sets*candWays > limit && sets > candCacheSets(cc.n) {
		sets >>= 1
	}
	if sets != cc.sets || stride != cc.stride {
		cc.resize(sets, stride)
	}
}

// lookup returns the candidate list for (dg, d) and the entry's level
// cursor, deriving and caching the list on miss (into the set's
// least-recently-used way, with a fresh cursor). The stored list is
// deduplicated preserving first-occurrence order, which routes
// identically: a duplicate worker can never beat its first occurrence
// (same load, later position), so dropping it changes neither the
// argmin nor the tie-break — while shortening the scan the router pays
// (at d near n, hash collisions make the list noticeably shorter than
// d). A hit serves any d within the entry's derivation window as the
// recorded dedup prefix (see candDWindow).
func (cc *candCache) lookup(dg KeyDigest, d int, f *hashing.Family) ([]int32, *levelCursor) {
	cc.tick++
	if cc.tick == 0 { // wrapped: old stamps would invert the LRU order
		for i := range cc.used {
			cc.used[i] = 0
		}
		cc.tick = 1
	}
	set := int(hashing.Mix64(dg) & uint64(cc.sets-1))
	e := set * candWays
	victim := e
	for w := e; w < e+candWays; w++ {
		hi := cc.dhi[w]
		if cc.digs[w] == dg && int32(d) <= hi && int32(d) > hi-candDWindow(hi) {
			cc.used[w] = cc.tick
			cc.hits++
			return cc.cands[w*cc.stride : w*cc.stride+cc.prefixLen(w, d)], &cc.curs[w]
		}
		if cc.used[w] < cc.used[victim] {
			victim = w
		}
	}
	cc.misses++
	cc.epoch++
	if cc.epoch == 0 { // wrapped: every mark is stale garbage, clear once
		for i := range cc.mark {
			cc.mark[i] = 0
		}
		cc.epoch = 1
	}
	// Derive past the requested d (bounded by the family size n) so the
	// solver's drift stays inside the window. The list fits the entry:
	// fit/newCandCache reserved stride ≥ min(d + candDSlack(d), n).
	dhi := d + candDSlack(d)
	if dhi > cc.n {
		dhi = cc.n
	}
	c := cc.cands[victim*cc.stride : victim*cc.stride : (victim+1)*cc.stride]
	var dups uint64
	for i := 0; i < dhi; i++ {
		w := int32(f.BucketDigest(i, dg, cc.n))
		dups <<= 1
		if cc.mark[w] != cc.epoch {
			cc.mark[w] = cc.epoch
			c = append(c, w)
		} else {
			dups |= 1
		}
	}
	cc.digs[victim] = dg
	cc.dhi[victim] = int32(dhi)
	cc.lens[victim] = int32(len(c))
	cc.dups[victim] = dups
	cc.used[victim] = cc.tick
	cc.curs[victim] = levelCursor{}
	return cc.cands[victim*cc.stride : victim*cc.stride+cc.prefixLen(victim, d)], &cc.curs[victim]
}

// prefixLen returns the dedup length at d of entry w's derivation, for
// d within its window: the full length less the first occurrences among
// the dhi − d buckets past d.
func (cc *candCache) prefixLen(w, d int) int {
	k := uint(int(cc.dhi[w]) - d)
	return int(cc.lens[w]) - int(k) + bits.OnesCount64(cc.dups[w]&(1<<k-1))
}
