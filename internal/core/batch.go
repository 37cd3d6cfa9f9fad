package core

// batch.go implements the batched routing fast path. RouteBatch routes a
// slab of keys in one call, making the same decision for every message
// that per-message Route would make (a property the tests pin), while
// paying the per-message costs — key digesting, candidate derivation,
// sketch-table lookups — once per *run* of identical keys instead of
// once per message. Skewed streams are exactly the streams where this
// matters: under a Zipf head, a large fraction of messages repeat the
// previous key, and those repeats reduce to a couple of load compares.
//
// The steady-state batch path performs no allocations for any algorithm.
//
// RouteBatchDigests is the same path with the digest slab supplied by
// (and surrendered to) the caller: the one key-byte scan routing
// performs becomes the digest every downstream layer — aggregation
// tables, re-keyed edges — operates on, so a message's key is digested
// exactly once end to end.

import (
	"math/bits"

	"slb/internal/hashing"
)

// BatchPartitioner is implemented by partitioners that support batched
// routing. All partitioners in this package implement it.
type BatchPartitioner interface {
	Partitioner

	// RouteBatch routes keys[i] to dst[i] for every i, updating internal
	// state exactly as len(keys) successive Route calls would: the
	// resulting worker sequence is identical message for message.
	// It panics if dst is shorter than keys.
	RouteBatch(keys []string, dst []int)
}

// DigestBatchPartitioner is implemented by partitioners whose batch path
// can hand the caller the digests routing already computed — the batched
// half of the hash-once lifecycle. All partitioners in this package
// implement it; RouteBatch is RouteBatchDigests over a partitioner-owned
// scratch slab wherever a digest slab is needed at all.
type DigestBatchPartitioner interface {
	BatchPartitioner

	// RouteBatchDigests routes exactly like RouteBatch and additionally
	// fills digs[i] with Digest(keys[i]) for every i — the one scan of
	// each key's bytes the whole system performs. Callers that aggregate
	// or re-key downstream keep the slab and never digest again. It
	// panics if digs or dst is shorter than keys.
	RouteBatchDigests(keys []string, digs []KeyDigest, dst []int)
}

// RouteBatch routes a batch of keys through p, using its native batch
// path when available and falling back to per-message Route otherwise.
func RouteBatch(p Partitioner, keys []string, dst []int) {
	if bp, ok := p.(BatchPartitioner); ok {
		bp.RouteBatch(keys, dst)
		return
	}
	checkBatch(keys, dst)
	for i, k := range keys {
		dst[i] = p.Route(k)
	}
}

// RouteBatchDigests routes a batch through p and returns the computed
// digests in digs, using the native path when available. The fallback
// digests each key once and routes through RouteDigest (or Route for
// foreign implementations, which re-digests — exact, just slower).
func RouteBatchDigests(p Partitioner, keys []string, digs []KeyDigest, dst []int) {
	if dbp, ok := p.(DigestBatchPartitioner); ok {
		dbp.RouteBatchDigests(keys, digs, dst)
		return
	}
	checkBatchDigests(keys, digs, dst)
	for i, k := range keys {
		digs[i] = hashing.Digest(k)
		dst[i] = RouteDigest(p, digs[i], k)
	}
}

func checkBatch(keys []string, dst []int) {
	if len(dst) < len(keys) {
		panic("core: RouteBatch dst shorter than keys")
	}
}

func checkBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatch(keys, dst)
	if len(digs) < len(keys) {
		panic("core: RouteBatchDigests digs shorter than keys")
	}
}

// fillDigests performs the batch's single scan of each key's bytes.
func fillDigests(keys []string, digs []KeyDigest) {
	for i, k := range keys {
		digs[i] = hashing.Digest(k)
	}
}

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
// the solver picks a large d — and with the cache the batch path pays it
// once per (head key, d window) instead of once per run.
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
	cands  []int32 // flat [sets·candWays][stride]
	// Dedup stamps: mark[w] == epoch means worker w is already in the
	// list being built. An epoch bump invalidates every mark in O(1),
	// making a miss O(d) instead of the O(d²) a membership scan costs —
	// the difference between microseconds and milliseconds per miss
	// once the solver picks d in the thousands (large deployments).
	mark  []int32
	epoch int32

	// Hit/miss counters over lookup calls (one lookup serves a whole
	// run, so these count runs, not messages); surfaced via RouteStats.
	// Note the hot-key memo in DChoices.headCands short-circuits most
	// lookups for the dominant key — memo hits never reach the cache.
	hits   int64
	misses int64
}

// newCandCache returns a cache for n workers whose entries fit
// derivations at d (D-Choices starts at 2 and re-fits after each solve;
// ForcedD's d is fixed).
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

// lookup returns the candidate list for (dg, d), deriving and caching
// it on miss (into the set's least-recently-used way). The stored list
// is deduplicated preserving first-occurrence order, which routes
// identically: a duplicate worker can never beat its first occurrence
// (same load, later position), so dropping it changes neither the
// argmin nor the tie-break — while shortening the scan the router pays
// per message (at d near n, hash collisions make the list noticeably
// shorter than d). A hit serves any d within the entry's derivation
// window as the recorded dedup prefix (see candDWindow).
func (cc *candCache) lookup(dg KeyDigest, d int, f *hashing.Family) []int32 {
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
			return cc.cands[w*cc.stride : w*cc.stride+cc.prefixLen(w, d)]
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
	return cc.cands[victim*cc.stride : victim*cc.stride+cc.prefixLen(victim, d)]
}

// prefixLen returns the dedup length at d of entry w's derivation, for
// d within its window: the full length less the first occurrences among
// the dhi − d buckets past d.
func (cc *candCache) prefixLen(w, d int) int {
	k := uint(int(cc.dhi[w]) - d)
	return int(cc.lens[w]) - int(k) + bits.OnesCount64(cc.dups[w]&(1<<k-1))
}

// runLen returns the length of the run of identical keys starting at i.
// Repeated keys in a slab usually share the same backing string (the
// generators intern them), so the comparison is a pointer check.
func runLen(keys []string, i int) int {
	k := keys[i]
	j := i + 1
	for j < len(keys) && keys[j] == k {
		j++
	}
	return j - i
}

// runLenDigest is runLen over precomputed digests: an integer compare
// per message. Two distinct keys sharing a digest route (and count)
// identically everywhere in the digest world, so merging their runs is
// exact, not an approximation.
func runLenDigest(digs []hashing.KeyDigest, i int) int {
	d := digs[i]
	j := i + 1
	for j < len(digs) && digs[j] == d {
		j++
	}
	return j - i
}

// ---------------------------------------------------------------------------
// Baselines

// RouteBatch implements BatchPartitioner: a tight digest-and-mix loop.
// KG's per-message work is already a single digest and mix, below the
// cost of run detection, so the batch win here is just the hoisted
// bounds and dispatch.
func (k *KeyGrouping) RouteBatch(keys []string, dst []int) {
	checkBatch(keys, dst)
	for i, key := range keys {
		dst[i] = k.family.BucketDigest(0, hashing.Digest(key), k.n)
	}
}

// RouteBatchDigests implements DigestBatchPartitioner.
func (k *KeyGrouping) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	for i, key := range keys {
		dg := hashing.Digest(key)
		digs[i] = dg
		dst[i] = k.family.BucketDigest(0, dg, k.n)
	}
}

// RouteBatch implements BatchPartitioner: keys are ignored, so the whole
// slab is a tight round-robin fill.
func (s *ShuffleGrouping) RouteBatch(keys []string, dst []int) {
	checkBatch(keys, dst)
	w := s.next
	for i := range keys {
		dst[i] = w
		w++
		if w == s.n {
			w = 0
		}
	}
	s.next = w
}

// RouteBatchDigests implements DigestBatchPartitioner. Routing ignores
// the keys, but the contract — digs[i] = Digest(keys[i]) — still holds,
// so a caller that aggregates downstream gets its digests from the same
// call regardless of the edge's algorithm.
func (s *ShuffleGrouping) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	s.RouteBatch(keys, dst)
}

// RouteBatch implements BatchPartitioner (one loop, shared with the
// digest-carry form: the scratch store costs a cached write per
// message, below measurement noise).
func (p *PKG) RouteBatch(keys []string, dst []int) {
	p.RouteBatchDigests(keys, p.scratchDigests(len(keys)), dst)
}

// RouteBatchDigests implements DigestBatchPartitioner: a tight
// digest–two-mix–pick loop. PKG keeps no sketch, so (like KG) there is
// nothing a run can amortize that would repay the run-detection
// compare; the batch win is the hoisted dispatch and bounds. The plain
// increments are safe: PKG never argmins over the whole vector, so it
// never carries a load index to keep in sync.
func (p *PKG) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	loads := p.loads
	for i, key := range keys {
		dg := hashing.Digest(key)
		digs[i] = dg
		w0 := p.family.BucketDigest(0, dg, p.n)
		w1 := p.family.BucketDigest(1, dg, p.n)
		if loads[w1] < loads[w0] {
			w0 = w1
		}
		loads[w0]++
		dst[i] = w0
	}
}

// ---------------------------------------------------------------------------
// Head-tracking schemes
//
// Within a run of one key in insertion-only sketch mode, the key's
// estimated count and the stream length each advance by exactly 1 per
// message, so head membership for message m of the run is a pure
// arithmetic predicate (HeadTracker.isHeadAt) over the state after the
// run's first offer — and monotone in m (see maxMonotoneTheta), so one
// crossing scan splits the run into a tail segment and a head segment.
// Nothing reads the sketch between the messages of a run except the
// D-Choices solver, so the whole run is offered in ONE OfferDigestN
// (HeadTracker.observeRun); D-Choices switches to a careful deferred-
// offer path for the rare runs that may contain a re-solve.

// routeBatchFallback drives the per-message path (sliding-window sketch
// mode, where rotation points depend on exact offer order, or a θ
// outside the monotone range). The digests are already filled, so even
// the fallback scans each key once.
func routeBatchFallback(p DigestRouter, keys []string, digs []KeyDigest, dst []int) {
	for i, k := range keys {
		dst[i] = p.RouteDigest(digs[i], k)
	}
}

// RouteBatch implements BatchPartitioner (Algorithm 1 with D-CHOICES).
func (p *DChoices) RouteBatch(keys []string, dst []int) {
	p.RouteBatchDigests(keys, p.scratchDigests(len(keys)), dst)
}

// RouteBatchDigests implements DigestBatchPartitioner.
func (p *DChoices) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	if !p.head.canBatch() {
		routeBatchFallback(p, keys, digs, dst)
		return
	}
	for i := 0; i < len(keys); {
		r := runLenDigest(digs[:len(keys)], i)
		p.routeRun(digs[i], keys[i], r, dst[i:i+r])
		i += r
	}
}

// routeRun routes r consecutive messages of one key, reproducing the
// decision sequence of r Route calls exactly. The common case offers
// the whole run to the sketch in one operation: that is legal whenever
// no solver re-solve can fall inside the run, because then nothing
// reads the sketch between the run's messages. A re-solve is possible
// only when the post-offer stream position crosses lastSolveN +
// SolveEvery inside the run (or while no solve has ever happened);
// those rare runs take the careful path, which defers offers around
// the solve so FINDOPTIMALCHOICES sees exactly the sequential state.
func (p *DChoices) routeRun(dg KeyDigest, key string, r int, dst []int) {
	if p.solved {
		n0 := p.head.observed() + 1 // post-offer position of message 1
		if n0+uint64(r-1) < p.lastSolveN+uint64(p.solveEvery) {
			p.routeRunBulk(dg, key, r, dst)
			return
		}
	}
	p.routeRunNearSolve(dg, key, r, dst)
}

// routeRunBulk is the fast path: one sketch operation for the run, one
// head-crossing scan, then branch-free tail and head loops over cached
// candidates. Callers guarantee no re-solve can trigger inside the run,
// so p.d is fixed.
func (p *DChoices) routeRunBulk(dg KeyDigest, key string, r int, dst []int) {
	c0, n0 := p.head.observeRun(dg, key, r)
	cross := p.head.headCrossing(c0, n0, r)
	if cross > 0 {
		p.routeTailSeg(dg, dst[:cross])
	}
	if cross == r {
		return
	}
	p.head.noteHead(r - cross)
	if p.d >= p.n {
		for m := cross; m < r; m++ {
			dst[m] = p.routeAll()
		}
		return
	}
	p.routeHead(dg, p.headCands(dg), dst[cross:r])
}

// routeTailSeg routes a segment of tail messages of one key: the
// 2-choice pair is derived once, then two load compares per message
// (plus the O(log n) load-index repair when the scheme carries one).
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

// routeRunNearSolve is the careful path for runs that may contain a
// re-solve: offers are deferred and synced so the solver reads exactly
// the sequential sketch state.
func (p *DChoices) routeRunNearSolve(dg KeyDigest, key string, r int, dst []int) {
	c0, n0 := p.head.observeFirst(dg, key)
	off := 1 // run messages offered to the sketch so far

	var t0, t1 int // tail candidate pair, derived on first tail message
	haveTail := false
	var headCands []int32 // cached candidate list for headD choices
	headD := -1

	for m := 0; m < r; {
		cm, nm := c0+uint64(m), n0+uint64(m)
		if !p.head.isHeadAt(cm, nm) {
			if !haveTail {
				t0 = p.family.BucketDigest(0, dg, p.n)
				t1 = p.family.BucketDigest(1, dg, p.n)
				haveTail = true
			}
			w := t0
			if p.loads[t1] < p.loads[t0] {
				w = t1
			}
			p.bump(w)
			dst[m] = w
			m++
			continue
		}
		// Head message. Route calls findOptimalChoices here; it is a
		// cached read unless the solve cadence has elapsed, in which case
		// the solver must see the sketch exactly as the sequential path
		// would: all offers up to and including this message, none after.
		if p.solveDue(nm) {
			if off < m+1 {
				p.head.offerRest(dg, key, uint64(m+1-off))
				off = m + 1
			}
			p.findOptimalChoices()
			headD = -1 // d may have changed
		}
		// Extend to the longest chunk of head messages with no re-solve
		// due; the d checks and candidate lookup are hoisted out of it.
		t := 1
		for m+t < r {
			nj := n0 + uint64(m+t)
			if p.solveDue(nj) || !p.head.isHeadAt(c0+uint64(m+t), nj) {
				break
			}
			t++
		}
		p.head.noteHead(t)
		if p.d >= p.n {
			for j := m; j < m+t; j++ {
				dst[j] = p.routeAll()
			}
		} else {
			if headD != p.d {
				headCands = p.cache.lookup(dg, p.d, p.family)
				headD = p.d
			}
			p.routeHead(dg, headCands, dst[m:m+t])
		}
		m += t
	}
	if off < r {
		p.head.offerRest(dg, key, uint64(r-off))
	}
}

// RouteBatch implements BatchPartitioner (Algorithm 1 with W-CHOICES).
func (p *WChoices) RouteBatch(keys []string, dst []int) {
	p.RouteBatchDigests(keys, p.scratchDigests(len(keys)), dst)
}

// RouteBatchDigests implements DigestBatchPartitioner.
func (p *WChoices) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	if !p.head.canBatch() {
		routeBatchFallback(p, keys, digs, dst)
		return
	}
	for i := 0; i < len(keys); {
		r := runLenDigest(digs[:len(keys)], i)
		p.routeRun(digs[i], keys[i], r, dst[i:i+r])
		i += r
	}
}

// routeRun routes r consecutive messages of one key. W-Choices never
// reads the sketch between a run's messages (no solver), so the whole
// run is offered in one sketch operation, split once at the head
// crossing, and routed with branch-free loops.
func (p *WChoices) routeRun(dg KeyDigest, key string, r int, dst []int) {
	c0, n0 := p.head.observeRun(dg, key, r)
	cross := p.head.headCrossing(c0, n0, r)
	if cross > 0 {
		p.routeTailSeg(dg, dst[:cross])
	}
	p.head.noteHead(r - cross)
	for m := cross; m < r; m++ {
		dst[m] = p.routeAll()
	}
}

// RouteBatch implements BatchPartitioner (RR head baseline).
func (p *RoundRobin) RouteBatch(keys []string, dst []int) {
	p.RouteBatchDigests(keys, p.scratchDigests(len(keys)), dst)
}

// RouteBatchDigests implements DigestBatchPartitioner.
func (p *RoundRobin) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	if !p.head.canBatch() {
		routeBatchFallback(p, keys, digs, dst)
		return
	}
	for i := 0; i < len(keys); {
		r := runLenDigest(digs[:len(keys)], i)
		p.routeRun(digs[i], keys[i], r, dst[i:i+r])
		i += r
	}
}

// routeRun routes r consecutive messages of one key; head messages take
// the round-robin ring in a tight fill, tail messages the cached
// 2-choice pair. Like W-Choices, the run is offered in one sketch
// operation. The ring fill's plain increments are safe: RR never
// argmins over the whole vector, so it never carries a load index.
func (p *RoundRobin) routeRun(dg KeyDigest, key string, r int, dst []int) {
	c0, n0 := p.head.observeRun(dg, key, r)
	cross := p.head.headCrossing(c0, n0, r)
	if cross > 0 {
		p.routeTailSeg(dg, dst[:cross])
	}
	p.head.noteHead(r - cross)
	w := p.next
	for m := cross; m < r; m++ {
		dst[m] = w
		p.loads[w]++
		w++
		if w == p.n {
			w = 0
		}
	}
	if cross < r {
		p.next = w
	}
}

// RouteBatch implements BatchPartitioner (fixed-d experimental scheme).
func (p *ForcedD) RouteBatch(keys []string, dst []int) {
	p.RouteBatchDigests(keys, p.scratchDigests(len(keys)), dst)
}

// RouteBatchDigests implements DigestBatchPartitioner.
func (p *ForcedD) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	if !p.head.canBatch() {
		routeBatchFallback(p, keys, digs, dst)
		return
	}
	for i := 0; i < len(keys); {
		r := runLenDigest(digs[:len(keys)], i)
		p.routeRun(digs[i], keys[i], r, dst[i:i+r])
		i += r
	}
}

// routeRun routes r consecutive messages of one key with the forced d
// for head messages. Like W-Choices, the run is offered in one sketch
// operation and split once at the head crossing.
func (p *ForcedD) routeRun(dg KeyDigest, key string, r int, dst []int) {
	c0, n0 := p.head.observeRun(dg, key, r)
	cross := p.head.headCrossing(c0, n0, r)
	if cross > 0 {
		p.routeTailSeg(dg, dst[:cross])
	}
	if cross == r {
		return
	}
	p.head.noteHead(r - cross)
	if p.d == p.n {
		for m := cross; m < r; m++ {
			dst[m] = p.routeAll()
		}
		return
	}
	p.routeHead(dg, p.cache.lookup(dg, p.d, p.family), dst[cross:r])
}

// RouteBatch implements BatchPartitioner. Unlike the other schemes it
// does NOT delegate to RouteBatchDigests: Oracle's head runs never need
// a digest at all (routeAll is load-only) and tail runs need one per
// RUN, so filling the whole slab would digest every message of a
// head-dominated stream for nothing. Parity with RouteBatchDigests is
// pinned by the experimental batch-parity test.
func (p *Oracle) RouteBatch(keys []string, dst []int) {
	checkBatch(keys, dst)
	for i := 0; i < len(keys); {
		r := runLen(keys, i)
		key := keys[i]
		if p.isHead(key) {
			for j := i; j < i+r; j++ {
				dst[j] = p.routeAll()
			}
		} else {
			p.routeTailSeg(hashing.Digest(key), dst[i:i+r])
		}
		i += r
	}
}

// RouteBatchDigests implements DigestBatchPartitioner. Run detection
// stays over key identity (the oracle predicate is a pure function of
// the key string, not the digest, and is evaluated once per run), while
// head runs and tail routing use the filled slab.
func (p *Oracle) RouteBatchDigests(keys []string, digs []KeyDigest, dst []int) {
	checkBatchDigests(keys, digs, dst)
	fillDigests(keys, digs)
	for i := 0; i < len(keys); {
		r := runLen(keys, i)
		if p.isHead(keys[i]) {
			for j := i; j < i+r; j++ {
				dst[j] = p.routeAll()
			}
		} else {
			p.routeTailSeg(digs[i], dst[i:i+r])
		}
		i += r
	}
}

// Interface conformance for every algorithm.
var (
	_ DigestBatchPartitioner = (*KeyGrouping)(nil)
	_ DigestBatchPartitioner = (*ShuffleGrouping)(nil)
	_ DigestBatchPartitioner = (*PKG)(nil)
	_ DigestBatchPartitioner = (*DChoices)(nil)
	_ DigestBatchPartitioner = (*WChoices)(nil)
	_ DigestBatchPartitioner = (*RoundRobin)(nil)
	_ DigestBatchPartitioner = (*ForcedD)(nil)
	_ DigestBatchPartitioner = (*Oracle)(nil)
	_ DigestRouter           = (*KeyGrouping)(nil)
	_ DigestRouter           = (*ShuffleGrouping)(nil)
	_ DigestRouter           = (*PKG)(nil)
	_ DigestRouter           = (*DChoices)(nil)
	_ DigestRouter           = (*WChoices)(nil)
	_ DigestRouter           = (*RoundRobin)(nil)
	_ DigestRouter           = (*ForcedD)(nil)
	_ DigestRouter           = (*Oracle)(nil)
)
