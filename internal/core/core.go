// Package core implements the paper's stream partitioning algorithms:
// the baselines Key Grouping (KG), Shuffle Grouping (SG) and Partial Key
// Grouping (PKG, Nasir et al. ICDE 2015), and the contribution of the
// reproduced paper — D-Choices, W-Choices and the Round-Robin head
// baseline — which detect the head of the key distribution online with a
// SpaceSaving sketch and give hot keys d ≥ 2 choices (Algorithm 1).
// W-Choices is D-Choices with d pinned at n (NewWChoices), and the
// Fig. 9 instrument is D-Choices with d pinned anywhere in [2, n]
// (NewForcedD): one type, one routing body.
//
// A Partitioner instance embodies the state of ONE source (sender): load
// estimates are local to the sender, exactly as in the paper ("the load
// is determined based only on local information available at the
// sender"). Simulations create one instance per source from a shared
// Config.
//
// # The hash-once lifecycle
//
// Routing operates on KeyDigest, the 64-bit digest of a key's bytes
// (hashing.Digest). A key is digested exactly ONCE per message, at the
// source, and the digest then travels with the message through every
// later layer: all d candidate workers, the sketch's monitored-entry
// table, the routing runs, the engines' tuples and the aggregation
// tables derive from that one digest — source → route → aggregate →
// reduce, with no second scan of the key bytes anywhere. The paper's
// correctness invariant — all senders map a key to the same candidate
// workers — therefore reads: same digest → same candidates. The digest
// is a pure, seed-independent function of the key bytes, and candidate
// derivation depends only on (digest, Seed), never on Instance, so the
// invariant holds across senders by construction. Distinct keys share
// a digest only with probability ≈ 2⁻⁶⁴ per pair; such keys are
// routed, aggregated and counted as one.
//
// # One routing body per scheme
//
// Each scheme writes its decision procedure once, as a body that routes
// a run of consecutive messages of one key whose digest is already
// known (PKG, whose per-message work is cheaper than detecting runs,
// routes a whole slab instead). Partitioner has one routing call,
// RouteBatchDigests, shared by every scheme (batch.go): it digests a
// slab once, routes it run by run, and hands the digests to the caller
// so downstream layers (windowed aggregation, re-keying) reuse them
// instead of re-scanning. A single message is a slab of one and a run
// of one, so slab boundaries never change a decision, and a run only
// amortizes — sketch offers, candidate lookups, the head predicate —
// what Algorithm 1 would do for its messages one at a time.
package core

import (
	"fmt"
	"math"
	"sort"

	"slb/internal/analysis"
	"slb/internal/hashing"
	"slb/internal/spacesaving"
)

// KeyDigest is the 64-bit digest every routing layer identifies keys by;
// see hashing.KeyDigest.
type KeyDigest = hashing.KeyDigest

// Digest returns the canonical digest of a key: one scan of the key
// bytes. All candidate buckets and sketch lookups derive from it.
func Digest(key string) KeyDigest { return hashing.Digest(key) }

// Partitioner routes each message of a keyed stream to one of n workers.
// Implementations are single-goroutine: each source owns one instance.
// Routing is one call over a slab of any length: cutting a stream into
// different slabs routes every message identically.
type Partitioner interface {
	// RouteBatchDigests routes keys[i] to dst[i] in [0, Workers()),
	// updating any internal state (local loads, sketches), and fills
	// digs[i] with Digest(keys[i]) — the one scan of each key's bytes
	// the whole system performs, kept by callers that aggregate or
	// re-key downstream. It panics if digs or dst is shorter than keys.
	RouteBatchDigests(keys []string, digs []KeyDigest, dst []int)
	// Workers returns n, the number of downstream workers.
	Workers() int
}

// Config carries the common parameters of Table III. Every field changes
// routing or the sketch; the routing accelerators (the floor index, the
// candidate cache and its level cursors) are not settings.
type Config struct {
	// Workers is n, the number of downstream operator instances.
	Workers int
	// Seed derives the hash family and any sampling; fixed seed means
	// exactly reproducible routing.
	Seed uint64
	// Instance is the index of this sender among its peers. It offsets
	// the starting phase of the round-robin schemes (SG, RR) so that
	// multiple senders do not hit the same worker in lockstep — Storm
	// starts each task at a random position. It does NOT affect hashing:
	// all senders must map a key (digest) to the same candidate workers.
	Instance int
	// Theta is the head frequency threshold θ; 0 means the paper's
	// default 1/(5n).
	Theta float64
	// Epsilon is the imbalance tolerance ε of the d-solver; 0 means the
	// paper's default 1e-4.
	Epsilon float64
	// SketchCapacity is the SpaceSaving capacity; 0 means 4·⌈1/θ⌉,
	// comfortably above the 1/θ needed to catch every head key.
	SketchCapacity int
	// SolveEvery is how many observed messages may elapse between
	// re-computations of d by FINDOPTIMALCHOICES in D-Choices; 0 means
	// 1024. The solve also reruns whenever the head set changes size.
	SolveEvery int
	// SketchWindow, when positive, switches head tracking to a sliding
	// two-generation SpaceSaving over the most recent 1–2 windows of the
	// stream (extension for drifting workloads: bounded adaptation
	// latency). 0 keeps the paper's insertion-only sketch.
	SketchWindow uint64
}

// maxAutoSketchCapacity bounds the derived sketch capacity 4·⌈1/θ⌉; a θ
// small enough to exceed it would silently overflow the int arithmetic
// (or allocate a sketch larger than memory), so it is rejected instead.
const maxAutoSketchCapacity = 1 << 28

// withDefaults validates the configuration and resolves zero fields to
// the paper's defaults. Invalid values panic with a description of the
// offending field: a partitioner built from a nonsensical config would
// route garbage silently, which is strictly worse than failing loudly at
// construction.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		panic("core: Config.Workers must be positive")
	}
	if math.IsNaN(c.Theta) || c.Theta < 0 {
		panic(fmt.Sprintf("core: Config.Theta must be ≥ 0 (0 selects the default 1/(5n)); got %v", c.Theta))
	}
	if math.IsNaN(c.Epsilon) || c.Epsilon < 0 {
		panic(fmt.Sprintf("core: Config.Epsilon must be ≥ 0 (0 selects the default 1e-4); got %v", c.Epsilon))
	}
	if c.SketchCapacity < 0 {
		panic(fmt.Sprintf("core: Config.SketchCapacity must be ≥ 0 (0 selects the default 4·⌈1/θ⌉); got %d", c.SketchCapacity))
	}
	if c.SolveEvery < 0 {
		panic(fmt.Sprintf("core: Config.SolveEvery must be ≥ 0 (0 selects the default 1024); got %d", c.SolveEvery))
	}
	if c.Theta == 0 {
		c.Theta = 1.0 / (5 * float64(c.Workers))
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-4
	}
	if c.SketchCapacity == 0 {
		raw := 4 * (1/c.Theta + 1)
		if raw > maxAutoSketchCapacity {
			panic(fmt.Sprintf("core: Config.Theta %v is too small to derive a sketch capacity (4·⌈1/θ⌉ > %d); set Config.SketchCapacity explicitly", c.Theta, maxAutoSketchCapacity))
		}
		c.SketchCapacity = int(raw)
	}
	if c.SolveEvery == 0 {
		c.SolveEvery = 1024
	}
	return c
}

// Names of all algorithms, in the paper's presentation order.
var Names = []string{"KG", "SG", "PKG", "D-C", "W-C", "RR"}

// New constructs a partitioner by its paper symbol.
func New(name string, cfg Config) (Partitioner, error) {
	switch name {
	case "KG":
		return NewKeyGrouping(cfg), nil
	case "SG":
		return NewShuffleGrouping(cfg), nil
	case "PKG":
		return NewPKG(cfg), nil
	case "D-C":
		return NewDChoices(cfg), nil
	case "W-C":
		return NewWChoices(cfg), nil
	case "RR":
		return NewRoundRobin(cfg), nil
	}
	return nil, fmt.Errorf("core: unknown partitioner %q", name)
}

// ---------------------------------------------------------------------------
// Baselines

// KeyGrouping sends all messages of a key to one hashed worker.
type KeyGrouping struct {
	router
	n      int
	family *hashing.Family
}

// NewKeyGrouping returns a KG partitioner.
func NewKeyGrouping(cfg Config) *KeyGrouping {
	cfg = cfg.withDefaults()
	k := &KeyGrouping{n: cfg.Workers, family: hashing.NewFamily(1, cfg.Seed)}
	k.runs = k
	return k
}

// routeRun is KG's routing body: one mix of the digest per run.
func (k *KeyGrouping) routeRun(dg KeyDigest, _ string, dst []int) {
	w := k.family.BucketDigest(0, dg, k.n)
	for m := range dst {
		dst[m] = w
	}
}

// Workers implements Partitioner.
func (k *KeyGrouping) Workers() int { return k.n }

// ShuffleGrouping distributes messages round-robin, ignoring keys.
type ShuffleGrouping struct {
	router
	n    int
	next int
}

// NewShuffleGrouping returns an SG partitioner. The starting offset is
// derived from the seed and the sender instance so distinct sources
// interleave across workers instead of marching in lockstep.
func NewShuffleGrouping(cfg Config) *ShuffleGrouping {
	cfg = cfg.withDefaults()
	s := &ShuffleGrouping{n: cfg.Workers, next: phaseOffset(cfg)}
	s.runs = s
	return s
}

// phaseOffset spreads sender instances around the worker ring.
func phaseOffset(cfg Config) int {
	return int((cfg.Seed + uint64(cfg.Instance)*7919) % uint64(cfg.Workers))
}

// routeRun is SG's routing body: keys are ignored, the run continues
// the round-robin ring.
func (s *ShuffleGrouping) routeRun(_ KeyDigest, _ string, dst []int) {
	s.next = ringFill(dst, s.next, s.n)
}

// ringFill assigns dst the workers next, next+1, … around a ring of n
// and returns the position after the last one.
func ringFill(dst []int, next, n int) int {
	for m := range dst {
		dst[m] = next
		next++
		if next == n {
			next = 0
		}
	}
	return next
}

// Workers implements Partitioner.
func (s *ShuffleGrouping) Workers() int { return s.n }

// ---------------------------------------------------------------------------
// Greedy-d core

// greedy holds the state shared by all load-aware schemes: the hash
// family and this sender's local load vector. Schemes that argmin over
// the whole vector (D-C at d ≥ n, which W-C is, and Oracle) build the
// floor index on first use (see index); while indexed is false,
// increments are plain.
type greedy struct {
	n       int
	family  *hashing.Family
	loads   []int64
	idx     floorIndex // least-loaded worker; maintained only while indexed
	indexed bool

	// Plain (single-goroutine, like the partitioner itself) argmin-path
	// counters, surfaced through RouteStats: messages routed via the
	// floor index vs over a candidate list. One int64 increment on paths
	// that cost tens of ns — below measurement noise. nPasses counts the
	// level cursor's passes (see routeHead).
	nTreeMin int64
	nScanMin int64
	nPasses  int64
}

func newGreedy(cfg Config) greedy {
	return greedy{
		n:      cfg.Workers,
		family: hashing.NewFamily(cfg.Workers, cfg.Seed),
		loads:  make([]int64, cfg.Workers),
	}
}

// index returns the floor index, building it from the live loads on
// the first whole-vector argmin after construction or after a release
// (D-C releases it when a solve takes d below n, so a build happens at
// most once per solve). Until then increments carry no upkeep. Only D-C
// (W-C included) and Oracle reach this, and they send every increment
// through bump; PKG and RR, which increment loads directly, never build
// it.
func (g *greedy) index() *floorIndex {
	if !g.indexed {
		g.idx.build(g.loads)
		g.indexed = true
	}
	return &g.idx
}

// bump accounts one message on worker w, maintaining the floor index
// while there is one. Every load increment of an indexed scheme must go
// through here, or the index goes stale.
func (g *greedy) bump(w int) {
	l := g.loads[w] + 1
	g.loads[w] = l
	if g.indexed {
		g.idx.bump(w, l)
	}
}

// routeAll picks the globally least-loaded worker, lowest index on ties
// (W-Choices head path: "there is no need to hash the keys in the
// head"): the floor index's read and bump, O(1) amortized at any n.
func (g *greedy) routeAll() int {
	g.nTreeMin++
	w := g.index().min()
	g.bump(w)
	return w
}

// PKG is Partial Key Grouping: the Greedy-d process with d = 2 for every
// key.
type PKG struct {
	greedy
	router
}

// NewPKG returns a PKG partitioner.
func NewPKG(cfg Config) *PKG {
	cfg = cfg.withDefaults()
	p := &PKG{greedy: newGreedy(cfg)}
	p.slab = p
	return p
}

// routeSlab is PKG's routing body, the one scheme that routes a whole
// slab rather than runs: a tight digest–two-mix–pick loop. PKG keeps no
// sketch, so there is nothing a run could amortize that would repay the
// run-detection compare. The loop computes each digest where it is
// used: a separate digest pass cost the z = 2.0 cells 12%. The plain
// increments are safe: PKG never argmins over the whole vector, so it
// never carries a load index to keep in sync.
func (p *PKG) routeSlab(keys []string, digs []KeyDigest, dst []int) {
	loads := p.loads
	for i, key := range keys {
		dg := hashing.Digest(key)
		digs[i] = dg
		w0, w1 := p.family.BucketDigest(0, dg, p.n), p.family.BucketDigest(1, dg, p.n)
		if loads[w1] < loads[w0] {
			w0 = w1
		}
		loads[w0]++
		dst[i] = w0
	}
}

// Workers implements Partitioner.
func (p *PKG) Workers() int { return p.n }

// ---------------------------------------------------------------------------
// Head tracking (shared by D-C, W-C, RR)

// minHeadCount is the minimum estimated count before a key may be
// classified as head. With very few observations, relative frequencies
// are pure noise (the first key seen has estimated frequency 1); a
// count floor makes detection latency inversely proportional to a key's
// true frequency, so the hot keys that actually matter are caught after
// a handful of messages while marginal keys — for which a brief
// misclassification is harmless — take longer.
const minHeadCount = 4

// HeadTracker runs the per-sender SpaceSaving instance and answers "is
// this key currently in the head H = {k : p̂_k ≥ θ}?" (Algorithm 1,
// UPDATESPACESAVING). With Config.SketchWindow set it uses the sliding
// two-generation sketch instead, bounding adaptation latency under
// concept drift.
type HeadTracker struct {
	sketch *spacesaving.Summary  // insertion-only mode (the paper's)
	win    *spacesaving.Windowed // sliding mode (drift extension)
	theta  float64
	// headMsgs counts messages classified as head (plain counter,
	// single-goroutine like the owning partitioner; see RouteStats),
	// a run's whole head segment at a time.
	headMsgs int64

	// Scratch of headSnapshot (grows to the largest head seen).
	snapCounts []uint64
	snapHead   []float64
}

func newHeadTracker(cfg Config) HeadTracker {
	h := HeadTracker{theta: cfg.Theta}
	if cfg.SketchWindow > 0 {
		h.win = spacesaving.NewWindowed(cfg.SketchCapacity, cfg.SketchWindow)
	} else {
		h.sketch = spacesaving.New(cfg.SketchCapacity)
	}
	return h
}

// noteHead accounts n head-classified messages of a run.
func (h *HeadTracker) noteHead(n int) { h.headMsgs += int64(n) }

// sketchStats returns the occupancy, capacity, and lifetime eviction
// count (head churn) of the tracker's sketch, in either mode.
func (h *HeadTracker) sketchStats() (length, capacity int, evictions uint64) {
	if h.win != nil {
		return h.win.Len(), h.win.Capacity(), h.win.Evictions()
	}
	return h.sketch.Len(), h.sketch.Capacity(), h.sketch.Evictions()
}

// isHeadAt is Algorithm 1's head test p̂_k ≥ θ for a key whose
// estimated count is count after an offer that made the stream n long,
// behind a floor of minHeadCount. Within a run of one key
// (insertion-only mode) both the key's count and N advance by exactly 1
// per message, so it classifies every message of the run from the state
// after the first without touching the sketch.
func (h *HeadTracker) isHeadAt(count, n uint64) bool {
	if count < minHeadCount {
		return false
	}
	return float64(count) >= h.theta*float64(n)
}

// maxMonotoneTheta bounds the θ for which the head predicate is
// provably monotone within a run of one key: per message the count
// grows by exactly 1 while the threshold θ·N grows by θ < 1, so once a
// run's messages enter the head they stay there. The margin (1−θ) also
// has to absorb the rounding error of θ·float64(N) — far below 0.01 for
// any reachable N — hence the 0.99 cutoff rather than 1.
const maxMonotoneTheta = 0.99

// canBatch reports whether runs longer than one message preserve exact
// per-message semantics. It requires the paper's insertion-only sketch
// (the sliding-window mode rotates generations at arbitrary offsets)
// and a θ in the monotone range (see maxMonotoneTheta); otherwise every
// run is one message long (router.unit).
func (h *HeadTracker) canBatch() bool {
	return h.sketch != nil && h.theta <= maxMonotoneTheta
}

// headCrossing returns the first message index m in [0, r) of a run at
// which the key enters the head, or r if it never does. Monotonicity
// (see maxMonotoneTheta) makes every message from the crossing on a
// head message, so callers route [0, cross) as tail and [cross, r) as
// head with no per-message predicate.
func (h *HeadTracker) headCrossing(c0, n0 uint64, r int) int {
	for m := 0; m < r; m++ {
		if h.isHeadAt(c0+uint64(m), n0+uint64(m)) {
			return m
		}
	}
	return r
}

// offerRest applies r deferred offers of a run's key in one sketch
// operation (insertion-only mode only — windowed runs are one message —
// and the key is monitored after the run's first offer, so the offers
// are pure increments).
func (h *HeadTracker) offerRest(dg KeyDigest, key string, r uint64) {
	if r > 0 {
		h.sketch.OfferDigestN(dg, key, r)
	}
}

// observeRun offers r identical messages in ONE sketch operation and
// returns the count and stream length as they stood just after the
// FIRST of them. Within a run both advance by exactly 1 per message, so
// the final state determines the first: count₁ = countᵣ − (r−1),
// N₁ = Nᵣ − (r−1). Offering a whole run is legal whenever nothing reads
// the sketch between its messages — true for every head-tracking scheme
// except D-Choices at a solver boundary, which offers one and defers
// the rest (offerRest). In sliding-window mode r is always 1 (see
// canBatch), and an unmonitored key reads as count 0.
func (h *HeadTracker) observeRun(dg KeyDigest, key string, r int) (count, n uint64) {
	if h.win != nil {
		h.win.OfferDigest(dg, key)
		c, _, _ := h.win.CountDigest(dg)
		return c, h.win.N()
	}
	c := h.sketch.OfferDigestN(dg, key, uint64(r))
	return c - uint64(r-1), h.sketch.N() - uint64(r-1)
}

// observed returns the stream mass the tracker's estimates refer to.
func (h *HeadTracker) observed() uint64 {
	if h.win != nil {
		return h.win.N()
	}
	return h.sketch.N()
}

// headSnapshot returns the estimated head frequencies (non-increasing)
// and the estimated tail mass, both normalized by the observed stream
// length. The vector is tracker-owned scratch, valid until the next
// snapshot. In insertion-only mode it is filled from the sketch's bucket
// walk (spacesaving.HeadCounts): counts only, already non-increasing, so
// nothing is copied, sorted or allocated. The sliding-window mode merges
// two generations through a map and keeps the allocating path.
func (h *HeadTracker) headSnapshot() (head []float64, tailMass float64) {
	n := h.observed()
	if n == 0 {
		return nil, 1
	}
	head = h.snapHead[:0]
	mass := 0.0
	if h.win != nil {
		for _, e := range h.win.HeavyHitters(h.theta) {
			head = append(head, float64(e.Count)/float64(n))
			mass += head[len(head)-1]
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(head)))
	} else {
		h.snapCounts = h.sketch.HeadCounts(h.theta, h.snapCounts)
		for _, c := range h.snapCounts {
			head = append(head, float64(c)/float64(n))
			mass += head[len(head)-1]
		}
	}
	h.snapHead = head
	// Estimates can overshoot; keep the vector a valid distribution.
	tailMass = 1 - mass
	if tailMass < 0 {
		tailMass = 0
	}
	return head, tailMass
}

// Sketch exposes the tracker's sketch for merging by a coordinator
// (nil in sliding-window mode, where generations are not mergeable
// across senders): the distributed heavy-hitters generalization, in
// which sources periodically exchange summaries so each sees
// (approximately) global frequencies.
func (h *HeadTracker) Sketch() *spacesaving.Summary { return h.sketch }

// SetSketch replaces the tracker's sketch; the coordinator uses this to
// redistribute a merged global summary back to the senders. No-op in
// sliding-window mode.
func (h *HeadTracker) SetSketch(s *spacesaving.Summary) {
	if h.sketch == nil {
		return
	}
	h.sketch = s
}

// ---------------------------------------------------------------------------
// D-Choices

// DChoices gives head keys the minimal d ≥ 2 choices that satisfies
// Proposition 4.1, and tail keys 2 choices. When the solver concludes
// d ≥ n it degenerates to the W-Choices strategy, as prescribed.
//
// W-Choices and the Fig. 9 instrument are the same Greedy-d process
// with d pinned at construction (NewWChoices, NewForcedD): a pinned
// scheme never runs FINDOPTIMALCHOICES, so every run takes the path a
// run with no solve inside it takes.
type DChoices struct {
	greedy
	router
	head       HeadTracker
	eps        float64
	solveEvery int

	d          int    // current number of choices for the head
	pinned     bool   // d is fixed at construction; the solver never runs
	solved     bool   // whether d has ever been computed
	lastSolveN uint64 // sketch N at the last solve
	solves     int64  // FINDOPTIMALCHOICES runs (instrumentation)
	headSize   int    // |H| at the last solve (instrumentation)
	solver     analysis.Solver

	cache candCache // memoized head-key candidate lists and their level cursors
}

// NewDChoices returns a D-C partitioner.
func NewDChoices(cfg Config) *DChoices { return newDChoices(cfg, 0) }

// NewWChoices returns a W-C partitioner (Algorithm 1 with W-CHOICES):
// D-C with d pinned at n, so head messages go to the globally
// least-loaded worker ("there is no need to hash the keys in the head").
func NewWChoices(cfg Config) *DChoices { return newDChoices(cfg, cfg.Workers) }

// NewForcedD returns D-C with exactly d choices for head keys, d
// clamped to [2, n]: the experimental instrument behind Fig. 9, which
// sweeps d to find the empirical minimum that matches W-Choices'
// imbalance independently of the analytic solver. d = n is W-C.
func NewForcedD(cfg Config, d int) *DChoices { return newDChoices(cfg, max(d, 2)) }

// newDChoices builds D-C, with d pinned at min(pin, n) when pin > 0.
func newDChoices(cfg Config, pin int) *DChoices {
	cfg = cfg.withDefaults()
	d := 2
	if pin > 0 {
		d = min(pin, cfg.Workers)
	}
	// The cache is strided for the d it starts at; at d ≥ n head keys
	// take routeAll and never look candidates up, so it stays minimal.
	cacheD := d
	if d >= cfg.Workers {
		cacheD = 2
	}
	p := &DChoices{
		greedy:     newGreedy(cfg),
		head:       newHeadTracker(cfg),
		eps:        cfg.Epsilon,
		solveEvery: cfg.SolveEvery,
		d:          d,
		pinned:     pin > 0,
		cache:      newCandCache(cfg.Workers, cacheD),
	}
	p.runs, p.unit = p, !p.head.canBatch()
	return p
}

// routeRun is D-C's routing body (Algorithm 1 with D-CHOICES) for a run
// of one key. The run's tail messages — a prefix, by monotonicity —
// take two choices; its head messages take d from FINDOPTIMALCHOICES,
// over the key's cached deduplicated candidate list, or over all
// workers once d ≥ n (the switch to the W-Choices strategy).
//
// A run with no solve due inside it — every run of a pinned scheme —
// is offered to the sketch whole and routed as one tail prefix and one
// head suffix, whose list and cursor come from the candidate cache. A
// run that straddles a solve (or precedes the first) takes
// routeSolveRun. So does every run over a sliding window: its offer can
// rotate a generation out and shrink the stream length, so the solve
// test must read the length the offer left, and its runs are one
// message long. A pinned d < n re-fits the cache on the solve cadence
// instead (fitPinned).
func (p *DChoices) routeRun(dg KeyDigest, key string, dst []int) {
	if n := p.head.observed(); !p.pinned {
		if p.head.win != nil || p.solveDue(n+1) || p.solveDue(n+uint64(len(dst))) {
			p.routeSolveRun(dg, key, dst)
			return
		}
	} else if p.d < p.n && (n < p.lastSolveN || n-p.lastSolveN >= uint64(p.solveEvery)) {
		p.fitPinned(n)
	}
	switch head := p.routeTail(&p.head, dg, key, dst); {
	case len(head) == 0:
	case p.d >= p.n:
		p.routeAllSeg(head)
	default:
		cand, cur := p.cache.lookup(dg, p.d, p.family)
		p.routeHead(cur, cand, head)
	}
}

// fitPinned fits the candidate cache of a pinned d < n to the head the
// sketch observes at stream length n, as a solve would, without solving:
// the static 32 or 64 entries miss on most runs of a head larger than
// that, and every miss drops the key's level cursor. lastSolveN marks
// the fit; a sliding window's shrinking length re-fits at once.
func (p *DChoices) fitPinned(n uint64) {
	head, _ := p.head.headSnapshot()
	p.cache.fit(len(head), p.d)
	p.lastSolveN = n
}

// routeSolveRun routes a run a solve may fall inside. The solver must
// read exactly the sketch message-at-a-time routing would leave, so
// only the first offer is made up front and the rest are deferred until
// a solve or the run's end; the head messages are routed in chunks
// split at the solve points, where d may change.
func (p *DChoices) routeSolveRun(dg KeyDigest, key string, dst []int) {
	r := len(dst)
	c0, n0 := p.head.observeRun(dg, key, 1)
	cross := p.head.headCrossing(c0, n0, r)
	if cross > 0 {
		p.routeTailSeg(dg, dst[:cross])
	}
	p.head.noteHead(r - cross)
	offered := 1
	for m := cross; m < r; {
		if p.solveDue(n0 + uint64(m)) {
			p.head.offerRest(dg, key, uint64(m+1-offered))
			offered = m + 1
			p.findOptimalChoices()
		}
		t := 1
		for m+t < r && !p.solveDue(n0+uint64(m+t)) {
			t++
		}
		if seg := dst[m : m+t]; p.d >= p.n {
			p.routeAllSeg(seg)
		} else {
			cand, cur := p.cache.lookup(dg, p.d, p.family)
			p.routeHead(cur, cand, seg)
		}
		m += t
	}
	p.head.offerRest(dg, key, uint64(r-offered))
}

// findOptimalChoices returns the cached d, re-solving on the configured
// cadence. A solve walks the head (|H| counts out of the sketch's
// buckets) and checks |H| prefix constraints per candidate d. |H| is a
// few dozen keys at the paper's scales but 2,816 at n = 4096, z = 0.8,
// where an Entry snapshot and 2·|H| math.Pow cost 2.3 ms per solve —
// 2.2 µs per message at the default cadence; the counts-only snapshot
// and the solver's memoised tables (analysis.Solver, filled by
// recurrence rather than math.Pow) make it |H| multiply-adds with no
// allocation.
func (p *DChoices) findOptimalChoices() int {
	n := p.head.observed()
	if p.solved && n-p.lastSolveN < uint64(p.solveEvery) {
		return p.d
	}
	p.solves++
	head, tail := p.head.headSnapshot()
	p.headSize = len(head)
	p.d = p.solver.SolveD(head, tail, p.n, p.eps)
	if p.d < 2 {
		p.d = 2
	}
	if p.d < p.n {
		// Fit the candidate cache to the head the sketch actually
		// observes and the d just solved: the snapshot is in hand and the
		// solve cadence makes the (rare) re-layout free. At d ≥ n head
		// keys take routeAll and never look candidates up. Below n
		// nothing reads the floor index, so it is released rather than
		// kept up by every bump; the next routeAll rebuilds it.
		p.cache.fit(len(head), p.d)
		p.indexed = false
	}
	p.solved = true
	p.lastSolveN = n
	return p.d
}

// solveDue reports whether a head message observed at post-offer stream
// length n triggers a re-solve (routeRun syncs the sketch before the
// solve reads it).
func (p *DChoices) solveDue(n uint64) bool {
	return !p.solved || n-p.lastSolveN >= uint64(p.solveEvery)
}

// D returns the current number of choices for head keys: the pinned d,
// or the last solve's (instrumentation).
func (p *DChoices) D() int { return p.d }

// HeadTracker exposes the sender's sketch state for distributed merging.
func (p *DChoices) HeadTracker() *HeadTracker { return &p.head }

// Workers implements Partitioner.
func (p *DChoices) Workers() int { return p.n }

// Oracle is W-Choices with ground-truth head knowledge instead of the
// online sketch: the caller supplies the head membership predicate.
// It is an experimental upper bound used to quantify how much imbalance
// the SpaceSaving estimation error costs (ablation in DESIGN.md §6);
// it is not part of the paper's system (real systems do not know the
// distribution).
type Oracle struct {
	greedy
	router
	isHead func(string) bool
}

// NewOracle returns an oracle-head partitioner. isHead must be a pure
// function of the key.
func NewOracle(cfg Config, isHead func(string) bool) *Oracle {
	cfg = cfg.withDefaults()
	if isHead == nil {
		panic("core: NewOracle requires a head predicate")
	}
	p := &Oracle{greedy: newGreedy(cfg), isHead: isHead}
	p.runs = p
	return p
}

// routeRun is Oracle's routing body: the predicate is evaluated once
// per run (it is a pure function of the key, and a run's messages share
// one digest, hence — up to a 64-bit collision — one key).
func (p *Oracle) routeRun(dg KeyDigest, key string, dst []int) {
	if p.isHead(key) {
		p.routeAllSeg(dst)
	} else {
		p.routeTailSeg(dg, dst)
	}
}

// Workers implements Partitioner.
func (p *Oracle) Workers() int { return p.n }

// ---------------------------------------------------------------------------
// Round-Robin head baseline

// RoundRobin spreads head messages over all workers in a load-oblivious
// round-robin and routes the tail with 2 load-aware choices. It has the
// same memory cost as W-Choices but cannot compensate tail imbalance.
type RoundRobin struct {
	greedy
	router
	head HeadTracker
	next int
}

// NewRoundRobin returns an RR partitioner.
func NewRoundRobin(cfg Config) *RoundRobin {
	cfg = cfg.withDefaults()
	p := &RoundRobin{
		greedy: newGreedy(cfg),
		head:   newHeadTracker(cfg),
		next:   phaseOffset(cfg),
	}
	p.runs, p.unit = p, !p.head.canBatch()
	return p
}

// routeRun is RR's routing body: the whole run is offered at once, and
// its head messages continue the round-robin ring. The plain increments
// are safe: RR never argmins over the whole vector, so it never carries
// a load index.
func (p *RoundRobin) routeRun(dg KeyDigest, key string, dst []int) {
	head := p.routeTail(&p.head, dg, key, dst)
	p.next = ringFill(head, p.next, p.n)
	for _, w := range head {
		p.loads[w]++
	}
}

// Workers implements Partitioner.
func (p *RoundRobin) Workers() int { return p.n }
