// Package core implements the paper's stream partitioning algorithms:
// the baselines Key Grouping (KG), Shuffle Grouping (SG) and Partial Key
// Grouping (PKG, Nasir et al. ICDE 2015), and the contribution of the
// reproduced paper — D-Choices, W-Choices and the Round-Robin head
// baseline — which detect the head of the key distribution online with a
// SpaceSaving sketch and give hot keys d ≥ 2 choices (Algorithm 1).
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
// table, the batch path, the engines' tuples and the aggregation
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
// The APIs expose both ends of the lifecycle. Per message: Route is a
// thin wrapper (digest once, then route), and RouteDigest (see
// DigestRouter) is the carried-digest form for callers that already
// hold the digest. Batched: RouteBatch (see BatchPartitioner) amortizes
// sketch maintenance and candidate derivation over runs of identical
// keys, and RouteBatchDigests (see DigestBatchPartitioner) additionally
// hands the caller the digests routing computed, so downstream layers
// (windowed aggregation, re-keying) reuse them instead of re-scanning.
// All batch variants reproduce Route's decisions message for message.
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
type Partitioner interface {
	// Route returns the worker in [0, Workers()) for one message with the
	// given key, updating any internal state (local loads, sketches).
	Route(key string) int
	// Workers returns n, the number of downstream workers.
	Workers() int
	// Name returns the paper's symbol for the algorithm (KG, SG, PKG,
	// D-C, W-C, RR).
	Name() string
}

// DigestRouter is implemented by partitioners that can route a message
// whose key was already digested, the per-message half of the hash-once
// lifecycle: a caller that carries the digest alongside the key (an
// engine tuple, a flushed aggregation partial) routes without a second
// scan of the key bytes. dg must equal Digest(key); key is still
// required because the head sketches monitor key identities. All
// partitioners in this package implement it, and Route(key) is always
// RouteDigest(Digest(key), key).
type DigestRouter interface {
	RouteDigest(dg KeyDigest, key string) int
}

// RouteDigest routes one pre-digested message through p, using its
// native digest path when available. The fallback for foreign
// Partitioner implementations is plain Route, which re-digests — exact,
// just without the hash-once saving.
func RouteDigest(p Partitioner, dg KeyDigest, key string) int {
	if dr, ok := p.(DigestRouter); ok {
		return dr.RouteDigest(dg, key)
	}
	return p.Route(key)
}

// Config carries the common parameters of Table III.
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
	// LoadIndex selects the argmin structure behind whole-vector load
	// scans (the W-Choices head path, D-Choices at d ≥ n) and large
	// candidate lists: LoadIndexAuto (0, the default) uses the packed
	// conditional-move scan below the measured crossover (n = 128,
	// see loadtree.go) and the O(log n) tournament load tree at or
	// above it; LoadIndexScan forces the scan (requires Workers <
	// 65536, the packing limit); LoadIndexTree forces the tree.
	// Routing decisions are bit-identical in every mode.
	LoadIndex int
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
	if c.LoadIndex < LoadIndexAuto || c.LoadIndex > LoadIndexTree {
		panic(fmt.Sprintf("core: Config.LoadIndex must be LoadIndexAuto, LoadIndexScan or LoadIndexTree; got %d", c.LoadIndex))
	}
	// The packed scan encodes (load << 16 | worker) in one int64, so it
	// cannot represent ≥ 65536 workers; the tournament tree has no such
	// limit, and LoadIndexAuto routes every larger n to it. Only a
	// FORCED scan is rejected.
	if c.LoadIndex == LoadIndexScan && c.Workers >= 1<<packShift {
		panic(fmt.Sprintf("core: Config.LoadIndex=LoadIndexScan requires Workers below %d (packed argmin encoding); got %d", 1<<packShift, c.Workers))
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
	n      int
	family *hashing.Family
}

// NewKeyGrouping returns a KG partitioner.
func NewKeyGrouping(cfg Config) *KeyGrouping {
	cfg = cfg.withDefaults()
	return &KeyGrouping{n: cfg.Workers, family: hashing.NewFamily(1, cfg.Seed)}
}

// Route implements Partitioner.
func (k *KeyGrouping) Route(key string) int {
	return k.RouteDigest(hashing.Digest(key), key)
}

// RouteDigest implements DigestRouter: one mix of the carried digest.
func (k *KeyGrouping) RouteDigest(dg KeyDigest, _ string) int {
	return k.family.BucketDigest(0, dg, k.n)
}

// Workers implements Partitioner.
func (k *KeyGrouping) Workers() int { return k.n }

// Name implements Partitioner.
func (k *KeyGrouping) Name() string { return "KG" }

// ShuffleGrouping distributes messages round-robin, ignoring keys.
type ShuffleGrouping struct {
	n    int
	next int
}

// NewShuffleGrouping returns an SG partitioner. The starting offset is
// derived from the seed and the sender instance so distinct sources
// interleave across workers instead of marching in lockstep.
func NewShuffleGrouping(cfg Config) *ShuffleGrouping {
	cfg = cfg.withDefaults()
	return &ShuffleGrouping{n: cfg.Workers, next: phaseOffset(cfg)}
}

// phaseOffset spreads sender instances around the worker ring.
func phaseOffset(cfg Config) int {
	return int((cfg.Seed + uint64(cfg.Instance)*7919) % uint64(cfg.Workers))
}

// Route implements Partitioner.
func (s *ShuffleGrouping) Route(string) int {
	w := s.next
	s.next++
	if s.next == s.n {
		s.next = 0
	}
	return w
}

// RouteDigest implements DigestRouter (SG ignores keys and digests).
func (s *ShuffleGrouping) RouteDigest(KeyDigest, string) int { return s.Route("") }

// Workers implements Partitioner.
func (s *ShuffleGrouping) Workers() int { return s.n }

// Name implements Partitioner.
func (s *ShuffleGrouping) Name() string { return "SG" }

// ---------------------------------------------------------------------------
// Greedy-d core

// greedy holds the state shared by all load-aware schemes: the hash
// family, this sender's local load vector, and a candidate scratch
// buffer for the batch path (so steady-state routing never allocates).
// Schemes that argmin over the whole vector (W-C's head path, D-C at
// d ≥ n, ForcedD, Oracle) additionally carry the tournament load index
// (see loadtree.go) when the worker count warrants it; tree == nil
// means every argmin is a scan and increments are plain.
type greedy struct {
	n      int
	family *hashing.Family
	loads  []int64
	digs   []hashing.KeyDigest // scratch: per-batch digests (grows to the largest batch seen)
	lidx   int8                // Config.LoadIndex (crossover policy for candidate tournaments)
	tree   *loadTree           // full-vector load index, nil below the crossover
	// Persistent candidate-tournament state (loadtree.go), allocated by
	// the first head run whose list is long enough for a tournament; from
	// then on bump appends every load increment to the clog ring so
	// cached tournaments can be repaired by replay instead of rebuilt.
	// Whenever clog is on the full-vector tree is attached (an eligible
	// list needs LoadIndexTree — which forces the tree — or c ≥
	// crossover ≤ n, which auto-attaches it), so no increment can bypass
	// bump and stale a cached tournament.
	tours     []candTour
	clog      []int32
	clogPos   uint64 // increments logged so far
	tourBytes int
	tourStamp []int32 // replay scratch, see candTour.repair
	tourEpoch int32

	// Plain (single-goroutine, like the partitioner itself) argmin-path
	// counters, surfaced through RouteStats: messages routed via a
	// tournament tree (full-vector or candidate-subset) vs a linear
	// scan (packed full-vector or branchy candidate scan). One int64
	// increment on paths that cost tens of ns — below measurement noise.
	nTreeMin int64
	nScanMin int64
	// Candidate tournaments built from scratch and repaired by replay.
	nTourBuilds  int64
	nTourRepairs int64
}

func newGreedy(cfg Config) greedy {
	return greedy{
		n:      cfg.Workers,
		family: hashing.NewFamily(cfg.Workers, cfg.Seed),
		loads:  make([]int64, cfg.Workers),
		lidx:   int8(cfg.LoadIndex),
	}
}

// enableLoadIndex attaches the tournament load index when the
// configuration calls for it; only the schemes that ever argmin over
// the whole vector call this (PKG, RR, SG and KG never do, so they
// never pay the per-increment maintenance).
func (g *greedy) enableLoadIndex(cfg Config) {
	if cfg.LoadIndex == LoadIndexScan {
		return
	}
	if cfg.LoadIndex == LoadIndexTree || g.n >= loadIndexCrossover {
		g.tree = newLoadTree(g.loads)
	}
}

// bump accounts one message on worker w, maintaining the load index
// when present. Every load increment of a tree-carrying scheme must go
// through here (or replicate the fix), or the index goes stale.
func (g *greedy) bump(w int) {
	g.loads[w]++
	if g.tree != nil {
		g.tree.fix(w)
	}
	if g.clog != nil {
		g.clog[g.clogPos&(candTourLogMax-1)] = int32(w)
		g.clogPos++
	}
}

// routeGreedyDigest applies the Greedy-d process: among the candidate
// workers F_1(key)..F_d(key) — derived from the digest, one mix each —
// pick the one with the lowest local load (first lowest wins, matching
// "ties broken arbitrarily"), then account for the message.
func (g *greedy) routeGreedyDigest(dg KeyDigest, d int) int {
	best := g.family.BucketDigest(0, dg, g.n)
	bestLoad := g.loads[best]
	for i := 1; i < d; i++ {
		w := g.family.BucketDigest(i, dg, g.n)
		if g.loads[w] < bestLoad {
			best, bestLoad = w, g.loads[w]
		}
	}
	g.bump(best)
	return best
}

// Argmin scans pack (load << packShift) | position into one integer, so
// a single branchless min (the compiler emits conditional moves) yields
// both the minimum load and — because position rises monotonically
// during the scan — the FIRST position attaining it, which is exactly
// the sequential first-lowest-wins tie-break. Valid while positions fit
// packShift bits and loads stay below 2⁴⁷ (a per-sender message count no
// real run approaches). Larger worker counts use the tournament load
// tree instead (loadtree.go), which packs nothing; withDefaults rejects
// them only when LoadIndexScan is forced.
const (
	packShift = 16
	packMask  = 1<<packShift - 1
)

// maxPacked is an identity element for packed argmin accumulators.
const maxPacked = int64(1)<<62 - 1

// routeCands routes one message among precomputed candidates (a cached,
// deduplicated candidate list), with the same first-lowest-wins
// tie-break as routeGreedyDigest. A plain branchy scan wins here: the
// data-dependent loads[cand[i]] gathers leave the rarely-taken compare
// branch well predicted, measurably beating the packed conditional-move
// variant routeAll uses.
//
// With the load index attached the scan knows the global minimum load
// (the tree's root) and stops at the first candidate that attains it:
// no later candidate can be lower, and every earlier one was higher, so
// that candidate is the first-lowest. Head keys are routed to keep the
// loads level, so a candidate at the floor usually turns up well before
// the end (measured at n = 4096 over route-scale's cells: 41 of 91
// candidates visited per scan at z = 0.8; at z = 2.0, 331 of 1,874 for
// the keys that scan — the hottest keys' candidates sit above the floor
// and go through tournaments instead, see loadtree.go).
//
// It also reports how many candidates the scan visited, which is what
// the tournament policy weighs a key's scans by. Without the index the
// loop is the plain scan and nothing else: folding the floor test into
// one shared loop cost the index-less cells 7% (D-C at n = 64, z = 2.0,
// where every message is a 40-candidate scan: 76.6 against 60.8 ns per
// message, four alternated runs, the parent's loop at 69.0).
func (g *greedy) routeCands(cand []int32) (best, visited int) {
	g.nScanMin++
	loads := g.loads
	best, visited = int(cand[0]), len(cand)
	bestLoad := loads[best]
	if g.tree == nil {
		for _, w32 := range cand[1:] {
			w := int(w32)
			if loads[w] < bestLoad {
				best, bestLoad = w, loads[w]
			}
		}
	} else if floor := loads[g.tree.min()]; bestLoad == floor {
		visited = 1
	} else {
		for i, w32 := range cand[1:] {
			w := int(w32)
			if loads[w] < bestLoad {
				best, bestLoad = w, loads[w]
				if bestLoad == floor {
					visited = i + 2
					break
				}
			}
		}
	}
	g.bump(best)
	return best, visited
}

// scratchDigests returns the partitioner-owned digest slab for an
// n-message batch: the buffer RouteBatch hands to RouteBatchDigests
// when the caller did not supply its own. It grows to the largest batch
// ever seen, so steady state allocates nothing.
func (g *greedy) scratchDigests(n int) []hashing.KeyDigest {
	if cap(g.digs) < n {
		g.digs = make([]hashing.KeyDigest, n)
	}
	return g.digs[:n]
}

// routeAll picks the globally least-loaded worker (W-Choices head path:
// "there is no need to hash the keys in the head"). With the load index
// attached this is an O(1) root read plus an O(log n) repair — the
// sublinear path that keeps head routing flat as n grows into the
// thousands. Below the crossover (tree == nil) it falls back to the
// packed scan: unlike routeCands — whose data-dependent gathers favor a
// plain branchy scan — the contiguous load scan is latency-bound, so
// four packed (load, index) conditional-move chains measurably beat the
// branchy argmin there. Both paths implement the same first-lowest-wins
// tie-break, bit-exactly.
func (g *greedy) routeAll() int {
	if t := g.tree; t != nil {
		g.nTreeMin++
		w := t.min()
		g.bump(w)
		return w
	}
	g.nScanMin++
	loads := g.loads
	b0 := loads[0] << packShift
	b1, b2, b3 := maxPacked, maxPacked, maxPacked
	i := 1
	for ; i+3 < len(loads); i += 4 {
		if p := loads[i]<<packShift | int64(i); p < b0 {
			b0 = p
		}
		if p := loads[i+1]<<packShift | int64(i+1); p < b1 {
			b1 = p
		}
		if p := loads[i+2]<<packShift | int64(i+2); p < b2 {
			b2 = p
		}
		if p := loads[i+3]<<packShift | int64(i+3); p < b3 {
			b3 = p
		}
	}
	for ; i < len(loads); i++ {
		if p := loads[i]<<packShift | int64(i); p < b0 {
			b0 = p
		}
	}
	if b1 < b0 {
		b0 = b1
	}
	if b3 < b2 {
		b2 = b3
	}
	if b2 < b0 {
		b0 = b2
	}
	w := int(b0 & packMask)
	loads[w]++
	return w
}

// Loads exposes a copy of the sender-local load vector (for tests and
// instrumentation).
func (g *greedy) Loads() []int64 {
	out := make([]int64, len(g.loads))
	copy(out, g.loads)
	return out
}

// PKG is Partial Key Grouping: the Greedy-d process with d = 2 for every
// key.
type PKG struct {
	greedy
}

// NewPKG returns a PKG partitioner.
func NewPKG(cfg Config) *PKG {
	cfg = cfg.withDefaults()
	return &PKG{greedy: newGreedy(cfg)}
}

// Route implements Partitioner.
func (p *PKG) Route(key string) int { return p.routeGreedyDigest(hashing.Digest(key), 2) }

// RouteDigest implements DigestRouter.
func (p *PKG) RouteDigest(dg KeyDigest, _ string) int { return p.routeGreedyDigest(dg, 2) }

// Workers implements Partitioner.
func (p *PKG) Workers() int { return p.n }

// Name implements Partitioner.
func (p *PKG) Name() string { return "PKG" }

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
	// single-goroutine like the owning partitioner; see RouteStats).
	// The per-message path counts in observeDigest; the batch paths
	// count whole head segments at the crossing split.
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

// observe feeds the key and reports head membership.
func (h *HeadTracker) observe(key string) bool {
	return h.observeDigest(hashing.Digest(key), key)
}

// observeDigest is observe keyed by a pre-computed digest: the hot-path
// form, one sketch-table operation and no key-byte scans.
func (h *HeadTracker) observeDigest(dg KeyDigest, key string) bool {
	if h.win != nil {
		h.win.OfferDigest(dg, key)
		c, _, ok := h.win.CountDigest(dg)
		if !ok || c < minHeadCount {
			return false
		}
		if float64(c) >= h.theta*float64(h.win.N()) {
			h.headMsgs++
			return true
		}
		return false
	}
	c := h.sketch.OfferDigest(dg, key)
	if h.isHeadAt(c, h.sketch.N()) {
		h.headMsgs++
		return true
	}
	return false
}

// noteHead accounts n head-classified messages from a batch path's
// crossing split (the arithmetic predicate never goes through
// observeDigest there).
func (h *HeadTracker) noteHead(n int) { h.headMsgs += int64(n) }

// sketchStats returns the occupancy, capacity, and lifetime eviction
// count (head churn) of the tracker's sketch, in either mode.
func (h *HeadTracker) sketchStats() (length, capacity int, evictions uint64) {
	if h.win != nil {
		return h.win.Len(), h.win.Capacity(), h.win.Evictions()
	}
	return h.sketch.Len(), h.sketch.Capacity(), h.sketch.Evictions()
}

// isHeadAt evaluates the head predicate for an arithmetic count/stream
// pair, with exactly the float comparison observeDigest performs. The
// batch path uses it to classify the remaining messages of a run without
// touching the sketch: within a run of one key (insertion-only mode)
// both the key's count and N advance by exactly 1 per message.
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

// canBatch reports whether run-level batching of offers preserves exact
// per-message semantics. It requires the paper's insertion-only sketch
// (the sliding-window mode rotates generations at arbitrary offsets)
// and a θ in the monotone range (see maxMonotoneTheta); otherwise batch
// callers fall back to per-message routing.
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

// observeFirst offers the first message of a run and returns the
// post-offer count and stream length (insertion-only mode only).
func (h *HeadTracker) observeFirst(dg KeyDigest, key string) (count, n uint64) {
	return h.sketch.OfferDigest(dg, key), h.sketch.N()
}

// offerRest applies r deferred offers of a run's key in one sketch
// operation (insertion-only mode only; the key is monitored after
// observeFirst, so the offers are pure increments).
func (h *HeadTracker) offerRest(dg KeyDigest, key string, r uint64) {
	if r > 0 {
		h.sketch.OfferDigestN(dg, key, r)
	}
}

// observeRun offers a whole run of r identical messages in ONE sketch
// operation and returns the count and stream length as they stood just
// after the run's FIRST offer (insertion-only mode only). Within a run
// both advance by exactly 1 per message, so the final state determines
// the first: count₁ = countᵣ − (r−1), N₁ = Nᵣ − (r−1). Legal whenever
// nothing reads the sketch between the run's messages — true for every
// head-tracking scheme except D-Choices at a solver boundary, which
// uses observeFirst/offerRest instead.
func (h *HeadTracker) observeRun(dg KeyDigest, key string, r int) (count, n uint64) {
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

// Merge folds another sender's sketch into this tracker, implementing the
// distributed heavy-hitters generalization: sources periodically exchange
// summaries so each sees (approximately) global frequencies. It is a
// no-op in sliding-window mode, where generations are not mergeable
// across senders.
func (h *HeadTracker) Merge(other *spacesaving.Summary) {
	if h.sketch == nil {
		return
	}
	h.sketch = h.sketch.Merge(other)
}

// Sketch exposes the tracker's sketch for merging by a coordinator
// (nil in sliding-window mode).
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
type DChoices struct {
	greedy
	head       HeadTracker
	eps        float64
	solveEvery int

	d          int    // current number of choices for the head
	solved     bool   // whether d has ever been computed
	lastSolveN uint64 // sketch N at the last solve
	solves     int64  // FINDOPTIMALCHOICES runs (instrumentation)
	headSize   int    // |H| at the last solve (instrumentation)
	solver     analysis.Solver

	cache candCache // batch path: memoized head-key candidate lists

	// Hot-key memo: a private copy of the last candidate list used, so
	// the dominant key of a skewed stream revalidates with two compares
	// instead of a cache probe. The copy is immune to cache-slot
	// overwrites by colliding keys.
	lastDig   KeyDigest
	lastD     int32
	lastCands []int32
}

// NewDChoices returns a D-C partitioner.
func NewDChoices(cfg Config) *DChoices {
	cfg = cfg.withDefaults()
	p := &DChoices{
		greedy:     newGreedy(cfg),
		head:       newHeadTracker(cfg),
		eps:        cfg.Epsilon,
		solveEvery: cfg.SolveEvery,
		d:          2,
		cache:      newCandCache(cfg.Workers, 2),
		lastCands:  make([]int32, 0, cfg.Workers),
	}
	p.enableLoadIndex(cfg)
	return p
}

// candMemoMax bounds the hot-key memo: memoizing means COPYING the
// list (that is what makes it immune to cache-slot overwrites by
// colliding keys), and once the solver picks d in the hundreds the
// per-switch copy costs more than the cache probe it saves — under an
// i.i.d. Zipf stream runs are short (expected 1/(1−p₁) messages), so
// the memo switches constantly. Large lists are served straight from
// the shared cache instead.
const candMemoMax = 64

// headCands returns the candidate list for a head key, through the
// hot-key memo and the shared cache.
func (p *DChoices) headCands(dg KeyDigest) []int32 {
	if p.lastDig == dg && p.lastD == int32(p.d) {
		return p.lastCands
	}
	c := p.cache.lookup(dg, p.d, p.family)
	if len(c) > candMemoMax {
		return c
	}
	p.lastDig = dg
	p.lastD = int32(p.d)
	p.lastCands = append(p.lastCands[:0], c...)
	return p.lastCands
}

// Route implements Partitioner (Algorithm 1 with D-CHOICES). It is the
// per-message thin wrapper: digest once, then route on the digest.
func (p *DChoices) Route(key string) int {
	return p.RouteDigest(hashing.Digest(key), key)
}

// RouteDigest implements DigestRouter.
func (p *DChoices) RouteDigest(dg KeyDigest, key string) int {
	if p.head.observeDigest(dg, key) {
		if p.findOptimalChoices() >= p.n {
			// Switching point: use the W-Choices strategy.
			return p.routeAll()
		}
		// Head keys route over the memoized deduplicated candidate
		// list instead of re-deriving d buckets per message: identical
		// decisions (a duplicate can never beat its first occurrence,
		// and list order is bucket order), but the dominant key of a
		// skewed stream revalidates with two compares instead of d
		// hash mixes.
		w, _ := p.routeCands(p.headCands(dg))
		return w
	}
	return p.routeGreedyDigest(dg, 2)
}

// findOptimalChoices returns the cached d, re-solving on the configured
// cadence. A solve walks the head (|H| counts out of the sketch's
// buckets) and checks |H| prefix constraints per candidate d. |H| is a
// few dozen keys at the paper's scales but 2,816 at n = 4096, z = 0.8,
// where an Entry snapshot and 2·|H| math.Pow cost 2.3 ms per solve —
// 2.2 µs per message at the default cadence; the counts-only snapshot
// and the solver's memoised tables (analysis.Solver) make it |H|
// multiply-adds with no allocation.
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
		// keys take routeAll and never look candidates up.
		p.cache.fit(len(head), p.d)
	}
	p.solved = true
	p.lastSolveN = n
	return p.d
}

// solveDue reports whether a head message observed at post-offer stream
// length n would trigger a re-solve (the batch path uses it to sync the
// sketch before the solve reads it).
func (p *DChoices) solveDue(n uint64) bool {
	return !p.solved || n-p.lastSolveN >= uint64(p.solveEvery)
}

// D returns the current number of choices for head keys (instrumentation).
func (p *DChoices) D() int { return p.d }

// HeadTracker exposes the sender's sketch state for distributed merging.
func (p *DChoices) HeadTracker() *HeadTracker { return &p.head }

// Workers implements Partitioner.
func (p *DChoices) Workers() int { return p.n }

// Name implements Partitioner.
func (p *DChoices) Name() string { return "D-C" }

// ForcedD is the Greedy-d scheme with an externally fixed number of
// choices for head keys (tail keys keep 2). It is the experimental
// instrument behind Fig. 9: sweeping d from 2 to n to find the empirical
// minimum that matches W-Choices' imbalance, independently of the
// analytic solver.
type ForcedD struct {
	greedy
	head  HeadTracker
	d     int
	cache candCache // batch path: memoized head-key candidate lists
}

// NewForcedD returns a Greedy-d partitioner with exactly d choices for
// head keys. d is clamped to [2, n]; d = n uses the W-Choices fast path.
func NewForcedD(cfg Config, d int) *ForcedD {
	cfg = cfg.withDefaults()
	if d < 2 {
		d = 2
	}
	if d > cfg.Workers {
		d = cfg.Workers
	}
	p := &ForcedD{
		greedy: newGreedy(cfg),
		head:   newHeadTracker(cfg),
		d:      d,
		cache:  newCandCache(cfg.Workers, d),
	}
	p.enableLoadIndex(cfg)
	return p
}

// Route implements Partitioner.
func (p *ForcedD) Route(key string) int {
	return p.RouteDigest(hashing.Digest(key), key)
}

// RouteDigest implements DigestRouter.
func (p *ForcedD) RouteDigest(dg KeyDigest, key string) int {
	if p.head.observeDigest(dg, key) {
		if p.d == p.n {
			return p.routeAll()
		}
		// Cached deduplicated candidates, as in DChoices.RouteDigest:
		// identical decisions to a d-bucket derivation, fewer mixes.
		w, _ := p.routeCands(p.cache.lookup(dg, p.d, p.family))
		return w
	}
	return p.routeGreedyDigest(dg, 2)
}

// D returns the forced number of choices.
func (p *ForcedD) D() int { return p.d }

// Workers implements Partitioner.
func (p *ForcedD) Workers() int { return p.n }

// Name implements Partitioner.
func (p *ForcedD) Name() string { return fmt.Sprintf("Greedy-%d", p.d) }

// ---------------------------------------------------------------------------
// W-Choices

// WChoices routes head keys to the globally least-loaded worker (all n
// choices) and tail keys with 2 choices.
type WChoices struct {
	greedy
	head HeadTracker
}

// NewWChoices returns a W-C partitioner.
func NewWChoices(cfg Config) *WChoices {
	cfg = cfg.withDefaults()
	p := &WChoices{greedy: newGreedy(cfg), head: newHeadTracker(cfg)}
	p.enableLoadIndex(cfg)
	return p
}

// Route implements Partitioner (Algorithm 1 with W-CHOICES).
func (p *WChoices) Route(key string) int {
	return p.RouteDigest(hashing.Digest(key), key)
}

// RouteDigest implements DigestRouter.
func (p *WChoices) RouteDigest(dg KeyDigest, key string) int {
	if p.head.observeDigest(dg, key) {
		return p.routeAll()
	}
	return p.routeGreedyDigest(dg, 2)
}

// HeadTracker exposes the sender's sketch state for distributed merging.
func (p *WChoices) HeadTracker() *HeadTracker { return &p.head }

// Workers implements Partitioner.
func (p *WChoices) Workers() int { return p.n }

// Name implements Partitioner.
func (p *WChoices) Name() string { return "W-C" }

// Oracle is W-Choices with ground-truth head knowledge instead of the
// online sketch: the caller supplies the head membership predicate.
// It is an experimental upper bound used to quantify how much imbalance
// the SpaceSaving estimation error costs (ablation in DESIGN.md §6);
// it is not part of the paper's system (real systems do not know the
// distribution).
type Oracle struct {
	greedy
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
	p.enableLoadIndex(cfg)
	return p
}

// Route implements Partitioner.
func (p *Oracle) Route(key string) int {
	if p.isHead(key) {
		return p.routeAll() // head messages never need the digest
	}
	return p.routeGreedyDigest(hashing.Digest(key), 2)
}

// RouteDigest implements DigestRouter.
func (p *Oracle) RouteDigest(dg KeyDigest, key string) int {
	if p.isHead(key) {
		return p.routeAll()
	}
	return p.routeGreedyDigest(dg, 2)
}

// Workers implements Partitioner.
func (p *Oracle) Workers() int { return p.n }

// Name implements Partitioner.
func (p *Oracle) Name() string { return "Oracle" }

// ---------------------------------------------------------------------------
// Round-Robin head baseline

// RoundRobin spreads head messages over all workers in a load-oblivious
// round-robin and routes the tail with 2 load-aware choices. It has the
// same memory cost as W-Choices but cannot compensate tail imbalance.
type RoundRobin struct {
	greedy
	head HeadTracker
	next int
}

// NewRoundRobin returns an RR partitioner.
func NewRoundRobin(cfg Config) *RoundRobin {
	cfg = cfg.withDefaults()
	return &RoundRobin{
		greedy: newGreedy(cfg),
		head:   newHeadTracker(cfg),
		next:   phaseOffset(cfg),
	}
}

// Route implements Partitioner.
func (p *RoundRobin) Route(key string) int {
	return p.RouteDigest(hashing.Digest(key), key)
}

// RouteDigest implements DigestRouter.
func (p *RoundRobin) RouteDigest(dg KeyDigest, key string) int {
	if p.head.observeDigest(dg, key) {
		return p.routeHeadRR()
	}
	return p.routeGreedyDigest(dg, 2)
}

// routeHeadRR routes one head message round-robin.
func (p *RoundRobin) routeHeadRR() int {
	w := p.next
	p.next++
	if p.next == p.n {
		p.next = 0
	}
	p.loads[w]++
	return w
}

// Workers implements Partitioner.
func (p *RoundRobin) Workers() int { return p.n }

// Name implements Partitioner.
func (p *RoundRobin) Name() string { return "RR" }
