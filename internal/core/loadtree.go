package core

// loadtree.go implements the load-index subsystem: a flat-array
// tournament tree over the sender-local load vector that answers "which
// worker currently has the lowest load?" in O(1) and absorbs one load
// increment in O(log n), replacing the O(n) argmin scans that made the
// W-Choices head path (and large-d D-Choices candidate evaluation)
// linear in the deployment size. This is what opens the paper's actual
// operating regime — hundreds to tens of thousands of workers — where
// "two choices are not enough" and the head of the distribution must be
// spread over many (W-Choices: all) workers per message.
//
// # Tie-breaking is part of the contract
//
// The scans route ties to the FIRST position attaining the minimum
// (routeAll: lowest worker index; routeCands: earliest candidate-list
// position). The tree's comparison therefore prefers the lower index on
// equal loads, which makes the root the lexicographic (load, index)
// minimum — bit-exact with the scans, message for message, for every
// algorithm. The parity tests pin this: a scan-configured and a
// tree-configured partitioner produce identical worker sequences on
// identical streams.
//
// # Shape
//
// The tree is the standard iterative ("bottom-up segment tree") layout
// over exactly n leaves: node[n+i] represents worker i, node[k] for
// k ∈ [1, n) holds the winner (lower (load, index)) of its children
// node[2k] and node[2k+1], and node[1] is the global argmin. No
// power-of-two padding is needed — min is associative and commutative,
// so the bracket's shape cannot change the winner or the tie-break.
// After loads[w] changes, fixing the path from leaf n+w to the root
// restores every invariant in ⌈log₂ n⌉ steps.
//
// # Crossover
//
// Below loadIndexCrossover workers the packed 4-way conditional-move
// scan in routeAll is faster (it streams the load vector with near-zero
// branch cost, while the tree pays pointer-chasing and per-increment
// maintenance), so the index is adaptive: Config.LoadIndexAuto keeps
// the scan below the crossover and switches to the tree at or above it.
// The crossover was measured with BenchmarkRouteAtScale and the
// `scale` experiment's routing table on the W-C head path (see slb.go
// package docs): scan and tree run neck-and-neck at n = 64 (scan ≈ 8%
// ahead), and the tree is ≈ 2× faster by n = 256, so 128 is the
// default switch point. The tree also has no packing limit, which is
// what lifts the former Workers < 65536 cap: the packed scan encodes
// (load << 16 | index) in one int64 and cannot represent more workers,
// while tree nodes store bare worker indices.
const loadIndexCrossover = 128

// Config.LoadIndex values: how the argmin over the whole load vector
// (W-Choices' head path, D-Choices at d ≥ n) and over large candidate
// lists is computed. Routing decisions are bit-identical in all modes;
// only the cost changes.
const (
	// LoadIndexAuto (the default) selects by worker count: the packed
	// scan below loadIndexCrossover, the tournament tree at or above it.
	LoadIndexAuto = 0
	// LoadIndexScan forces the packed conditional-move scan everywhere.
	// Requires Workers < 65536 (the packing limit); construction panics
	// otherwise.
	LoadIndexScan = 1
	// LoadIndexTree forces the tournament tree (and the candidate
	// subset tournament) at every worker count.
	LoadIndexTree = 2
)

// loadTree is the tournament (winner) tree over one sender's load
// vector. It aliases the greedy load slice — it never owns the loads,
// it only indexes them — so reads are always of live values; callers
// must fix(w) after every change to loads[w].
type loadTree struct {
	n     int
	loads []int64
	node  []int32 // 2n nodes; node[1] is the root, node[n+i] leaf i
}

// newLoadTree builds the index over the given load vector (not copied).
func newLoadTree(loads []int64) *loadTree {
	t := &loadTree{n: len(loads), loads: loads, node: make([]int32, 2*len(loads))}
	t.rebuild()
	return t
}

// winner returns whichever of two worker indices has the lower
// (load, index) — exactly the scans' first-lowest-wins tie-break.
func (t *loadTree) winner(a, b int32) int32 {
	la, lb := t.loads[a], t.loads[b]
	if lb < la || (lb == la && b < a) {
		return b
	}
	return a
}

// rebuild recomputes every node from the current loads in O(n).
func (t *loadTree) rebuild() {
	n := t.n
	for i := 0; i < n; i++ {
		t.node[n+i] = int32(i)
	}
	for k := n - 1; k >= 1; k-- {
		t.node[k] = t.winner(t.node[2*k], t.node[2*k+1])
	}
}

// min returns the least-loaded worker (lowest index on ties) in O(1).
func (t *loadTree) min() int {
	if t.n == 1 {
		return 0
	}
	return int(t.node[1])
}

// fix restores the tree after loads[w] changed: recompute the winners
// on the leaf-to-root path, ⌈log₂ n⌉ comparisons. The walk does not
// early-exit on an unchanged winner index, because an unchanged winner
// with a changed load still alters every comparison above it.
func (t *loadTree) fix(w int) {
	for k := (t.n + w) >> 1; k >= 1; k >>= 1 {
		t.node[k] = t.winner(t.node[2*k], t.node[2*k+1])
	}
}

// ---------------------------------------------------------------------------
// Candidate subset tournament (head runs)
//
// D-Choices with a large d evaluates an argmin over c ≤ d deduplicated
// candidates per head message; the full-vector tree cannot answer
// subset queries, but a key's candidate list is a pure function of its
// digest — the dedup-prefix property makes the list for d − 1 a prefix
// of the list for d — so a tournament over it (leaves are list
// positions, ties prefer the earlier position: the routeCands tie-break)
// stays meaningful ACROSS runs and ACROSS the solver's d. routeHead
// keeps a small set-associative cache of such tournaments, each stamped
// with the position it last observed in the core's modification log of
// load increments (greedy.clog). On the next run of the same head key
// the tournament is repaired by replaying only the increments that
// landed since, instead of scanning or rebuilding. Routing is O(log c)
// per message and bit-exact with the scan: repair recomputes the same
// winner nodes a rebuild would.
//
// # Layout
//
// Leaves are padded to a power of two P ≥ c: node[P+i] is list position
// i when the leaf is on and −1 when it is off, node[k] the winner of
// node[2k] and node[2k+1], node[1] the argmin. Off leaves are always the
// suffix [c, P), so when the solver's d wobbles and the list grows or
// shrinks by a candidate the tournament switches one leaf on or off in
// O(log P) and survives; only a list outgrowing P rebuilds. In this
// layout a node's left subtree holds the earlier positions, so a tie
// goes to the left child.
//
// # Policy, and the measurements behind it
//
// A tournament is not free to keep: every load increment of the core
// must eventually be replayed into it. It pays for itself only for a key
// whose runs recur before that replay costs more than the scans it
// replaces — and how much a scan costs depends on the loads, because
// routeCands stops at the first candidate at the global floor. So each
// tracked key carries two moving averages (weight 1/8): `gap`, the
// logged increments between its head runs, and `scan`, the candidates
// a scan of it visits (observed while it is scanned; while it has a
// tournament, read off the root — the scan would have stopped exactly
// there if the root sits at the floor, and nowhere otherwise). With S
// the scan cost per candidate visited and R the replay cost per logged
// increment, the tournament is the cheaper way to route the key while
// gap·R ≤ scan·S: it is KEPT while gap ≤ scan/candTourLagDiv and a key
// without one is ADMITTED at a quarter of that (the margin and the slow
// averages keep a key near the break-even from flapping between build
// and drop: 305 builds per 256 Ki messages at half the limit and weight
// 1/4, 98 as set). A run that has paid candTourBuildScans full
// scans' worth of visits without being admitted builds anyway and
// finishes on the tournament — rent-or-buy, for the long run of a key
// that never recurred. LoadIndexTree applies the tournament to every
// list of two or more candidates and replays whatever the log still
// holds, so the reference tests exercise build, repair and toggling
// throughout.
//
// The unit costs are BenchmarkCandTourCosts' (reference host, n = 4096,
// c = 1,900, near-level loads): scan 0.9 ns per candidate visited;
// replay ≈ 25 ns per logged increment on top of the bump itself (a
// position probe, and for the 46% that are candidates a repair that
// stops at the first node the leaf does not hold); build ≈ 5 ns per
// candidate. Hence candTourLagDiv = R/S ≈ 24 and candTourBuildScans =
// 6. route-scale's D-C.n4096.z2.0 cell is flat across candTourLagDiv
// 4 … 32 (356–388 cpu-ns/msg, four alternated runs each), so the exact
// ratio is not delicate; what the cell needs is the shape — its
// hottest keys (61% and 15% of messages, then 7%, 4% …) scan all
// ≈ 1,900 candidates every time, because they load their own candidates
// above the floor, and three or four of them hold a tournament at any
// time; the other ≈ 110 head keys find the floor within 331 candidates
// on average and do not.

// Candidate tournament cache shape.
//
// Slots are candTourWays-way sets indexed by digest low bits (digests
// are hash outputs, so low bits are well mixed): in a direct-mapped
// cache two hot keys sharing a slot evict each other on every run. A
// newcomer takes the least recently seen way that does not hold a live
// tournament. Storage is allocated on admission and bounded by
// candTourBytes overall (20·P bytes per tournament: 40 KiB at
// c ≈ 1,900, so the bound binds from P = 4,096 up).
//
// The modification log is a ring of the last candTourLogMax increments;
// a tournament further behind than that can only be rebuilt.
const (
	candTourSets       = 16
	candTourWays       = 4
	candTourLogMax     = 4096
	candTourBytes      = 4 << 20
	candTourLagDiv     = 24
	candTourBuildScans = 6
)

// candTour is one slot of the tournament cache: the digest it tracks,
// the log position just after that key's last head run (for a built
// tournament, the position it is synced to), the two moving averages
// the policy runs on, and — once admitted — the tournament: 2P nodes, a
// private copy of the candidate list (so repair never depends on the
// candidate cache's slots), and an open-addressed worker→(position+1)
// table mapping logged increments back to leaves (0 means empty; linear
// probing at load ≤ ½; with 2P ≥ n it degenerates to a direct map).
type candTour struct {
	dig    KeyDigest
	at     uint64
	gap    uint32 // moving average of the increments between the key's runs
	scan   uint32 // moving average of the candidates a scan of the key visits (0: never scanned)
	built  bool
	c      int32 // leaves switched on: the list length last routed
	leaves int32 // P
	node   []int32
	list   []int32 // every candidate seen so far; list[:c] is the live list
	pos    []int32
}

// lookupPos returns the list position of worker w, or -1 when w is not
// a known candidate.
func (e *candTour) lookupPos(w int32) int32 {
	mask := int32(len(e.pos) - 1)
	for h := w & mask; ; h = (h + 1) & mask {
		v := e.pos[h]
		if v == 0 {
			return -1
		}
		if p := v - 1; e.list[p] == w {
			return p
		}
	}
}

// learn appends candidate w at the next list position and indexes it.
func (e *candTour) learn(w int32) {
	e.list = append(e.list, w)
	mask := int32(len(e.pos) - 1)
	h := w & mask
	for e.pos[h] != 0 {
		h = (h + 1) & mask
	}
	e.pos[h] = int32(len(e.list))
}

// candWinner is the subset tournament's comparison: positions into the
// candidate list, loads read through the list, −1 for an empty subtree.
// a comes from the left child and b from the right, so a < b whenever
// both are positions and a tie goes to a — routeCands'
// first-occurrence-wins, bit-exact. Off leaves are a suffix, so a is
// empty only when b is.
func (g *greedy) candWinner(list []int32, a, b int32) int32 {
	if b >= 0 && g.loads[list[b]] < g.loads[list[a]] {
		return b
	}
	return a
}

// climb recomputes every winner from leaf position pos to the root. It
// carries the path's winner and its load in registers and reads only
// the sibling at each level, so the sibling loads of all levels are
// independent of one another and overlap; and it folds the tie-break
// into the compared value (the left child, even k, takes ties) so the
// choice compiles to conditional moves — on near-level loads every
// compare is a coin flip, and as branches they cost 11 mispredictions a
// climb. Measured at P = 2,048 on the reference host: ≈ 40 ns a climb,
// against ≈ 100 ns for recomputing each node from its two children with
// candWinner. Loads are message counts, far below 2⁶², so the shift
// cannot overflow.
func (e *candTour) climb(loads []int64, pos int32) {
	t, list := e.node, e.list
	k := e.leaves + pos
	cur, curLoad := t[k], int64(1)<<61 // an off leaf loses to any sibling
	if cur >= 0 {
		curLoad = loads[list[cur]]
	}
	for k > 1 {
		if sib := t[k^1]; sib >= 0 {
			sl := loads[list[sib]]
			if sl<<1|int64(k&1^1) < curLoad<<1|int64(k&1) {
				cur, curLoad = sib, sl
			}
		}
		k >>= 1
		t[k] = cur
	}
}

// build (re)constructs the tournament over cand from the live loads.
// The caller has sized the slices for P = e.leaves ≥ len(cand).
func (e *candTour) build(g *greedy, cand []int32) {
	P := int(e.leaves)
	for i := range e.pos {
		e.pos[i] = 0
	}
	e.list = e.list[:0]
	for _, w := range cand {
		e.learn(w)
	}
	t := e.node
	for i := range cand {
		t[P+i] = int32(i)
	}
	for i := len(cand); i < P; i++ {
		t[P+i] = -1
	}
	for k := P - 1; k >= 1; k-- {
		t[k] = g.candWinner(e.list, t[2*k], t[2*k+1])
	}
	e.c, e.built = int32(len(cand)), true
}

// repair brings a built tournament from log position e.at to the log's
// head, then switches leaves on or off to match cand (the solver moved d
// and the list grew or shrank along the dedup-prefix order).
//
// The replay does not walk every path to the root. Loads only rise, so
// a leaf that does not hold a node cannot take it, and a climb stops at
// the first node the leaf did not win — unless this replay has already
// recomputed that node (stamp == this replay's epoch), because then its
// value may rest on a sibling read before that sibling's own increment
// was replayed. With the stamps the last recompute of every node
// happens after the last recompute of both children, which is all a
// bottom-up rebuild guarantees; without them a node could keep a winner
// that a later-replayed sibling subtree has since beaten.
func (e *candTour) repair(g *greedy, cand []int32) {
	t, list, P := e.node, e.list, e.leaves
	stamp, epoch := g.tourStamps(int(P))
	for i := e.at; i < g.clogPos; i++ {
		pos := e.lookupPos(g.clog[i&(candTourLogMax-1)])
		if pos < 0 || pos >= e.c {
			continue
		}
		for k := (P + pos) >> 1; k >= 1 && (t[k] == pos || stamp[k] == epoch); k >>= 1 {
			t[k] = g.candWinner(list, t[2*k], t[2*k+1])
			stamp[k] = epoch
		}
	}
	for int(e.c) > len(cand) {
		e.c--
		e.node[e.leaves+e.c] = -1
		e.climb(g.loads, e.c)
	}
	for int(e.c) < len(cand) {
		if int(e.c) == len(e.list) {
			e.learn(cand[e.c])
		}
		e.node[e.leaves+e.c] = e.c
		e.climb(g.loads, e.c)
		e.c++
	}
}

// tourStamps returns the replay stamp array (one per internal node of
// the largest tournament, shared by all of them: one replay runs at a
// time) and a fresh epoch.
func (g *greedy) tourStamps(P int) ([]int32, int32) {
	if len(g.tourStamp) < P {
		g.tourStamp = make([]int32, P)
		g.tourEpoch = 0
	}
	g.tourEpoch++
	if g.tourEpoch < 0 { // wrapped: clear once
		for i := range g.tourStamp {
			g.tourStamp[i] = 0
		}
		g.tourEpoch = 1
	}
	return g.tourStamp, g.tourEpoch
}

// tourSlot returns the cache slot tracking dg, claiming the set's least
// recently seen way when none does — but never a way whose tournament
// is built and still within the log's reach: a cold head key must not
// displace a hot key's tournament (nil: the newcomer goes untracked). It
// returns nil, too, when lists of c candidates do not route through
// tournaments at all: scan mode, fewer than two candidates, or — outside
// LoadIndexTree — below the crossover, where the scan's tight gather
// loop wins regardless.
func (g *greedy) tourSlot(dg KeyDigest, c int) *candTour {
	if c < 2 || g.lidx == LoadIndexScan || (g.lidx != LoadIndexTree && c < loadIndexCrossover) {
		return nil
	}
	if g.clog == nil {
		// First eligible run: from here on bump logs every increment.
		g.clog = make([]int32, candTourLogMax)
		g.tours = make([]candTour, candTourSets*candTourWays)
	}
	set := g.tours[int(uint64(dg)&(candTourSets-1))*candTourWays:][:candTourWays]
	var old *candTour
	for i := range set {
		e := &set[i]
		if e.dig == dg {
			return e
		}
		if e.built && g.clogPos-e.at <= candTourLogMax {
			continue
		}
		if old == nil || e.at < old.at {
			old = e
		}
	}
	if old != nil {
		// A new key starts with the longest gap there is and no scan
		// cost: it earns a tournament by recurring, not by being seen.
		old.dig, old.at, old.gap, old.scan, old.built = dg, g.clogPos, 2*candTourLogMax, 0, false
	}
	return old
}

// tourStorage sizes e's slices for a list of c candidates, within the
// cache's byte budget: when the budget is short it first releases the
// storage of slots that are not currently built. It reports whether e
// can be built.
func (g *greedy) tourStorage(e *candTour, c int) bool {
	P := 2
	for P < c {
		P <<= 1
	}
	if int(e.leaves) != P {
		need := 20 * P
		g.tourBytes -= 20 * int(e.leaves)
		e.leaves, e.node, e.list, e.pos = 0, nil, nil, nil
		for i := range g.tours {
			if g.tourBytes+need <= candTourBytes {
				break
			}
			if o := &g.tours[i]; !o.built && o.leaves != 0 {
				g.tourBytes -= 20 * int(o.leaves)
				o.leaves, o.node, o.list, o.pos = 0, nil, nil, nil
			}
		}
		if g.tourBytes+need > candTourBytes {
			return false
		}
		g.tourBytes += need
		e.leaves = int32(P)
		e.node = make([]int32, 2*P)
		e.list = make([]int32, 0, P)
		e.pos = make([]int32, 2*P)
	}
	return true
}

// routeHead routes len(dst) consecutive messages of head digest dg over
// its deduplicated candidate list, reproducing len(dst) sequential
// routeCands calls exactly: through the key's tournament when keeping
// one repaired is cheaper than the scans (or the key has just earned
// one), by scanning otherwise. Callers guarantee that nothing else
// touches the loads between the messages (true within a batch run) and
// that the lists passed for one digest are prefixes of one another
// (true of the candidate cache's lists).
//
// Every load increment of a core that has routed an eligible run flows
// through bump — a scheme that can reach this point with an eligible
// list always carries the full-vector tree, so routeAll never takes its
// plain-increment scan path — and is appended to g.clog; a slot's `at`
// is the log position its key was last routed at, which is both the
// recurrence clock and, for a built tournament, the position it
// reflects.
func (g *greedy) routeHead(dg KeyDigest, cand []int32, dst []int) {
	e := g.tourSlot(dg, len(cand))
	if e == nil {
		for m := range dst {
			dst[m], _ = g.routeCands(cand)
		}
		return
	}
	if g.tourSync(e, cand) {
		g.tourRoute(e, dst)
	} else {
		// Scan, learning what a scan of this key costs; a run that has
		// already paid a build's worth of scans builds after all and
		// finishes on the tournament (a long run of a key that never
		// recurred: the rent-or-buy rule, at most twice the better choice).
		spent, m := 0, 0
		for ; m < len(dst); m++ {
			if spent >= candTourBuildScans*len(cand) {
				if g.tourBuild(e, cand) {
					break
				}
				spent = 0 // no room for one: ask again a build's worth later
			}
			w, visited := g.routeCands(cand)
			dst[m] = w
			spent += visited
		}
		e.noteScan(spent / m)
		g.tourRoute(e, dst[m:])
	}
	e.at = g.clogPos
}

// noteScan folds one observation of what a scan of the key visits into
// the slot's moving average.
func (e *candTour) noteScan(visited int) {
	if e.scan == 0 {
		e.scan = uint32(visited)
	} else {
		e.scan = (7*e.scan + uint32(visited)) / 8
	}
}

// tourRoute routes dst through e's built, synced tournament. The root
// also tells what a scan would have cost just now — it stops at the
// first candidate at the global floor, which is the root when the root
// is at the floor and nobody otherwise — so a key whose scans have
// become short loses its tournament the same way one whose runs have
// become rare does.
func (g *greedy) tourRoute(e *candTour, dst []int) {
	if len(dst) == 0 {
		return
	}
	if pos := e.node[1]; g.tree != nil && g.loads[e.list[pos]] == g.loads[g.tree.min()] {
		e.noteScan(int(pos) + 1)
	} else {
		e.noteScan(int(e.c))
	}
	g.nTreeMin += int64(len(dst))
	for m := range dst {
		pos := e.node[1]
		w := int(e.list[pos])
		g.bump(w) // also maintains the full-vector tree and the log
		e.climb(g.loads, pos)
		dst[m] = w
	}
}

// tourSync makes e a built tournament over cand reflecting the live
// loads, if the policy lets the key have one: repaired when it is built,
// within the log's reach, and its mean gap is still under the limit its
// scan cost sets; built when the mean gap has fallen to a quarter of
// that limit; otherwise left alone (false: scan).
func (g *greedy) tourSync(e *candTour, cand []int32) bool {
	lag := g.clogPos - e.at
	if lag > 2*candTourLogMax {
		lag = 2 * candTourLogMax
	}
	e.gap = uint32((7*uint64(e.gap) + lag) / 8)
	limit, forced := e.scan/candTourLagDiv, g.lidx == LoadIndexTree
	if e.built && lag <= candTourLogMax && len(cand) <= int(e.leaves) && (forced || e.gap <= limit) {
		g.nTourRepairs++
		e.repair(g, cand)
		return true
	}
	e.built = false
	return (forced || e.gap <= limit/4) && g.tourBuild(e, cand)
}

// tourBuild builds e's tournament over cand if the byte budget has room.
func (g *greedy) tourBuild(e *candTour, cand []int32) bool {
	if !g.tourStorage(e, len(cand)) {
		return false
	}
	g.nTourBuilds++
	e.build(g, cand)
	return true
}
