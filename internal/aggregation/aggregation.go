// Package aggregation implements the two-phase windowed aggregation
// that key-splitting partitioners (PKG, D-Choices, W-Choices) impose on
// stateful streaming applications. When a key's messages are spread
// over d workers, each worker holds only a PARTIAL aggregate; producing
// the final per-key value requires a second stage that merges the d
// partials. This package provides both halves: the worker-side
// Accumulator (windowed partial tables) and the reducer-side Reducer
// (partial merging with memory accounting), so the engines can measure
// the aggregation overhead the paper trades against balance — KG pays
// one partial per key and window, W-Choices up to n.
//
// WHAT is aggregated is pluggable: a Merger operator (count, sum,
// min/max, approximate-distinct, or custom) rides inside the tables as
// a fixed 128-bit Value per entry, observed at the workers and combined
// at the reducer; message counts are tracked alongside regardless,
// because they drive the completeness-based window close. The reduce
// stage scales out via ShardedDriver: R independent Drivers keyed by
// digest (ShardFor), each closing its slice of every window on
// per-shard completeness thresholds counted at emission.
//
// # The digest-merge invariant
//
// Tables on both sides are keyed by hashing.KeyDigest, the canonical
// 64-bit digest every routing layer shares (see internal/core). The
// digest is a pure function of the key bytes, so partials for one key
// produced on DIFFERENT workers — or routed by different senders —
// carry the same digest by construction, and the reducer merges them
// with a single integer probe, never re-hashing or comparing key bytes.
// Two distinct keys collide with probability ≈ 2⁻⁶⁴ per pair, in which
// case they are aggregated as one key, exactly as they are routed and
// sketch-counted as one key upstream.
//
// The digest is CARRIED, never recomputed: routing digests each key
// once at the source (the core.Partitioner methods RouteBatchDigests /
// RouteDigest), the engines stamp that digest into their tuples,
// Accumulator.AddSample folds it into the partial tables, and the
// flushed Partial hands it onward to the reducer — one key-byte scan
// per message end to end, pinned by the engines' hash-once tests.
//
// # Windows
//
// Windows are tumbling and count-based, identified by an int64 window
// id the CALLER assigns (the engines stamp window = seq/windowSize at
// emission, so a window is a fixed slice of the source stream and
// results are engine-independent). Several windows may be open at once:
// tuples of adjacent windows interleave at a worker because sources
// drain independently. Flushing is watermark-driven — FlushBefore(w)
// closes every open window below w — and late tuples simply open a
// fresh partial for their window, which the reducer merges like any
// other; correctness never depends on flush timing, only the message
// count does.
//
// # Allocation discipline
//
// Partial tables are open-addressing arrays recycled through a free
// list: once the per-window working set is reached, a steady
// accumulate→flush cycle allocates only when a window's distinct-key
// count exceeds every previously recycled table.
package aggregation

import (
	"slices"
	"sync/atomic"

	"slb/internal/hashing"
)

// KeyDigest is the shared 64-bit key digest (see hashing.KeyDigest).
type KeyDigest = hashing.KeyDigest

// Partial is one worker's aggregate for (window, key): the unit of
// aggregation traffic from workers to the reducer. Worker identifies
// the producing worker so the reducer can account distinct
// (window, key, worker) state replicas exactly, independent of how
// many flush fragments the worker emitted: merging the partial sets the
// worker's bit in the (window, key) slot it lands in (see Reducer).
// Worker < 0 (CombinedWorker) marks a pre-merged partial whose worker
// identities are gone and which counts toward no replica. Count is
// always the number of source messages folded in (the reducer's
// completeness currency); Val is the merger's typed state for those
// messages (equal to Count under CountMerger).
type Partial struct {
	Window int64
	Digest KeyDigest
	Key    string
	Count  int64
	Val    Value
	Worker int32
}

// Final is the reducer's merged result for (window, key). Count is the
// number of source messages merged; Value is the merger's rendered
// result over them (identical to Count under CountMerger). Digest is
// the key's carried KeyDigest — the same one that routed and merged the
// messages — so downstream consumers (re-keyed edges) never re-scan the
// key bytes.
type Final struct {
	Window int64
	Digest KeyDigest
	Key    string
	Count  int64
	Value  int64
}

// ---------------------------------------------------------------------------
// Partial tables

// slot is one open-addressing entry; Count == 0 marks an empty slot
// (live entries always have Count ≥ 1). val is the merger state,
// updated by the caller after add returns the slot. seen is word 0 of
// the reducer's replica accounting — the bitset of workers whose
// partials merged into this (window, key); past 64 workers the rest of
// the set lives in the table's wide array. It stays zero in
// worker-side and combiner tables.
type slot struct {
	dig   KeyDigest
	count int64
	val   Value
	key   string
	seen  uint64
}

// table is a growable open-addressing digest → count map with linear
// probing. It is cleared (not freed) on flush so the backing arrays are
// reused across windows. sum is the total message count folded in — the
// reducer's window-completeness test. A reducer table counting more
// than 64 workers carries the words of each slot's worker set past
// seen in wide: slot i owns wide[i*extra : (i+1)*extra]. Every other
// table has extra == 0 and no wide array.
type table struct {
	slots []slot
	wide  []uint64
	extra int
	used  int
	sum   int64
	mask  uint64
}

const minTableSize = 16

func newTable(extra int) *table {
	return &table{
		slots: make([]slot, minTableSize),
		wide:  make([]uint64, extra*minTableSize),
		extra: extra,
		mask:  minTableSize - 1,
	}
}

// add folds n messages of (dg, key) into the table's count and returns
// the index of the live slot so the caller can fold its merger state
// into val. The index is valid until the next add.
func (t *table) add(dg KeyDigest, key string, n int64) int {
	t.sum += n
	i := hashing.Mix64(dg) & t.mask
	for {
		s := &t.slots[i]
		if s.count == 0 {
			s.dig, s.key, s.count, s.val, s.seen = dg, key, n, Value{}, 0
			t.used++
			if 4*t.used >= 3*len(t.slots) {
				t.grow()
				return t.find(dg)
			}
			return int(i)
		}
		if s.dig == dg {
			s.count += n
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// find returns the index of dg's live slot (which must be present).
func (t *table) find(dg KeyDigest) int {
	i := hashing.Mix64(dg) & t.mask
	for t.slots[i].dig != dg || t.slots[i].count == 0 {
		i = (i + 1) & t.mask
	}
	return int(i)
}

// grow doubles the table, moving each live slot's wide words with it.
func (t *table) grow() {
	old, oldWide := t.slots, t.wide
	t.slots = make([]slot, 2*len(old))
	t.wide = make([]uint64, t.extra*len(t.slots))
	t.mask = uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].count == 0 {
			continue
		}
		j := hashing.Mix64(old[i].dig) & t.mask
		for t.slots[j].count != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = old[i]
		if t.extra > 0 {
			copy(t.wide[int(j)*t.extra:], oldWide[i*t.extra:(i+1)*t.extra])
		}
	}
}

// clear empties the table in place, keeping the backing arrays.
func (t *table) clear() {
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	clear(t.wide)
	t.used = 0
	t.sum = 0
}

// tablePool is the windowed-table machinery both halves share: open
// tables by window id, a free list of cleared tables, and a scratch for
// sorted window selection. extra is the wide words per slot of every
// table it makes (see table): nonzero only in a reducer counting more
// than 64 workers.
type tablePool struct {
	open  map[int64]*table
	free  []*table
	ws    []int64 // scratch: window ids per flush/close call
	extra int
}

func newTablePool() tablePool {
	return tablePool{open: make(map[int64]*table)}
}

// get returns the window's table, acquiring one from the free list (or
// allocating) on first use; created reports whether it was new.
func (p *tablePool) get(w int64) (t *table, created bool) {
	t = p.open[w]
	if t != nil {
		return t, false
	}
	if k := len(p.free); k > 0 {
		t = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		t = newTable(p.extra)
	}
	p.open[w] = t
	return t, true
}

// recycle clears the window's table back onto the free list.
func (p *tablePool) recycle(w int64) {
	t := p.open[w]
	t.clear()
	p.free = append(p.free, t)
	delete(p.open, w)
}

// sortedBelow fills the scratch with the open window ids < before, in
// ascending order, and returns it.
func (p *tablePool) sortedBelow(before int64) []int64 {
	p.ws = p.ws[:0]
	for w := range p.open {
		if w < before {
			p.ws = append(p.ws, w)
		}
	}
	slices.Sort(p.ws)
	return p.ws
}

// entries returns the live entries across open windows.
func (p *tablePool) entries() int {
	n := 0
	for _, t := range p.open {
		n += t.used
	}
	return n
}

// ---------------------------------------------------------------------------
// Accumulator (worker side)

// Accumulator maintains the windowed partial aggregates of ONE worker.
// It is not safe for concurrent use; each worker owns its instance,
// exactly as each worker owns its state in a DSPE.
type Accumulator struct {
	worker  int32
	m       Merger
	pool    tablePool
	highest int64 // highest window id ever added (the watermark input)
	sawAny  bool

	flushed int64 // partials emitted over the accumulator's lifetime
}

// NewAccumulator returns an empty counting accumulator for the given
// worker index (stamped into every flushed Partial).
func NewAccumulator(worker int) *Accumulator {
	return NewAccumulatorMerger(worker, nil)
}

// NewAccumulatorMerger returns an empty accumulator whose partial
// tables fold samples with the given merge operator (nil means
// CountMerger). The reducer merging its partials must use the same
// operator.
func NewAccumulatorMerger(worker int, m Merger) *Accumulator {
	if m == nil {
		m = CountMerger
	}
	return &Accumulator{worker: int32(worker), m: m, pool: newTablePool(), highest: -1 << 62}
}

// Add folds one observation of key into the given window's partial
// table. dg is the key's CARRIED digest (the one routing computed —
// callers must not re-digest): the table probe is pure integer work.
func (a *Accumulator) Add(window int64, dg KeyDigest, key string) {
	a.AddSample(window, dg, key, 1, 1)
}

// AddSample folds n observations of the given sample into the window's
// partial table: the message count grows by n (the completeness
// currency) and the merger observes (sample, n). dg is the carried
// digest, as in Add.
func (a *Accumulator) AddSample(window int64, dg KeyDigest, key string, n, sample int64) {
	if n <= 0 {
		return
	}
	t, _ := a.pool.get(window)
	a.m.Observe(&t.slots[t.add(dg, key, n)].val, sample, n)
	if window > a.highest {
		a.highest = window
	}
	a.sawAny = true
}

// Watermark returns the highest window id observed so far; ok is false
// before the first Add. Engines flush windows strictly below the
// watermark: with sources emitting window ids non-decreasingly and
// bounded in-flight reordering, those windows are complete or nearly so
// (stragglers reopen a window late, costing an extra partial, never
// correctness).
func (a *Accumulator) Watermark() (window int64, ok bool) {
	return a.highest, a.sawAny
}

// FlushBefore closes every open window with id < window, appending one
// Partial per live (window, key) entry to dst and recycling the tables.
// It returns the extended slice. Partials of one window are emitted
// together; window order within one flush is ascending.
func (a *Accumulator) FlushBefore(window int64, dst []Partial) []Partial {
	if len(a.pool.open) == 0 {
		return dst
	}
	for _, w := range a.pool.sortedBelow(window) {
		dst = a.flushOne(w, dst)
	}
	return dst
}

// FlushAll closes every open window (end of stream).
func (a *Accumulator) FlushAll(dst []Partial) []Partial {
	return a.FlushBefore(1<<62, dst)
}

func (a *Accumulator) flushOne(w int64, dst []Partial) []Partial {
	t := a.pool.open[w]
	for i := range t.slots {
		if t.slots[i].count == 0 {
			continue
		}
		dst = append(dst, Partial{
			Window: w,
			Digest: t.slots[i].dig,
			Key:    t.slots[i].key,
			Count:  t.slots[i].count,
			Val:    t.slots[i].val,
			Worker: a.worker,
		})
	}
	a.flushed += int64(t.used)
	a.pool.recycle(w)
	return dst
}

// OpenWindows returns the number of windows currently holding partials.
func (a *Accumulator) OpenWindows() int { return len(a.pool.open) }

// Entries returns the live (window, key) entries across open windows:
// the worker's current aggregation-state size.
func (a *Accumulator) Entries() int { return a.pool.entries() }

// Flushed returns the number of partials emitted so far.
func (a *Accumulator) Flushed() int64 { return a.flushed }

// ---------------------------------------------------------------------------
// Reducer

// ReducerStats is the measured cost of the aggregation phase — the
// quantities the paper's overhead analysis talks about.
type ReducerStats struct {
	// Partials is the number of partial MESSAGES merged: the aggregation
	// traffic. At least one per (window, key, worker) pair that held
	// state, plus any flush fragments (a worker re-opening an already
	// flushed window emits a second partial for it). For the exact
	// state-replica count — distinct workers per (window, key), fragments
	// not recounted — use Driver.Replication.
	Partials int64
	// Merges counts partials that hit an existing entry (Partials −
	// first-arrivals): the extra merge work replication causes.
	Merges int64
	// Finals is the number of merged results emitted.
	Finals int64
	// WindowsClosed is the number of window slices closed, summed over
	// shards: a sharded reduce stage closes each window once per shard
	// that merged any of it, so this counts distinct windows only at
	// AggShards = 1.
	WindowsClosed int64
	// Late counts partials that arrived for an already-closed window:
	// they reopen it and its results are re-emitted as corrections.
	// Under the completeness-based Driver this is structurally zero
	// mid-stream — a closed window has provably received every partial —
	// so a nonzero value indicates double counting.
	Late int64
	// PeakEntries is the largest number of live (window, key) entries the
	// reducer ever held: its memory high-water mark in entries.
	PeakEntries int
	// PeakWindows is the largest number of simultaneously open windows.
	PeakWindows int
}

// ReplicationFactor is the measured average number of partial MESSAGES
// merged per final result: the aggregation-traffic multiplier. With
// in-order flushing it equals the state replication factor (1 for KG,
// up to n for W-Choices); under concurrent engines it additionally
// counts flush fragments and late corrections, so it upper-bounds the
// state replication the engines measure exactly via
// Driver.Replication. 0 before any window closed.
func (s ReducerStats) ReplicationFactor() float64 {
	if s.Finals == 0 {
		return 0
	}
	return float64(s.Partials) / float64(s.Finals)
}

// closedSet records exactly which window ids a reducer has finalized: a
// contiguous run [lo, hi) of closed ids plus the set of closed ids
// outside it. Windows close in (nearly) id order, so the run absorbs
// them and the set holds only out-of-order stragglers — O(open windows)
// rather than one entry per window ever closed. An id the reducer never
// sees is never closed, so it pins hi and its successors stay in the
// set.
type closedSet struct {
	lo, hi int64 // every id in [lo, hi) is closed; empty while lo == hi
	rest   map[int64]struct{}
}

func (c *closedSet) has(w int64) bool {
	if w >= c.lo && w < c.hi {
		return true
	}
	if len(c.rest) == 0 {
		return false
	}
	_, ok := c.rest[w]
	return ok
}

func (c *closedSet) add(w int64) {
	switch {
	case c.has(w): // a late partial re-opened it; closed again
		return
	case c.lo == c.hi:
		c.lo, c.hi = w, w+1
	case w == c.hi:
		c.hi++
	default:
		if c.rest == nil {
			c.rest = make(map[int64]struct{})
		}
		c.rest[w] = struct{}{}
		return
	}
	for len(c.rest) > 0 {
		if _, ok := c.rest[c.hi]; !ok {
			break
		}
		delete(c.rest, c.hi)
		c.hi++
	}
}

// Reducer merges partials into finals. One instance represents the
// aggregation stage; it is not safe for concurrent use (the engines
// funnel partial slabs through a single reducer executor, which is the
// paper's model of the aggregation bottleneck).
//
// Replica accounting rides on the merge: the slot a partial lands in
// carries the bitset of workers seen for that (window, key) — one word
// in the slot itself up to 64 workers, ⌈n/64⌉ words past that (see
// table) — so a new bit is one more (window, key, worker) state
// replica and a set's first bit one more replicated (window, key).
// Counts are cumulative; the bitset goes with the window's table when
// the window closes, so a late partial that re-opens a closed window
// counts as a fresh key.
type Reducer struct {
	m      Merger
	pool   tablePool
	live   int       // live entries across open windows
	closed closedSet // ids already finalized (windows may close out of order)
	stats  ReducerStats

	// slotWorkers bounds the in-slot accounting: partials of workers
	// [0, slotWorkers) are counted; 0 counts nothing.
	slotWorkers int32
	pairs       int64   // distinct (window, key, worker) triples counted in slots
	keys        int64   // distinct (window, key) holding at least one counted worker
	runs        []int64 // scratch: the window of each run of the last Merge

	// Atomic mirrors of live, len(pool.open), pairs and keys, updated
	// once per Merge/close call, so a telemetry snapshot goroutine can
	// read the reducer's occupancy while the owning goroutine merges.
	liveA  atomic.Int64
	openA  atomic.Int64
	pairsA atomic.Int64
	keysA  atomic.Int64
}

// NewReducer returns an empty counting reducer.
func NewReducer() *Reducer {
	return NewReducerMerger(nil)
}

// NewReducerMerger returns an empty reducer combining partial values
// with the given merge operator (nil means CountMerger) — the same
// operator the accumulators that feed it were built with.
func NewReducerMerger(m Merger) *Reducer {
	if m == nil {
		m = CountMerger
	}
	return &Reducer{m: m, pool: newTablePool()}
}

// Merge folds a slab of partials into the reducer's open windows. The
// window's table and closed-state are resolved once per RUN of
// same-window partials (a flushed slab is a few long runs), not once
// per partial.
func (r *Reducer) Merge(ps []Partial) {
	r.runs = r.runs[:0]
	for i := 0; i < len(ps); {
		w := ps[i].Window
		j := i + 1
		for j < len(ps) && ps[j].Window == w {
			j++
		}
		r.mergeRun(w, ps[i:j])
		r.runs = append(r.runs, w)
		i = j
	}
	// live only grows inside Merge, so its value here is the slab's peak.
	if r.live > r.stats.PeakEntries {
		r.stats.PeakEntries = r.live
	}
	r.liveA.Store(int64(r.live))
	r.openA.Store(int64(len(r.pool.open)))
	r.pairsA.Store(r.pairs)
	r.keysA.Store(r.keys)
}

// mergeRun folds partials that all belong to window w.
func (r *Reducer) mergeRun(w int64, run []Partial) {
	if r.closed.has(w) {
		r.stats.Late += int64(len(run))
	}
	t, created := r.pool.get(w)
	if created && len(r.pool.open) > r.stats.PeakWindows {
		r.stats.PeakWindows = len(r.pool.open)
	}
	before := t.used
	for i := range run {
		p := &run[i]
		si := t.add(p.Digest, p.Key, p.Count)
		s := &t.slots[si]
		r.m.Combine(&s.val, p.Val)
		if p.Worker >= 0 && r.slotWorkers > 0 {
			if p.Worker >= r.slotWorkers {
				panic("aggregation: partial's worker out of range")
			}
			if t.extra > 0 {
				r.markWide(t, si, p.Worker)
			} else if bit := uint64(1) << uint(p.Worker); s.seen&bit == 0 {
				if s.seen == 0 {
					r.keys++
				}
				s.seen |= bit
				r.pairs++
			}
		}
	}
	added := t.used - before
	r.stats.Partials += int64(len(run))
	r.stats.Merges += int64(len(run) - added)
	r.live += added
}

// markWide is mergeRun's replica update past 64 workers: the worker's
// bit is in word worker/64 of slot i's set — word 0 is the slot's seen,
// the rest its wide words.
func (r *Reducer) markWide(t *table, i int, worker int32) {
	s, rest := &t.slots[i], t.wide[i*t.extra:(i+1)*t.extra]
	word := &s.seen
	if q := worker / 64; q > 0 {
		word = &rest[q-1]
	}
	bit := uint64(1) << uint(worker%64)
	if *word&bit != 0 {
		return
	}
	empty := s.seen == 0
	for _, x := range rest {
		empty = empty && x == 0
	}
	if empty {
		r.keys++
	}
	*word |= bit
	r.pairs++
}

// WindowTotal returns the total message count merged into the given
// open window (0 if the window is not open): the completeness test —
// a window whose total equals its exact message count has received
// every partial it ever will.
func (r *Reducer) WindowTotal(w int64) int64 {
	t := r.pool.open[w]
	if t == nil {
		return 0
	}
	return t.sum
}

// closeWindow finalizes one open window, appending its merged results
// to dst (unspecified key order).
func (r *Reducer) closeWindow(w int64, dst []Final) []Final {
	t := r.pool.open[w]
	for i := range t.slots {
		if t.slots[i].count == 0 {
			continue
		}
		dst = append(dst, Final{
			Window: w,
			Digest: t.slots[i].dig,
			Key:    t.slots[i].key,
			Count:  t.slots[i].count,
			Value:  r.m.Result(t.slots[i].val),
		})
	}
	r.stats.Finals += int64(t.used)
	r.stats.WindowsClosed++
	r.live -= t.used
	r.closed.add(w)
	r.pool.recycle(w)
	r.liveA.Store(int64(r.live))
	r.openA.Store(int64(len(r.pool.open)))
	return dst
}

// CloseWindow finalizes the given window if open, appending the merged
// results to dst and returning the extended slice.
func (r *Reducer) CloseWindow(w int64, dst []Final) []Final {
	if r.pool.open[w] == nil {
		return dst
	}
	return r.closeWindow(w, dst)
}

// CloseBefore finalizes every open window with id < window, appending
// the merged results to dst (ascending window order, unspecified key
// order within a window) and returning the extended slice.
func (r *Reducer) CloseBefore(window int64, dst []Final) []Final {
	if len(r.pool.open) == 0 {
		return dst
	}
	for _, w := range r.pool.sortedBelow(window) {
		dst = r.closeWindow(w, dst)
	}
	return dst
}

// CloseAll finalizes every open window (end of stream).
func (r *Reducer) CloseAll(dst []Final) []Final {
	return r.CloseBefore(1<<62, dst)
}

// Entries returns the live (window, key) entries currently held.
func (r *Reducer) Entries() int { return r.live }

// LiveEntries is the concurrent-safe form of Entries: an atomic
// snapshot updated once per Merge/close call, readable while the owning
// goroutine merges (telemetry gauges poll it).
func (r *Reducer) LiveEntries() int64 { return r.liveA.Load() }

// LiveWindows is the concurrent-safe count of currently open windows,
// with the same per-call granularity as LiveEntries.
func (r *Reducer) LiveWindows() int64 { return r.openA.Load() }

// Stats returns the accumulated cost counters.
func (r *Reducer) Stats() ReducerStats { return r.stats }

// ---------------------------------------------------------------------------
// Driver

// Driver is the reducer side of an engine run: it merges partial slabs,
// accounts exact state replication, closes windows, and totals the
// finals. Both engines (internal/dspe, internal/eventsim) share this
// policy, so it lives in one place.
//
// Replication is counted where the merge already is: a partial's
// worker bit lands in the reducer's own (window, key) slot (see
// Reducer), at no lookup of its own and at any worker count — the
// slot's set is as wide as the workers need, fixed at construction.
//
// Window close is COMPLETENESS-based, not watermark-based: every
// tumbling window has an exactly known message count (windowSize,
// except the stream's final window), each message contributes exactly
// once to exactly one flushed partial, and partials carry counts — so
// a window whose merged total reaches its size has provably received
// every partial it ever will and closes immediately. No reordering
// assumption is involved (watermark slack heuristics break down when a
// message is stuck behind a hot worker's queue while the rest of the
// cluster races ahead), duplicates are structurally impossible
// mid-stream, and each (window, key) yields exactly one Final. Not
// safe for concurrent use; each engine funnels slabs through one
// driver.
type Driver struct {
	red      *Reducer
	expected func(w int64) (int64, bool)
	// retire, when set, is told each window this driver closed on
	// completeness (the sharded stage drops the window's threshold row
	// once every shard has).
	retire func(w int64)
	total  int64
	finals []Final
}

// NewDriver returns a counting driver for an engine run of `messages`
// total messages in tumbling windows of windowSize (the final window
// holds the remainder).
func NewDriver(workers int, windowSize, messages int64) *Driver {
	return NewDriverMerger(workers, windowSize, messages, nil)
}

// NewDriverMerger is NewDriver with a pluggable merge operator (nil
// means CountMerger).
func NewDriverMerger(workers int, windowSize, messages int64, m Merger) *Driver {
	if windowSize <= 0 {
		panic("aggregation: Driver windowSize must be positive")
	}
	return newDriverExpected(workers, m, closedFormExpected(windowSize, messages))
}

// newDriverExpected builds a driver whose per-window completeness
// threshold comes from the given function: expected(w) returns the
// number of messages the driver must merge before window w may close,
// and whether that number is FINAL (a window must never close against
// a still-growing threshold — see ShardedDriver, whose per-shard
// thresholds are counted at emission and only final once the whole
// window has been emitted). The reducer's replica sets are sized for
// workers: one word per slot up to 64, ⌈workers/64⌉ past that.
func newDriverExpected(workers int, m Merger, expected func(w int64) (int64, bool)) *Driver {
	if workers <= 0 {
		panic("aggregation: Driver workers must be positive")
	}
	d := &Driver{red: NewReducerMerger(m), expected: expected}
	d.red.slotWorkers = int32(workers)
	d.red.pool.extra = (workers - 1) / 64
	return d
}

// closedFormExpected is the unsharded threshold: every tumbling window
// holds exactly windowSize messages except the stream's final window,
// which holds the remainder. Always final.
func closedFormExpected(windowSize, messages int64) func(w int64) (int64, bool) {
	return func(w int64) (int64, bool) {
		if messages > 0 {
			if last := (messages - 1) / windowSize; w == last {
				return messages - last*windowSize, true
			}
		}
		return windowSize, true
	}
}

// Merge folds one flushed slab into the reducer and closes every
// window the slab completed; onFinal (optional) receives each result.
func (d *Driver) Merge(ps []Partial, onFinal func(Final)) {
	if len(ps) == 0 {
		return
	}
	d.red.Merge(ps)
	for _, w := range d.red.runs {
		if exp, final := d.expected(w); final && d.red.WindowTotal(w) >= exp {
			d.emit(d.red.CloseWindow(w, d.finals[:0]), onFinal)
			// A window closes with at least one final; none means w was not
			// open (a second run of a window an earlier run already closed).
			if d.retire != nil && len(d.finals) > 0 {
				d.retire(w)
			}
		}
	}
}

// Finish closes every remaining window (end of stream).
func (d *Driver) Finish(onFinal func(Final)) {
	d.emit(d.red.CloseAll(d.finals[:0]), onFinal)
}

func (d *Driver) emit(fs []Final, onFinal func(Final)) {
	d.finals = fs
	for _, f := range fs {
		d.total += f.Count
		if onFinal != nil {
			onFinal(f)
		}
	}
}

// Stats returns the reducer's cost counters.
func (d *Driver) Stats() ReducerStats { return d.red.Stats() }

// LiveEntries returns the reducer's current live (window, key) entries;
// safe to call concurrently with Merge (see Reducer.LiveEntries).
func (d *Driver) LiveEntries() int64 { return d.red.LiveEntries() }

// LiveWindows returns the reducer's currently open window count; safe
// to call concurrently with Merge.
func (d *Driver) LiveWindows() int64 { return d.red.LiveWindows() }

// replicas returns the cumulative replica counts: distinct
// (window, key, worker) triples and distinct (window, key).
// Owner-goroutine or post-join only.
func (d *Driver) replicas() (pairs, keys int64) { return d.red.pairs, d.red.keys }

// Replication returns the exact measured state replication factor:
// distinct (window, key, worker) triples per distinct (window, key).
func (d *Driver) Replication() float64 { return perKey(d.replicas()) }

// LiveReplication is Replication as of the last Merge call, safe to
// call concurrently with Merge (telemetry gauges poll it).
func (d *Driver) LiveReplication() float64 {
	return perKey(d.red.pairsA.Load(), d.red.keysA.Load())
}

// perKey is the replication factor of the given counts (0 before any
// key was observed).
func perKey(pairs, keys int64) float64 {
	if keys == 0 {
		return 0
	}
	return float64(pairs) / float64(keys)
}

// Total returns the sum of all final counts emitted so far.
func (d *Driver) Total() int64 { return d.total }
