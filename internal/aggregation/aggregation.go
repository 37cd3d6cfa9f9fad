// Package aggregation implements the two-phase windowed aggregation
// that key-splitting partitioners (PKG, D-Choices, W-Choices) impose on
// stateful streaming applications. When a key's messages are spread
// over d workers, each worker holds only a PARTIAL aggregate; producing
// the final per-key value requires a second stage that merges the d
// partials. This package provides both halves: the worker-side
// Accumulator (windowed partial tables) and the reduce stage, Driver
// (partial merging with memory accounting), so the engines can measure
// the aggregation overhead the paper trades against balance — KG pays
// one partial per key and window, W-Choices up to n.
//
// WHAT is aggregated is pluggable: a Merger operator (count, sum,
// min/max, approximate-distinct, or custom) rides inside the tables as
// a fixed 128-bit Value per entry, observed at the workers and combined
// at the reducer; message counts are tracked alongside regardless,
// because they drive the completeness-based window close. The reduce
// stage is one Driver of R ≥ 1 shards keyed by digest (ShardFor), each
// closing its slice of every window on a completeness threshold. The
// Driver owns the window clock: Driver.ObserveEmits counts the
// thresholds at emission and tells the engines when the stream enters
// a new window, so neither engine keeps a clock of its own.
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

	"slb/internal/hashing"
)

// KeyDigest is the shared 64-bit key digest (see hashing.KeyDigest).
type KeyDigest = hashing.KeyDigest

// Partial is one worker's aggregate for (window, key): the unit of
// aggregation traffic from workers to the reducer. Worker identifies
// the producing worker so the reducer can account distinct
// (window, key, worker) state replicas exactly, independent of how
// many flush fragments the worker emitted: merging the partial sets the
// worker's bit in the (window, key) slot it lands in (see shard).
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
