// Package spacesaving implements the SpaceSaving algorithm of Metwally,
// Agrawal and El Abbadi ("Efficient computation of frequent and top-k
// elements in data streams", ICDT 2005) on the Stream-Summary data
// structure, which supports strict O(1) updates per stream item.
//
// A Summary with capacity c monitors at most c keys and guarantees, for
// every key k with true count f(k) and estimate est(k) with error err(k):
//
//	est(k) − err(k) ≤ f(k) ≤ est(k)          (for monitored keys)
//	f(k) ≤ minCount ≤ N/c                    (for unmonitored keys)
//
// so every key with frequency above 1/c is guaranteed to be monitored.
// Summaries are mergeable in the sense of Berinde, Indyk, Cormode and
// Strauss (ACM TODS 2010), enabling the distributed heavy-hitter tracking
// the paper relies on when several sources observe disjoint sub-streams.
//
// # Digest keying and allocation discipline
//
// The sketch sits on the partitioners' per-message hot path, so the
// monitored-entry table is keyed by hashing.KeyDigest (the 64-bit digest
// every routing layer shares) rather than by string: OfferDigest and
// CountDigest never hash or compare key bytes. The key string is retained
// only inside monitored entries, for reporting (Entries, HeavyHitters)
// and merging. Two distinct keys with equal digests (probability ≈ 2⁻⁶⁴
// per pair) are counted as one key.
//
// The steady-state update path allocates nothing: the digest table is a
// fixed-size open-addressing array, evictions recycle counter nodes, and
// emptied count buckets are kept on a free list for reuse.
package spacesaving

import (
	"sort"

	"slb/internal/hashing"
)

// Entry is one monitored key with its count estimate and maximum
// overestimation error.
type Entry struct {
	Key   string
	Count uint64 // estimated count; never below the true count
	Err   uint64 // maximum overestimation: Count − Err ≤ true ≤ Count
}

// counter is a node in the Stream-Summary: a monitored key parked in the
// bucket matching its current estimated count. The digest identifies the
// key on the hot path; the string exists only for reporting.
type counter struct {
	dig        hashing.KeyDigest
	key        string
	count      uint64
	err        uint64
	bucket     *bucket
	prev, next *counter // siblings within the same bucket
}

// bucket groups all counters sharing one count value. Buckets form a
// doubly-linked list in strictly ascending count order, so the minimum
// counter is always reachable in O(1).
type bucket struct {
	count      uint64
	size       int // counters linked under head (HeadCounts reads it instead of walking them)
	head       *counter
	prev, next *bucket
}

// digestTable is a fixed-size open-addressing map digest → *counter with
// linear probing and backward-shift deletion. It is sized at construction
// for a load factor ≤ ½ at full sketch capacity and never grows, so
// lookups, inserts and deletes are allocation-free forever.
type digestTable struct {
	slots []*counter
	mask  uint64
}

func newDigestTable(capacity int) digestTable {
	size := 4
	for size < 2*capacity {
		size <<= 1
	}
	return digestTable{slots: make([]*counter, size), mask: uint64(size - 1)}
}

func (t *digestTable) get(d hashing.KeyDigest) *counter {
	i := hashing.Mix64(d) & t.mask
	for {
		c := t.slots[i]
		if c == nil {
			return nil
		}
		if c.dig == d {
			return c
		}
		i = (i + 1) & t.mask
	}
}

func (t *digestTable) put(c *counter) {
	i := hashing.Mix64(c.dig) & t.mask
	for t.slots[i] != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i] = c
}

// del removes the entry for digest d, compacting the probe chain by
// backward shifting so no tombstones accumulate.
func (t *digestTable) del(d hashing.KeyDigest) {
	i := hashing.Mix64(d) & t.mask
	for {
		c := t.slots[i]
		if c == nil {
			return // not present
		}
		if c.dig == d {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: pull later entries of the probe chain into the hole
	// when their home position precedes it.
	hole := i
	j := (i + 1) & t.mask
	for {
		c := t.slots[j]
		if c == nil {
			break
		}
		home := hashing.Mix64(c.dig) & t.mask
		// c may move into the hole iff the hole lies cyclically within
		// [home, j].
		if (j-home)&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = c
			hole = j
		}
		j = (j + 1) & t.mask
	}
	t.slots[hole] = nil
}

// Summary is a SpaceSaving sketch. The zero value is not usable;
// construct with New.
type Summary struct {
	capacity int
	len      int
	table    digestTable
	min      *bucket  // lowest-count bucket
	max      *bucket  // highest-count bucket (for descending queries)
	n        uint64   // stream length observed so far
	free     *bucket  // recycled bucket nodes (linked via next)
	last     *counter // memo of the last offered counter (hot-key fast path)
	evicted  uint64   // min-counter replacements (head churn; see Evictions)
}

// New returns an empty Summary that monitors at most capacity keys.
// Capacity c yields a frequency error of at most N/c over a stream of
// length N; to detect all keys above frequency threshold θ, any
// capacity ≥ 1/θ suffices.
func New(capacity int) *Summary {
	if capacity <= 0 {
		panic("spacesaving: capacity must be positive")
	}
	return &Summary{
		capacity: capacity,
		table:    newDigestTable(capacity),
	}
}

// Capacity returns the maximum number of monitored keys.
func (s *Summary) Capacity() int { return s.capacity }

// N returns the number of items offered so far.
func (s *Summary) N() uint64 { return s.n }

// Len returns the number of currently monitored keys.
func (s *Summary) Len() int { return s.len }

// Evictions returns how many times an offer replaced the minimum
// counter (an unmonitored key displacing a monitored one). Once the
// sketch is full this is the churn of the monitored set: near zero on a
// stable skewed stream, and rising when the head drifts — the signal
// the telemetry layer exports as sketch churn.
func (s *Summary) Evictions() uint64 { return s.evicted }

// OfferDigest feeds one occurrence of the key identified by digest d,
// with key retained for reporting if the key becomes monitored. It
// returns the key's estimated count after the update (the key is always
// monitored after an offer). This is the hot-path form: no key bytes are
// scanned and nothing is allocated in steady state.
func (s *Summary) OfferDigest(d hashing.KeyDigest, key string) uint64 {
	return s.OfferDigestN(d, key, 1)
}

// OfferDigestN feeds r consecutive occurrences of one key, equivalent to
// calling OfferDigest r times but with a single table lookup and a single
// bucket relocation. Batched routing uses it to amortize sketch
// maintenance over runs of identical keys. r must be positive.
func (s *Summary) OfferDigestN(d hashing.KeyDigest, key string, r uint64) uint64 {
	if r == 0 {
		return 0
	}
	s.n += r
	// Hot-key memo: a skewed stream offers the same counter most of the
	// time; validating the stored digest makes the memo safe across
	// evictions (an evicted counter is reassigned a new digest).
	if c := s.last; c != nil && c.dig == d {
		s.incrementBy(c, r)
		return c.count
	}
	if c := s.table.get(d); c != nil {
		s.last = c
		s.incrementBy(c, r)
		return c.count
	}
	if s.len < s.capacity {
		c := &counter{dig: d, key: key}
		s.len++
		s.table.put(c)
		s.attach(c, r)
		s.last = c
		return r
	}
	// Replace the minimum counter: the evicted key's count becomes the new
	// key's overestimation error.
	s.evicted++
	victim := s.min.head
	s.table.del(victim.dig)
	victim.err = victim.count
	victim.dig = d
	victim.key = key
	s.table.put(victim)
	s.incrementBy(victim, r)
	s.last = victim
	return victim.count
}

// newBucket takes a node from the free list or allocates one.
func (s *Summary) newBucket(count uint64) *bucket {
	if b := s.free; b != nil {
		s.free = b.next
		b.count = count
		b.head, b.size = nil, 0
		b.prev, b.next = nil, nil
		return b
	}
	return &bucket{count: count}
}

// recycle returns an unlinked, empty bucket to the free list.
func (s *Summary) recycle(b *bucket) {
	b.prev = nil
	b.next = s.free
	s.free = b
}

// incrementBy moves counter c from its current bucket to the bucket for
// count+r, creating (from the free list) or removing buckets as needed.
// O(1) for r = 1 plus a forward walk past buckets with counts below the
// new value (short in practice: hot counters sit near the top).
func (s *Summary) incrementBy(c *counter, r uint64) {
	b := c.bucket
	newCount := b.count + r
	// Fast path: c is alone in its bucket and the next bucket (if any)
	// still has a higher count, so the bucket can absorb the increment in
	// place — no relinking at all. This is the steady state of every hot
	// key (its counter sits alone at or near the top of the list).
	if b.head == c && c.next == nil && (b.next == nil || b.next.count > newCount) {
		b.count = newCount
		c.count = newCount
		return
	}
	s.unlinkCounter(c)

	// Find the insertion point: the last bucket with count ≤ newCount.
	at := b
	for at.next != nil && at.next.count <= newCount {
		at = at.next
	}
	var dst *bucket
	if at.count == newCount {
		dst = at
	} else {
		nb := s.newBucket(newCount)
		nb.prev = at
		nb.next = at.next
		if at.next != nil {
			at.next.prev = nb
		} else {
			s.max = nb
		}
		at.next = nb
		dst = nb
	}
	if b.head == nil {
		s.unlinkBucket(b)
		s.recycle(b)
	}
	c.count = newCount
	s.pushCounter(dst, c)
}

// attach places a fresh counter into the bucket for the given count,
// searching forward from the minimum (inserts happen at small counts).
func (s *Summary) attach(c *counter, count uint64) {
	c.count = count
	b := s.min
	if b == nil || b.count > count {
		nb := s.newBucket(count)
		nb.next = b
		if b != nil {
			b.prev = nb
		} else {
			s.max = nb
		}
		s.min = nb
		s.pushCounter(nb, c)
		return
	}
	at := b
	for at.next != nil && at.next.count <= count {
		at = at.next
	}
	if at.count == count {
		s.pushCounter(at, c)
		return
	}
	nb := s.newBucket(count)
	nb.prev = at
	nb.next = at.next
	if at.next != nil {
		at.next.prev = nb
	} else {
		s.max = nb
	}
	at.next = nb
	s.pushCounter(nb, c)
}

func (s *Summary) pushCounter(b *bucket, c *counter) {
	c.bucket = b
	c.prev = nil
	c.next = b.head
	if b.head != nil {
		b.head.prev = c
	}
	b.head = c
	b.size++
}

func (s *Summary) unlinkCounter(c *counter) {
	c.bucket.size--
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		c.bucket.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.prev, c.next = nil, nil
}

func (s *Summary) unlinkBucket(b *bucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.min = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.max = b.prev
	}
}

// CountDigest returns the estimated count and maximum error for the key
// identified by digest d, and whether the key is currently monitored.
func (s *Summary) CountDigest(d hashing.KeyDigest) (count, err uint64, ok bool) {
	c := s.table.get(d)
	if c == nil {
		return 0, 0, false
	}
	return c.count, c.err, true
}

// MinCount returns the smallest monitored count; any unmonitored key's
// true count is at most this value. Zero when empty.
func (s *Summary) MinCount() uint64 {
	if s.min == nil {
		return 0
	}
	return s.min.count
}

// Entries returns all monitored keys sorted by descending estimated count
// (ties broken by key for determinism).
func (s *Summary) Entries() []Entry {
	out := make([]Entry, 0, s.len)
	for b := s.min; b != nil; b = b.next {
		for c := b.head; c != nil; c = c.next {
			out = append(out, Entry{Key: c.key, Count: c.count, Err: c.err})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// HeavyHitters returns all monitored keys whose estimated frequency is at
// least theta, sorted by descending count. Every key whose true frequency
// is ≥ theta is included (no false negatives) provided
// capacity ≥ 1/theta; some keys below theta may appear (false positives
// bounded by the sketch error).
func (s *Summary) HeavyHitters(theta float64) []Entry {
	if s.n == 0 {
		return nil
	}
	thr := theta * float64(s.n)
	// Walk buckets from the top down: O(|head|) plus a key sort inside
	// each bucket, instead of sorting all monitored keys. The head is a
	// few dozen entries at the paper's scales but thousands at θ =
	// 1/(5n), n = 4096 (2,816 measured on a z = 0.8 stream), so this is
	// the reporting path; callers that only need the counts on a hot
	// path use HeadCounts. The bucket order gives descending counts;
	// ties are key-sorted within each bucket for determinism.
	var out []Entry
	for b := s.max; b != nil && float64(b.count) >= thr; b = b.prev {
		start := len(out)
		for c := b.head; c != nil; c = c.next {
			out = append(out, Entry{Key: c.key, Count: c.count, Err: c.err})
		}
		grp := out[start:]
		sort.Slice(grp, func(i, j int) bool { return grp[i].Key < grp[j].Key })
	}
	return out
}

// HeadCounts appends to dst[:0] the estimated counts of the keys
// HeavyHitters(theta) would return, in the same (non-increasing) order,
// and returns the extended slice: the same bucket walk from the maximum
// down, without the Entry copies (each carries a string header the
// collector must scan), without the per-bucket key sort, and without
// touching the counters at all (a bucket knows how many it holds). It
// allocates only when dst is too short, so a caller that keeps dst does
// not allocate in steady state — the D-Choices solver's snapshot.
func (s *Summary) HeadCounts(theta float64, dst []uint64) []uint64 {
	dst = dst[:0]
	if s.n == 0 {
		return dst
	}
	thr := theta * float64(s.n)
	for b := s.max; b != nil && float64(b.count) >= thr; b = b.prev {
		for i := 0; i < b.size; i++ {
			dst = append(dst, b.count)
		}
	}
	return dst
}

// mergedEntry pairs an Entry with its digest during Merge.
type mergedEntry struct {
	dig        hashing.KeyDigest
	key        string
	count, err uint64
}

// entriesWithDigests returns the monitored entries with their digests,
// in the deterministic Entries order.
func (s *Summary) entriesWithDigests() []mergedEntry {
	out := make([]mergedEntry, 0, s.len)
	for b := s.min; b != nil; b = b.next {
		for c := b.head; c != nil; c = c.next {
			out = append(out, mergedEntry{dig: c.dig, key: c.key, count: c.count, err: c.err})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].key < out[j].key
	})
	return out
}

// Merge combines s with other into a new Summary with s's capacity,
// following the mergeable-summaries construction: per-key estimates add
// up, keys absent from one side contribute that side's minimum count as
// additional error, and only the largest `capacity` keys are retained.
// Both inputs are left unmodified. The merged sketch preserves the
// SpaceSaving guarantee est−err ≤ true ≤ est.
func (s *Summary) Merge(other *Summary) *Summary {
	sMin, oMin := s.MinCount(), other.MinCount()

	entries := make([]mergedEntry, 0, s.len+other.len)
	for _, e := range s.entriesWithDigests() {
		if oc := other.table.get(e.dig); oc != nil {
			e.count += oc.count
			e.err += oc.err
		} else {
			// Unknown to other: its true count there is ≤ oMin.
			e.count += oMin
			e.err += oMin
		}
		entries = append(entries, e)
	}
	for _, e := range other.entriesWithDigests() {
		if s.table.get(e.dig) != nil {
			continue // already merged above
		}
		// Unknown to s: its true count there is ≤ sMin.
		e.count += sMin
		e.err += sMin
		entries = append(entries, e)
	}

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].key < entries[j].key
	})
	if len(entries) > s.capacity {
		entries = entries[:s.capacity]
	}

	out := New(s.capacity)
	out.n = s.n + other.n
	// Rebuild the bucket structure from the retained entries (ascending
	// insert keeps the bucket list ordered).
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c := &counter{dig: e.dig, key: e.key, err: e.err}
		out.len++
		out.table.put(c)
		out.attachSorted(c, e.count)
	}
	return out
}

// attachSorted inserts a counter with an arbitrary count assuming counts
// arrive in non-decreasing order (used by Merge's and Clone's rebuild).
func (s *Summary) attachSorted(c *counter, count uint64) {
	c.count = count
	// Counts arrive ascending, so the target is the maximum bucket or a
	// new bucket after it.
	last := s.max
	if last != nil && last.count == count {
		s.pushCounter(last, c)
		return
	}
	nb := s.newBucket(count)
	nb.prev = last
	if last != nil {
		last.next = nb
	} else {
		s.min = nb
	}
	s.max = nb
	s.pushCounter(nb, c)
}

// Clone returns an independent deep copy of the sketch.
func (s *Summary) Clone() *Summary {
	out := New(s.capacity)
	out.n = s.n
	out.evicted = s.evicted
	entries := s.entriesWithDigests()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c := &counter{dig: e.dig, key: e.key, err: e.err}
		out.len++
		out.table.put(c)
		out.attachSorted(c, e.count)
	}
	return out
}
