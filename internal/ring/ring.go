// Package ring provides the lock-free bounded queues of the engines'
// dataplane: single-producer/single-consumer (SPSC) ring buffers with
// power-of-two capacity, cache-line-padded head/tail counters, a
// cached-sequence fast path, and batched publish/consume operations.
//
// An SPSC ring replaces a Go channel on an edge that has exactly one
// sender and one receiver — which is how the dspe engine wires its
// topology: one transport link, and so one ring, per (spout, bolt) and
// (bolt, reducer shard) edge.
// On such an edge the ring needs no locks at all: the producer owns the
// tail, the consumer owns the head, and each publishes its progress
// with a single atomic store. The cached-sequence fast path (the
// producer keeps a private copy of the last head it loaded, the
// consumer of the last tail) means the common case — space available,
// items available — touches no shared cache line belonging to the other
// side, so producer and consumer run without ping-ponging ownership of
// the counters.
//
// The batched forms move the dataplane from per-message to per-slab
// cost without per-slab allocation: Grant hands the producer a
// contiguous window of ring slots to fill in place, Publish commits
// them with one atomic store; Acquire/Release are the consumer-side
// mirror. Messages therefore live IN the ring's slot array — the ring
// is the tuple arena — and a slot is reused as soon as the consumer
// releases it, giving a zero-allocation steady state on the whole
// tuple path.
//
// The memory-model contract is the standard one: the producer's plain
// writes into granted slots happen before its atomic tail store, and
// the consumer's atomic tail load happens before its plain reads of
// those slots (sync/atomic operations are sequentially consistent and
// establish happens-before), so the race detector and every supported
// platform see a correctly synchronized queue.
//
// Every operation is non-blocking. A side that finds the ring empty (or
// full) waits on a Parker (parker.go) it registered with
// SetConsumerWaiter (SetProducerWaiter): Publish and Close wake the
// consumer's, Release wakes the producer's, each right after its atomic
// store, so "arm, re-poll, park" on the waiting side cannot miss it. One
// Parker can be registered on many rings. A ring with no waiter
// registered pays a nil check per Publish/Release and its owner polls
// however it likes.
package ring

import (
	"sync/atomic"
)

// cacheLine is the assumed coherence-granule size. 64 bytes covers
// x86-64 and most arm64 server parts; on 128-byte-line hosts the pads
// below still separate the producer and consumer counters (two 64-byte
// pads between them), which is the pairing that matters.
const cacheLine = 64

// SPSC is a bounded single-producer/single-consumer queue of T with
// power-of-two capacity. The zero value is not usable; construct with
// New. Exactly one goroutine may call the producer methods (Grant,
// Publish, Close) and exactly one — not necessarily different — the
// consumer methods (Acquire, Release, Drained).
type SPSC[T any] struct {
	// Shared, read-mostly after set-up: no false sharing with the counters.
	buf  []T
	mask uint64
	// Optional wake hooks, nil unless a side parks (see Parker).
	consumerWaiter atomic.Pointer[Parker]
	producerWaiter atomic.Pointer[Parker]

	_ [cacheLine]byte
	// Producer-owned line: tail is where the producer publishes, cachedHead
	// its private view of the consumer's progress (refreshed only when the
	// ring looks full).
	tail       atomic.Uint64
	cachedHead uint64

	_ [cacheLine]byte
	// Consumer-owned line: head is where the consumer publishes, cachedTail
	// its private view of the producer's progress (refreshed only when the
	// ring looks empty).
	head       atomic.Uint64
	cachedTail uint64

	_ [cacheLine]byte
	// closed is written once by the producer; consumers poll it only after
	// observing an empty ring, so it shares no hot line with the counters.
	closed atomic.Bool
}

// New returns an empty ring whose capacity is `capacity` rounded up to
// a power of two (minimum 2).
func New[T any](capacity int) *SPSC[T] {
	c := uint64(2)
	for int(c) < capacity {
		c <<= 1
	}
	return &SPSC[T]{buf: make([]T, c), mask: c - 1}
}

// SetConsumerWaiter registers the Parker that Publish and Close wake.
// It belongs to the ring's consumer, who may share it across all the
// rings it drains.
func (q *SPSC[T]) SetConsumerWaiter(p *Parker) { q.consumerWaiter.Store(p) }

// SetProducerWaiter registers the Parker that Release and Close wake.
// It belongs to the ring's producer.
func (q *SPSC[T]) SetProducerWaiter(p *Parker) { q.producerWaiter.Store(p) }

// ProducerWaiter returns the registered producer Parker, or nil.
func (q *SPSC[T]) ProducerWaiter() *Parker { return q.producerWaiter.Load() }

func wake(w *atomic.Pointer[Parker]) {
	if p := w.Load(); p != nil {
		p.Wake()
	}
}

// Len returns the number of items currently queued. It is a snapshot:
// exact only when producer or consumer is quiescent.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// ---------------------------------------------------------------------------
// Producer side

// Grant returns a writable window of up to max ring slots for the
// producer to fill in place, or nil if the ring is full. The window is
// contiguous in the backing array, so one Grant may return fewer slots
// than are free (it never wraps); Publish the filled prefix and Grant
// again. Slots hold whatever the previous occupant left — overwrite,
// don't read.
func (q *SPSC[T]) Grant(max int) []T {
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.cachedHead)
	if free == 0 {
		q.cachedHead = q.head.Load()
		free = uint64(len(q.buf)) - (t - q.cachedHead)
		if free == 0 {
			return nil
		}
	}
	i := t & q.mask
	n := uint64(len(q.buf)) - i // contiguous until the wrap
	if n > free {
		n = free
	}
	if n > uint64(max) {
		n = uint64(max)
	}
	return q.buf[i : i+n]
}

// Publish commits the first n slots of the last Grant, making them
// visible to the consumer.
func (q *SPSC[T]) Publish(n int) {
	if n > 0 {
		q.tail.Store(q.tail.Load() + uint64(n))
		wake(&q.consumerWaiter)
	}
}

// Close marks the producer done. The consumer drains what remains and
// then observes Drained. Publish after Close is a caller bug (slots are
// still accepted; the consumer may or may not see them). Close wakes
// both registered waiters, and a transport tearing a link down may call
// it from a third goroutine: the flag is atomic, and only a Close
// ordered after the producer's last Publish promises the consumer every
// item.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	wake(&q.consumerWaiter)
	wake(&q.producerWaiter)
}

// Closed reports whether Close was called: a producer waiting for space
// uses it to give up on a ring that was torn down under it.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }

// ---------------------------------------------------------------------------
// Consumer side

// Acquire returns a readable window of up to max queued items, or nil
// if the ring is empty. Like Grant it never wraps, so a non-empty ring
// may yield fewer items than are queued; Release what was consumed and
// Acquire again. The returned slots are owned by the consumer until
// the matching Release; the producer cannot overwrite them.
func (q *SPSC[T]) Acquire(max int) []T {
	h := q.head.Load()
	avail := q.cachedTail - h
	if avail == 0 {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - h
		if avail == 0 {
			return nil
		}
	}
	i := h & q.mask
	n := uint64(len(q.buf)) - i
	if n > avail {
		n = avail
	}
	if n > uint64(max) {
		n = uint64(max)
	}
	return q.buf[i : i+n]
}

// Release returns the first n slots of the last Acquire to the
// producer for reuse.
func (q *SPSC[T]) Release(n int) {
	if n > 0 {
		q.head.Store(q.head.Load() + uint64(n))
		wake(&q.producerWaiter)
	}
}

// Drained reports whether the producer has closed the ring AND every
// published item has been consumed: the consumer's termination test.
// The order matters — closed is checked first, then emptiness — so a
// push racing a close is never lost (if Drained sees closed, the
// producer published its last item before Close, and the emptiness
// check observes it).
func (q *SPSC[T]) Drained() bool {
	if !q.closed.Load() {
		return false
	}
	return q.tail.Load() == q.head.Load()
}
