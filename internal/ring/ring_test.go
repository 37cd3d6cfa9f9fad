package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// push publishes v through a one-slot Grant, reporting whether the ring
// had room.
func push[T any](q *SPSC[T], v T) bool {
	g := q.Grant(1)
	if g == nil {
		return false
	}
	g[0] = v
	q.Publish(1)
	return true
}

// pop takes the oldest item through a one-slot Acquire, reporting
// whether one was queued.
func pop[T any](q *SPSC[T]) (T, bool) {
	a := q.Acquire(1)
	if a == nil {
		var zero T
		return zero, false
	}
	v := a[0]
	q.Release(1)
	return v, true
}

// TestCapacityRounding: an empty ring grants its whole capacity at
// once, which is the requested size rounded up to a power of two.
func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := len(New[int](tc.ask).Grant(1 << 20)); got != tc.want {
			t.Errorf("New(%d): empty ring grants %d slots, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestFIFOSingleThreaded(t *testing.T) {
	q := New[int](8)
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			if !push(q, round*100+i) {
				t.Fatalf("round %d: push %d failed on non-full ring", round, i)
			}
		}
		if push(q, 999) {
			t.Fatal("push succeeded on full ring")
		}
		if q.Len() != 8 {
			t.Fatalf("Len = %d, want 8", q.Len())
		}
		for i := 0; i < 8; i++ {
			v, ok := pop(q)
			if !ok || v != round*100+i {
				t.Fatalf("round %d: pop %d = (%d, %v)", round, i, v, ok)
			}
		}
		if _, ok := pop(q); ok {
			t.Fatal("pop succeeded on empty ring")
		}
	}
}

func TestGrantPublishAcquireRelease(t *testing.T) {
	q := New[int](16)
	next := 0 // next value to publish
	want := 0 // next value expected out
	// Drive the batched API across several wrap-arounds with varying
	// batch sizes, including partial publishes of a larger grant.
	for step := 0; step < 200; step++ {
		g := q.Grant(5)
		n := 0
		for i := range g {
			if i == 3 { // publish a strict prefix sometimes
				break
			}
			g[i] = next
			next++
			n++
		}
		q.Publish(n)
		a := q.Acquire(4)
		for _, v := range a {
			if v != want {
				t.Fatalf("step %d: acquired %d, want %d", step, v, want)
			}
			want++
		}
		q.Release(len(a))
	}
	// Drain the remainder.
	for {
		v, ok := pop(q)
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("drain: got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("consumed %d items, published %d", want, next)
	}
}

func TestGrantNeverWraps(t *testing.T) {
	q := New[int](8)
	// Advance the ring so the tail sits 2 before the wrap.
	for i := 0; i < 6; i++ {
		push(q, i)
	}
	for i := 0; i < 6; i++ {
		pop(q)
	}
	g := q.Grant(100)
	if len(g) != 2 { // only 2 contiguous slots before the wrap
		t.Fatalf("grant at wrap returned %d slots, want 2", len(g))
	}
	q.Publish(2)
	if g2 := q.Grant(100); len(g2) != 6 {
		t.Fatalf("second grant returned %d slots, want 6", len(g2))
	}
}

func TestDrained(t *testing.T) {
	q := New[int](4)
	if q.Drained() {
		t.Fatal("open empty ring reports Drained")
	}
	push(q, 1)
	q.Close()
	if q.Drained() {
		t.Fatal("closed non-empty ring reports Drained")
	}
	pop(q)
	if !q.Drained() {
		t.Fatal("closed empty ring must report Drained")
	}
}

func TestSteadyStatePushPopZeroAllocs(t *testing.T) {
	q := New[[2]int64](256)
	if avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			push(q, [2]int64{int64(i), int64(i)})
		}
		for i := 0; i < 64; i++ {
			pop(q)
		}
	}); avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		g := q.Grant(64)
		for i := range g {
			g[i] = [2]int64{int64(i), 0}
		}
		q.Publish(len(g))
		a := q.Acquire(64)
		q.Release(len(a))
	}); avg != 0 {
		t.Fatalf("steady-state grant/acquire allocates %.1f/op, want 0", avg)
	}
}

// TestConcurrentStress is the randomized SPSC stress test: a real
// producer goroutine and a real consumer goroutine hammer one ring with
// randomly interleaved single and batched operations across thousands
// of wrap-arounds, and the consumer must observe exactly the sequence
// 0, 1, 2, … — any lost, duplicated, or reordered slot fails. Run under
// -race this also proves the publish/consume protocol establishes
// happens-before for the slot payloads.
func TestConcurrentStress(t *testing.T) {
	const total = 200_000
	for _, capa := range []int{4, 64, 1024} {
		q := New[int64](capa)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(capa)))
			var next int64
			for next < total {
				if rng.Intn(2) == 0 {
					if push(q, next) {
						next++
					} else {
						runtime.Gosched()
					}
					continue
				}
				g := q.Grant(1 + rng.Intn(7))
				if g == nil {
					runtime.Gosched()
					continue
				}
				n := 0
				for i := range g {
					if next >= total {
						break
					}
					g[i] = next
					next++
					n++
				}
				q.Publish(n)
			}
			q.Close()
		}()

		rng := rand.New(rand.NewSource(int64(capa) * 7))
		var want int64
		for {
			if rng.Intn(2) == 0 {
				v, ok := pop(q)
				if !ok {
					if q.Drained() {
						break
					}
					runtime.Gosched()
					continue
				}
				if v != want {
					t.Fatalf("cap %d: popped %d, want %d", capa, v, want)
				}
				want++
				continue
			}
			a := q.Acquire(1 + rng.Intn(7))
			if a == nil {
				if q.Drained() {
					break
				}
				runtime.Gosched()
				continue
			}
			for _, v := range a {
				if v != want {
					t.Fatalf("cap %d: acquired %d, want %d", capa, v, want)
				}
				want++
			}
			q.Release(len(a))
		}
		wg.Wait()
		if want != total {
			t.Fatalf("cap %d: consumed %d items, want %d", capa, want, total)
		}
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	// Single goroutine alternating push/pop: the uncontended fast path.
	q := New[int64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		push(q, 1)
		pop(q)
	}
}

func BenchmarkSPSCBatch64(b *testing.B) {
	q := New[int64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := q.Grant(64)
		for j := range g {
			g[j] = int64(j)
		}
		q.Publish(len(g))
		a := q.Acquire(64)
		q.Release(len(a))
	}
}
