package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// watchdog fails the test — with every goroutine's stack — instead of
// letting a lost wake-up hang it until the suite's timeout.
func watchdog(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: still waiting after 30s — lost wake-up?\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

// skipYield puts the owner's episode past its yield phase, so the next
// fruitless poll arms at once: the narrowest arm → re-check → park
// window there is.
func skipYield(p *Parker) { p.spins = yieldSpins }

// TestParkerLostWakeupStress drives several producers, each on its own
// small ring, into one consumer that waits for all of them on a single
// Parker. Rings are tiny so the producers park on full as often as the
// consumer parks on empty, batch sizes and pauses are random, and every
// producer's Close races the consumer's arm/park window at the end. Any
// lost wake-up leaves a goroutine parked for good, which the watchdog
// reports.
func TestParkerLostWakeupStress(t *testing.T) {
	const rings, perRing = 3, 30_000
	for _, procs := range []int{1, 2, 4} {
		for _, yield := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/yield=%v", procs, yield), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				qs := make([]*SPSC[int], rings)
				cons := NewParker()
				for i := range qs {
					qs[i] = New[int](8)
					qs[i].SetConsumerWaiter(cons)
				}
				var wg sync.WaitGroup
				for i, q := range qs {
					wg.Add(1)
					go func(q *SPSC[int], seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						prod := NewParker()
						q.SetProducerWaiter(prod)
						for next := 0; next < perRing; {
							g := q.Grant(1 + rng.Intn(5))
							if g == nil {
								prod.Idle()
								continue
							}
							prod.Reset()
							if !yield {
								skipYield(prod)
							}
							n := min(len(g), perRing-next)
							for j := 0; j < n; j++ {
								g[j] = next
								next++
							}
							q.Publish(n)
							if rng.Intn(16) == 0 {
								runtime.Gosched() // let the consumer run dry
							}
						}
						q.Close()
					}(q, int64(procs*10+i))
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					want := make([]int, rings)
					drained := make([]bool, rings)
					for left := rings; left > 0; {
						progressed := false
						for i, q := range qs {
							if drained[i] {
								continue
							}
							got := q.Acquire(4)
							if got == nil {
								if q.Drained() {
									drained[i] = true
									left--
									progressed = true
								}
								continue
							}
							for _, v := range got {
								if v != want[i] {
									t.Errorf("ring %d: got %d, want %d", i, v, want[i])
								}
								want[i]++
							}
							q.Release(len(got))
							progressed = true
						}
						if !progressed {
							cons.Idle()
							continue
						}
						cons.Reset()
						if !yield {
							skipYield(cons)
						}
					}
					for i, n := range want {
						if n != perRing {
							t.Errorf("ring %d delivered %d of %d", i, n, perRing)
						}
					}
				}()
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				watchdog(t, "stress", done)
			})
		}
	}
}

// TestParkerCloseRacesPark aims Close, with nothing published, at a
// consumer somewhere between arming and parking — the one publication
// that carries no data to re-check for except the closed flag.
func TestParkerCloseRacesPark(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for iter := 0; iter < 2000; iter++ {
				q := New[int](4)
				p := NewParker()
				q.SetConsumerWaiter(p)
				done := make(chan struct{})
				go func() {
					defer close(done)
					skipYield(p)
					for !q.Drained() {
						p.Idle()
					}
				}()
				for i := rng.Intn(4); i > 0; i-- {
					runtime.Gosched()
				}
				q.Close()
				watchdog(t, fmt.Sprintf("iteration %d", iter), done)
			}
		})
	}
}

// TestParkerStaleTokenParks pins the "never a busy loop" half of the
// contract: a Wake that raced a Reset leaves one token behind, which
// costs one spurious return — after which the owner really sleeps.
func TestParkerStaleTokenParks(t *testing.T) {
	p := NewParker()
	skipYield(p)
	if p.Idle() {
		t.Fatal("first Idle past the yield phase must arm, not park")
	}
	p.Wake()  // wins the armed flag, leaves a token
	p.Reset() // the owner found work on its re-check instead of parking
	p.Wake()  // nobody armed: must not add anything

	skipYield(p)
	p.Idle() // arm
	if !p.Idle() {
		t.Fatal("second Idle must park (and swallow the stale token)")
	}
	p.Idle() // re-arm
	t0 := time.Now()
	if !p.IdleTimeout(30 * time.Millisecond) {
		t.Fatal("third Idle must park")
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("park returned after %v with no Wake: a stale token is being re-used", d)
	}
	// The timed-out park disarmed: a late Wake is a no-op again.
	p.Wake()
	p.Idle() // arm
	t0 = time.Now()
	p.IdleTimeout(30 * time.Millisecond)
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("park after a timeout returned after %v with no Wake", d)
	}
}

// TestParkerYieldPhase pins the episode's shape: yieldSpins yields, one
// arming call, then parks; Reset starts over.
func TestParkerYieldPhase(t *testing.T) {
	p := NewParker()
	for round := 0; round < 2; round++ {
		for i := 0; i <= yieldSpins; i++ {
			if p.Idle() {
				t.Fatalf("round %d: Idle call %d parked before the yield phase and arming were done", round, i)
			}
		}
		p.Wake()
		if !p.Idle() {
			t.Fatalf("round %d: Idle after arming did not park", round)
		}
		p.Reset()
	}
}

// TestNoWaiterNoWake: a ring nobody registered on does nothing extra
// (and does not crash) on any of the hooked operations.
func TestNoWaiterNoWake(t *testing.T) {
	q := New[int](4)
	q.Publish(copy(q.Grant(1), []int{1}))
	q.Publish(copy(q.Grant(2), []int{2, 3}))
	if a := q.Acquire(1); len(a) != 1 || a[0] != 1 {
		t.Fatalf("Acquire(1) = %v", a)
	}
	q.Release(1)
	q.Release(len(q.Acquire(2)))
	q.Close()
	if !q.Drained() || !q.Closed() || q.ProducerWaiter() != nil {
		t.Fatal("ring state after close")
	}
}
