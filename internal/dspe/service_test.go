package dspe

import (
	"math/rand"
	"testing"
	"time"
)

// TestServiceClockPaysNetOfOvershoot drives the clock with an injected
// sleeper that returns late by a random amount, as a timer does: after
// N payments of S, paid lies in [N·S, N·S + the largest overshoot],
// every wait asks for exactly what is owed beyond what earlier
// overshoot already paid, and a payment that earlier overshoot covers
// does not wait at all.
func TestServiceClockPaysNetOfOvershoot(t *testing.T) {
	for _, tc := range []struct {
		name           string
		service, slip  time.Duration
		wantCoveredPay bool // the slip is large enough that some payments are free
	}{
		{"1ms/slip0.3ms", time.Millisecond, 300 * time.Microsecond, false},
		{"100us/slip1ms", 100 * time.Microsecond, time.Millisecond, true},
		{"1ms/slip3ms", time.Millisecond, 3 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 20_000
			rng := rand.New(rand.NewSource(1))
			var (
				waits   int
				asked   time.Duration
				maxSlip time.Duration
			)
			c := serviceClock{wait: func(d time.Duration) time.Duration {
				waits++
				asked = d
				slip := time.Duration(rng.Int63n(int64(tc.slip) + 1))
				maxSlip = max(maxSlip, slip)
				return d + slip
			}}
			covered := 0
			for i := 0; i < n; i++ {
				credit, before := c.paid-c.owed, waits
				c.pay(tc.service)
				switch {
				case credit >= tc.service:
					covered++
					if waits != before {
						t.Fatalf("payment %d waited with %v of credit covering %v", i, credit, tc.service)
					}
				case waits != before+1 || asked != tc.service-credit:
					t.Fatalf("payment %d: %d waits for %v, want one for %v", i, waits-before, asked, tc.service-credit)
				}
				if c.paid < c.owed || c.paid-c.owed > maxSlip {
					t.Fatalf("payment %d: paid %v, owed %v, largest slip %v", i, c.paid, c.owed, maxSlip)
				}
			}
			lo := n * tc.service
			if c.paid < lo || c.paid > lo+maxSlip {
				t.Errorf("paid %v after %d payments of %v, want within [%v, %v]", c.paid, n, tc.service, lo, lo+maxSlip)
			}
			if tc.wantCoveredPay != (covered > 0) {
				t.Errorf("%d of %d payments were covered by earlier slip", covered, n)
			}
		})
	}
}

// TestServiceClockWaitsAtLeastAsked: both real waits return no earlier
// than asked, which is what makes paid ≥ owed hold on a real clock.
func TestServiceClockWaitsAtLeastAsked(t *testing.T) {
	for _, spin := range []bool{false, true} {
		c := newServiceClock(spin)
		for i := 0; i < 20; i++ {
			c.pay(50 * time.Microsecond)
			if c.paid < c.owed {
				t.Fatalf("spin=%v payment %d: paid %v below owed %v", spin, i, c.paid, c.owed)
			}
		}
	}
}

// TestBoltsPayFullService: the gain from paying net of oversleep is not
// skipped service. Every bolt's clock has paid at least its tuple count
// times ServiceTime, on both backends and in spin mode, and paid is
// measured time: no bolt paid more than the run lasted.
func TestBoltsPayFullService(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport Transport
		service   time.Duration
		spin      bool
		m         int64
	}{
		{"memory/200us", TransportMemory, 200 * time.Microsecond, false, 2000},
		{"memory/30us", TransportMemory, 30 * time.Microsecond, false, 2000},
		{"tcp/200us", TransportTCP, 200 * time.Microsecond, false, 1000},
		{"memory/spin", TransportMemory, 20 * time.Microsecond, true, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg("PKG", 4, 2)
			cfg.ServiceTime, cfg.Spin, cfg.Transport = tc.service, tc.spin, tc.transport
			res, err := Run(zipfGen(1.2, 200, tc.m), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != tc.m {
				t.Fatalf("completed %d of %d", res.Completed, tc.m)
			}
			for w, load := range res.Loads {
				if owed := time.Duration(load) * tc.service; res.servicePaid[w] < owed {
					t.Errorf("bolt %d paid %v of service for %d tuples, want ≥ %v", w, res.servicePaid[w], load, owed)
				}
				if res.servicePaid[w] > res.Elapsed {
					t.Errorf("bolt %d paid %v of service in a %v run", w, res.servicePaid[w], res.Elapsed)
				}
			}
		})
	}
}
