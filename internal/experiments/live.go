package experiments

import (
	"fmt"
	"time"

	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// liveMessages keeps the wall-clock experiment affordable: the paper's
// engine substitution argument (DESIGN.md §4) is validated by running
// the same comparison on real goroutines; it does not need 2e6 messages
// to show the ordering.
func (s Scale) liveMessages() int64 {
	switch s {
	case Full:
		return 200_000
	case Default:
		return 60_000
	default:
		return 20_000
	}
}

// The live cluster cell: n bolts fed by s spouts, each spout holding at
// most liveWindow tuples in flight.
const (
	liveWorkers = 16
	liveSources = 8
	liveWindow  = 64
)

// liveCell runs one cell on the goroutine runtime (internal/dspe) and
// the same cell on the discrete-event engine, the model: same stream,
// partitioner seed, n, s, ack window and per-tuple service time. The
// model's spouts emit every ServiceTime/20 (eventsim's default), well
// faster than a worker serves, as the live spouts do; it measures the
// whole run, as the live engine does.
func liveCell(algo string, z float64, service time.Duration, m int64) (dspe.Result, eventsim.Result, error) {
	live, err := dspe.Run(workload.NewZipf(z, ZFKeys, m, Seed), dspe.Config{
		Workers:     liveWorkers,
		Sources:     liveSources,
		Algorithm:   algo,
		Core:        core.Config{Seed: Seed, Epsilon: Epsilon},
		ServiceTime: service,
		Window:      liveWindow,
	})
	if err != nil {
		return dspe.Result{}, eventsim.Result{}, err
	}
	model, err := eventsim.Run(workload.NewZipf(z, ZFKeys, m, Seed), eventsim.Config{
		Workers:     liveWorkers,
		Sources:     liveSources,
		Algorithm:   algo,
		Core:        core.Config{Seed: Seed, Epsilon: Epsilon},
		ServiceTime: float64(service) / float64(time.Millisecond),
		Window:      liveWindow,
		Messages:    m,
	})
	return live, model, err
}

// LiveFig13 runs the Fig 13 comparison on the concurrent goroutine
// runtime (internal/dspe) instead of the discrete-event engine: real
// channels, real clock, real contention. Numbers vary with the host,
// but the ordering (KG < PKG < D-C ≈ W-C ≈ SG) must match both the
// paper and the deterministic engine. Scaled down relative to the
// paper (n=16, 1 ms/msg) so a run takes seconds. Beside each live row
// stand the model's throughput and p99 for the same cell and the
// live/model throughput ratio; column 1 is the live throughput.
func LiveFig13(sc Scale) ([]*texttab.Table, error) {
	const z = 2.0
	m := sc.liveMessages()
	t := texttab.New(fmt.Sprintf(
		"Live Fig 13 (goroutine runtime) against the model (eventsim): throughput (events/s), n=%d, s=%d, z=%.1f, m=%d",
		liveWorkers, liveSources, z, m),
		"Algorithm", "Throughput(ev/s)", "p99(ms)", "Imbalance", "Model(ev/s)", "Model p99(ms)", "Live/Model")
	for _, algo := range clusterAlgos {
		live, model, err := liveCell(algo, z, time.Millisecond, m)
		if err != nil {
			return nil, err
		}
		t.Add(algo,
			fmt.Sprintf("%.0f", live.Throughput),
			fmt.Sprintf("%.2f", float64(live.P99)/float64(time.Millisecond)),
			fmtImb(live.Imbalance),
			fmt.Sprintf("%.0f", model.Throughput),
			fmt.Sprintf("%.2f", model.P99),
			fmt.Sprintf("%.3f", live.Throughput/model.Throughput))
	}
	return []*texttab.Table{t}, nil
}

// AblateStraggler injects a worker that is 8× slower than its peers and
// measures every algorithm's throughput on the discrete-event engine.
// Finding (and honest limitation of the paper's model): NO scheme
// routes around slow hardware, because the load estimate counts
// messages *sent*, not work completed — the Greedy-d process equalizes
// message counts, so the straggler still receives its full share.
// Handling heterogeneous service rates would need completion feedback,
// which the paper explicitly avoids (no coordination).
func AblateStraggler(sc Scale) ([]*texttab.Table, error) {
	const (
		n, s = 16, 8
		z    = 1.4
	)
	m := sc.liveMessages()
	t := texttab.New("Ablation: 8× straggler worker (discrete-event engine, n=16)",
		"Algorithm", "Healthy(ev/s)", "Straggler(ev/s)", "Slowdown(%)")
	for _, algo := range clusterAlgos {
		run := func(slow map[int]float64) (eventsim.Result, error) {
			gen := workload.NewZipf(z, ZFKeys, m, Seed)
			return eventsim.Run(gen, eventsim.Config{
				Workers:      n,
				Sources:      s,
				Algorithm:    algo,
				Core:         core.Config{Seed: Seed, Epsilon: Epsilon},
				ServiceTime:  1,
				Window:       64,
				Messages:     m,
				MeasureAfter: m / 5,
				SlowFactor:   slow,
			})
		}
		healthy, err := run(nil)
		if err != nil {
			return nil, err
		}
		degraded, err := run(map[int]float64{0: 8})
		if err != nil {
			return nil, err
		}
		slowdown := 0.0
		if healthy.Throughput > 0 {
			slowdown = 100 * (1 - degraded.Throughput/healthy.Throughput)
		}
		t.Add(algo,
			fmt.Sprintf("%.0f", healthy.Throughput),
			fmt.Sprintf("%.0f", degraded.Throughput),
			fmt.Sprintf("%.1f", slowdown))
	}
	return []*texttab.Table{t}, nil
}
