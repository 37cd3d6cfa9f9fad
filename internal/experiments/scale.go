package experiments

import (
	"fmt"
	"time"

	"slb/internal/core"
	"slb/internal/eventsim"
	"slb/internal/simulator"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// scale.go is the large-deployment experiment the paper's TITLE is
// about but its evaluation never reaches: the published figures stop at
// n = 100 workers, while the motivating argument — PKG's two choices
// stop being enough once p₁ > 2/n, and the gap widens with every
// doubling of n — only bites at hundreds to tens of thousands of
// workers. The `scale` experiment sweeps n ∈ {16 … 16384} × {KG, PKG,
// D-C, W-C, SG} and reports three tables:
//
//  1. Routing cost (ns/msg) of the head-aware schemes: W-C's head path
//     reads the O(1) floor index (core's loadtree.go), so its cost
//     stays near-flat in n — this is what makes the regime REACHABLE,
//     not just simulable.
//  2. Imbalance at scale (the paper's Fig. 1/11 story extended): PKG's
//     imbalance grows toward p₁/2 − 1/n as n grows, while D-C and
//     W-C stay near-flat because the head is spread over as many
//     workers as it needs.
//  3. Cluster throughput (discrete-event engine): adding workers keeps
//     helping D-C/W-C but stops helping KG/PKG the moment the hot
//     worker saturates — the large-deployment collapse in end-to-end
//     terms.
//
// One deliberate deviation from the paper's defaults, documented here:
// θ is clamped to 1/(5·min(n, 2048)). The paper's θ = 1/(5n) sizes the
// SpaceSaving sketch at 4·⌈1/θ⌉ ≈ 20n entries per SOURCE, which at
// n = 16384 would cost hundreds of MB across sources for no
// measurement benefit — beyond n ≈ 2048 the clamped head (keys with
// p̂ ≥ 1/10240) already contains every key hot enough to matter at
// these stream lengths.

// scaleAlgos in the paper's presentation order.
var scaleAlgos = []string{"KG", "PKG", "D-C", "W-C", "SG"}

// scaleWorkers is the deployment-size sweep.
func (s Scale) scaleWorkers() []int {
	if s == Quick {
		return []int{16, 256, 4096}
	}
	return []int{16, 64, 256, 1024, 4096, 16384}
}

// scaleSkews is the z sweep of the imbalance table. The moderate
// z = 0.8 (p₁ ≈ 0.03) is where the GROWTH story lives: two choices
// still suffice at n = 16 (p₁ < 2/n) and stop sufficing as n grows,
// so PKG's imbalance climbs while D-C/W-C stay flat. At the heavier
// skews small n is already past PKG's breaking point and the gap is
// large everywhere.
func (s Scale) scaleSkews() []float64 {
	if s == Quick {
		return []float64{0.8, 1.4}
	}
	return []float64{0.8, 1.4, 2.0}
}

// scaleRouteMessages sizes the routing-cost measurement.
func (s Scale) scaleRouteMessages() int64 {
	switch s {
	case Full:
		return 1_000_000
	case Default:
		return 300_000
	default:
		return 100_000
	}
}

// scaleSimMessages sizes the imbalance simulations.
func (s Scale) scaleSimMessages() int64 {
	switch s {
	case Full:
		return 4_000_000
	case Default:
		return 1_000_000
	default:
		return 200_000
	}
}

// scaleClusterMessages sizes the discrete-event runs.
func (s Scale) scaleClusterMessages() int64 {
	switch s {
	case Full:
		return 600_000
	case Default:
		return 150_000
	default:
		return 30_000
	}
}

// scaleThetaCap is the worker count beyond which θ stops shrinking
// (see the package comment above: sketch memory, not measurement).
const scaleThetaCap = 2048

// scaleCfg is the clamped-θ core config for n workers.
func scaleCfg(n int) core.Config {
	capN := n
	if capN > scaleThetaCap {
		capN = scaleThetaCap
	}
	return core.Config{Workers: n, Seed: Seed, Epsilon: Epsilon, Theta: 1.0 / (5 * float64(capN))}
}

// timeRouting routes m pre-generated Zipf(z) messages through one
// partitioner via the batched hot path and returns the mean cost per
// message in nanoseconds. The key stream is materialized BEFORE the
// clock starts, so the table reports routing alone — generation inside
// the window would be a constant floor that hides how routing grows
// with n. One sender, exactly as the per-message routing cost is paid
// in a DSPE source.
func timeRouting(algo string, cfg core.Config, z float64, m int64) (float64, error) {
	p, err := core.New(algo, cfg)
	if err != nil {
		return 0, err
	}
	gen := workload.NewZipf(z, ZFKeys, m, Seed)
	keys := make([]string, 0, m)
	buf := make([]string, 512)
	for {
		k := gen.NextBatch(buf)
		if k == 0 {
			break
		}
		keys = append(keys, buf[:k]...)
	}
	digs := make([]core.KeyDigest, 512)
	dst := make([]int, 512)
	start := time.Now()
	for i := 0; i < len(keys); i += 512 {
		end := i + 512
		if end > len(keys) {
			end = len(keys)
		}
		p.RouteBatchDigests(keys[i:end], digs, dst)
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(len(keys)), nil
}

// ScaleExperiment reproduces the large-deployment regime end to end;
// registered as `scale` (cluster family).
func ScaleExperiment(sc Scale) ([]*texttab.Table, error) {
	// Table 1: routing cost of the two schemes whose head path argmins
	// over candidates (W-C: all n; D-C: d of them). z = 2.0 puts ≈80%
	// of the stream in the head — the worst case for an argmin, and
	// exactly the regime the paper's schemes target.
	mRoute := sc.scaleRouteMessages()
	routeTab := texttab.New(
		fmt.Sprintf("scale: routing cost (ns/msg), z=2.0, m=%d, 1 source", mRoute),
		"n", "W-C", "D-C")
	for _, n := range sc.scaleWorkers() {
		cells := []string{fmt.Sprintf("%d", n)}
		for _, algo := range []string{"W-C", "D-C"} {
			ns, err := timeRouting(algo, scaleCfg(n), 2.0, mRoute)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.1f", ns))
		}
		routeTab.Add(cells...)
	}

	// Table 2: imbalance at scale. PKG's I(m) grows with n (toward
	// p₁/2 − 1/n once two choices cannot absorb the hottest key),
	// D-C/W-C stay near-flat — the paper's headline, now measured in
	// the regime its title talks about.
	mSim := sc.scaleSimMessages()
	imbTab := texttab.New(
		fmt.Sprintf("scale: imbalance I(m) vs workers, m=%d, s=%d", mSim, Sources),
		"z", "n", "KG", "PKG", "D-C", "W-C", "SG")
	for _, z := range sc.scaleSkews() {
		for _, n := range sc.scaleWorkers() {
			gen := workload.NewZipf(z, ZFKeys, mSim, Seed)
			row := []string{fmtZ(z), fmt.Sprintf("%d", n)}
			for _, algo := range scaleAlgos {
				res, err := simulator.Run(gen, algo, scaleCfg(n), simulator.Options{Sources: Sources})
				if err != nil {
					return nil, err
				}
				row = append(row, fmtImb(res.Imbalance))
			}
			imbTab.Add(row...)
		}
	}

	// Table 3: end-to-end throughput on the discrete-event engine. The
	// offered load is fixed (16 sources at 1 ms per emission ≈ 16k
	// events/s) while n grows: balanced schemes convert added workers
	// into throughput until the sources are the bottleneck; KG and PKG
	// plateau at whatever their hottest worker (p₁, resp. ≈p₁/2 of the
	// stream) can drain, no matter how many workers are added.
	const (
		scaleClusterSources = 16
		scaleClusterService = 1.0 // ms
		scaleClusterEmit    = 1.0 // ms per source: offered ≈ n=16's capacity
		scaleClusterZ       = 1.4
	)
	mClu := sc.scaleClusterMessages()
	thrTab := texttab.New(
		fmt.Sprintf("scale: throughput (events/s), z=%.1f, s=%d, 1ms/msg, m=%d",
			scaleClusterZ, scaleClusterSources, mClu),
		"n", "KG", "PKG", "D-C", "W-C", "SG")
	for _, n := range sc.scaleWorkers() {
		row := []string{fmt.Sprintf("%d", n)}
		for _, algo := range scaleAlgos {
			gen := workload.NewZipf(scaleClusterZ, ZFKeys, mClu, Seed)
			res, err := eventsim.Run(gen, eventsim.Config{
				Workers:      n,
				Sources:      scaleClusterSources,
				Algorithm:    algo,
				Core:         scaleCfg(n),
				ServiceTime:  scaleClusterService,
				EmitInterval: scaleClusterEmit,
				Window:       100,
				Messages:     mClu,
				MeasureAfter: mClu / 5,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", res.Throughput))
		}
		thrTab.Add(row...)
	}
	return []*texttab.Table{routeTab, imbTab, thrTab}, nil
}
