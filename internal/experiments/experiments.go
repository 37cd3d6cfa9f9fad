// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the ablations called out in DESIGN.md.
// Each runner returns one or more texttab.Tables; the cmd/slbsim and
// cmd/slbstorm binaries print them and, via internal/clirun, optionally
// write CSV copies and machine-readable BENCH_*.json artifacts. The
// JSON artifacts carry a "meta" object — experiment name, table index,
// scale from the driver, plus seed/config/timestamp from the binaries'
// -meta flags — so the CI perf trajectory they accumulate can be keyed
// on how each number was produced, not just on file name (cmd/slbsoak
// gates its soak summaries the same way).
//
// Experiments run at three scales: Quick (sub-second to seconds, used by
// tests and benches), Default (the harness default), and Full (the
// paper's published sizes; minutes per figure).
package experiments

import (
	"fmt"

	"slb/internal/core"
	"slb/internal/simulator"
	"slb/internal/stream"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// Scale selects the experiment size.
type Scale int

const (
	// Quick is for tests and benchmarks.
	Quick Scale = iota
	// Default is for interactive harness runs.
	Default
	// Full matches the paper's published message counts.
	Full
)

// ParseScale maps a CLI flag value to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("experiments: unknown scale %q (want quick|default|full)", s)
}

// The paper's fixed parameters (Tables I and III).
const (
	// Epsilon is the D-Choices imbalance tolerance ε.
	Epsilon = 1e-4
	// Sources is s, the number of sources in simulations.
	Sources = 5
	// ZFKeys is |K| for the synthetic Zipf workload.
	ZFKeys = 10000
	// Seed fixes all experiment randomness.
	Seed = 42
)

// zfMessages is m for the ZF simulations at each scale (paper: 1e7).
func (s Scale) zfMessages() int64 {
	switch s {
	case Full:
		return 10_000_000
	case Default:
		return 1_000_000
	default:
		return 100_000
	}
}

// dspeMessages is m for the cluster experiment (paper: 2e6).
func (s Scale) dspeMessages() int64 {
	switch s {
	case Full:
		return 2_000_000
	case Default:
		return 200_000
	default:
		return 50_000
	}
}

// workloadScale maps to the dataset stand-in sizes.
func (s Scale) workloadScale() workload.Scale {
	switch s {
	case Full:
		return workload.Full
	case Default:
		return workload.Default
	default:
		return workload.Quick
	}
}

// skews returns the z sweep (paper: 0.1…2.0; plots start at 0.4).
func (s Scale) skews() []float64 {
	switch s {
	case Full:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
			1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}
	case Default:
		return []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	default:
		return []float64{0.4, 0.8, 1.2, 1.6, 2.0}
	}
}

// workerSets returns the n sweep for scale-dependent experiments
// (paper: {5, 10, 20, 50, 100}).
func (s Scale) workerSets() []int {
	if s == Quick {
		return []int{5, 50}
	}
	return []int{5, 10, 20, 50, 100}
}

// gridWorkers is the n sweep of Figs 7 and 10 (paper: {5, 10, 50, 100}).
func (s Scale) gridWorkers() []int {
	if s == Quick {
		return []int{10, 50}
	}
	return []int{5, 10, 50, 100}
}

// zfGen builds the standard ZF generator for a skew at this scale.
func (s Scale) zfGen(z float64, keys int) stream.Generator {
	return workload.NewZipf(z, keys, s.zfMessages(), Seed)
}

// simCfg is the standard simulation core config for n workers.
func simCfg(n int) core.Config {
	return core.Config{Workers: n, Seed: Seed, Epsilon: Epsilon}
}

// runSim is the common one-run helper.
func runSim(gen stream.Generator, algo string, n int, opts simulator.Options) (simulator.Result, error) {
	opts.Sources = Sources
	return simulator.Run(gen, algo, simCfg(n), opts)
}

// fmtZ renders a skew value as the paper writes it (one decimal).
func fmtZ(z float64) string { return fmt.Sprintf("%.1f", z) }

// fmtImb renders an imbalance in the log-scale style of the plots.
func fmtImb(v float64) string { return texttab.FormatFloat(v) }
