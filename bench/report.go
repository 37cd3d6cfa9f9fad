package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ledgerHead says where and how a ledger's runs were made.
type ledgerHead struct {
	Label   string    `json:"label,omitempty"`
	Host    hostFacts `json:"host"`
	Seed    uint64    `json:"seed"`
	Scale   string    `json:"scale"`
	Seconds float64   `json:"seconds"`
	Runs    int       `json:"runs"`
}

// ledger is the whole-set result file: every run of every workload,
// untraced and traced, with the host it ran on.
type ledger struct {
	ledgerHead
	Results []*runResult `json:"results"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// writeLedger writes l with one run per line: a -runs 10 ledger holds 80
// runs of up to a hundred metrics, and the first one is committed.
func writeLedger(path string, l *ledger) error {
	out, err := json.Marshal(l.ledgerHead)
	if err != nil {
		return err
	}
	out = append(out[:len(out)-1], ",\"results\":[\n"...)
	for i, r := range l.Results {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			out = append(out, ",\n"...)
		}
		out = append(out, b...)
	}
	return os.WriteFile(path, append(out, "\n]}\n"...), 0o644)
}

// printRun prints one run's metrics by name with units, then its cells.
func printRun(w io.Writer, r *runResult) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s %s: attempted=%d failed=%d failed_share=%g\n",
		r.Workload, r.Seed, r.Scale, kind, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  cell %-16s rounds=%d msgs=%d  %.4g msgs/s  %.4g cpu-ns/msg  p50=%.4g ms p99=%.4g ms (n=%d)  load max/mean=%.4f\n",
			c.Name, c.Rounds, c.Msgs, c.MsgsPerS, c.CPUNsPerMsg, c.P50ms, c.P99ms, c.LatSamples, c.LoadMax)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// wholeSet runs every workload untraced and traced, -runs times with
// the workloads interleaved (run r uses seed+r), prints every metric
// and writes the ledger. It exits non-zero when any check failed.
func wholeSet(o options) int {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	l := &ledger{ledgerHead: ledgerHead{Label: o.label, Host: host(), Seed: o.seed, Scale: scale{o.quick}.String(), Seconds: o.seconds, Runs: o.runs}}
	failed := false
	for r := 0; r < o.runs; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				co := o
				co.workload, co.seed, co.trace = w.Name, o.seed+uint64(r), trace
				res, err := spawn(co, childTimeout(co.seconds))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				}
				res.Host = nil // once per ledger is enough
				printRun(os.Stdout, res)
				failed = failed || !res.Correct
				l.Results = append(l.Results, res)
			}
		}
	}
	path := filepath.Join(o.out, "ledger.json")
	if err := writeLedger(path, l); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("ledger: %s (%d runs x %d workloads, go %s, %s, GOMAXPROCS=%d)\n",
		path, o.runs, len(workloads), l.Host.Go, l.Host.CPU, l.Host.GOMAXPROCS)
	if failed {
		fmt.Println("FAILED: at least one check failed")
		return 1
	}
	return 0
}
