package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// compare.go is `bench compare A.json B.json`: A is the parent's
// ledger, B the change's, both made by the same bench with the same
// -seed and -runs, so run i of one pairs with run i of the other.
//
// An end-to-end metric moved only if the change wins at least nine
// tenths of the pairs (ties count for neither), the medians differ by
// more than the parent's own inter-quartile distance, and by more than
// the bound BENCHMARK.json fixes for the metric. A pairing whose spread
// is wider than its bound, or whose medians differ by more than the
// bound without that consistency, is unresolved, not unchanged.
// Exact-repeat counts are not statistics: any difference between two
// runs of one seed is a behaviour change.

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies the rule to the paired samples a (parent) and b
// (change) of one metric on one workload.
func judge(d metricDecl, a, b []float64) verdict {
	pairs := min(len(a), len(b))
	if pairs == 0 {
		return unresolved
	}
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	var wins, losses int
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	diff := math.Abs(mb - ma)
	moved := diff > q3-q1 && diff > d.Bound*math.Abs(ma)
	need := int(math.Ceil(0.9 * float64(pairs)))
	switch {
	case moved && wins >= need && better(mb, ma):
		return improved
	case moved && losses >= need && better(ma, mb):
		return worse
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	// Every run of the change better than every run of the parent.
	allBetter := sb[0] > sa[len(sa)-1]
	if d.Better == "lower" {
		allBetter = sb[len(sb)-1] < sa[0]
	}
	if diff > d.Bound*math.Abs(ma) || ((q3-q1) > d.Bound*math.Abs(ma) && !allBetter) {
		return unresolved
	}
	return unchanged
}

// series collects, per workload and metric, the values of a ledger's
// runs in run order; traced selects which kind of run to read.
func series(l *ledger, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range l.Results {
		if r.Traced != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
		if traced {
			continue
		}
		// Per-cell exact-repeat counts ride along under a cell name.
		for _, c := range r.Cells {
			out[r.Workload]["cell."+c.Name+".load_max_over_mean"] = append(out[r.Workload]["cell."+c.Name+".load_max_over_mean"], c.LoadMax)
			if c.Replication != 0 {
				out[r.Workload]["cell."+c.Name+".replication"] = append(out[r.Workload]["cell."+c.Name+".replication"], c.Replication)
			}
		}
	}
	return out
}

func equalSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func describe(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(v), q1, q3, len(v))
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json CHANGE.json")
		return 2
	}
	a, err := readLedger(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readLedger(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Printf("warning: ledgers differ in settings (seed %d/%d, scale %s/%s, seconds %g/%g): pairs are not like for like\n",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	bad := 0
	ea, eb := series(a, false), series(b, false)
	fmt.Println("end-to-end: median [Q1, Q3] n, parent then change")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := ea[w.Name][d.Name], eb[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("  %-12s %-16s missing from a ledger\n", w.Name, d.Name)
				bad++
				continue
			}
			v := judge(d, va, vb)
			if v == worse {
				bad++
			}
			fmt.Printf("  %-12s %-16s %-4s %-40s %-40s %+7.2f%%  bound %g%%  %s\n", w.Name, d.Name, d.Unit,
				describe(va), describe(vb), 100*(median(vb)-median(va))/median(va), 100*d.Bound, v)
		}
	}
	ta, tb := series(a, true), series(b, true)
	fmt.Println("exact-repeat counts: equal run for run, or a behaviour change")
	for _, w := range workloads {
		var names []string
		for n := range ea[w.Name] {
			if strings.HasPrefix(n, "cell.") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			bad += printExact(w.Name, n, ea[w.Name][n], eb[w.Name][n])
		}
		for _, d := range perLayer {
			if d.Exact {
				bad += printExact(w.Name, d.Name, ta[w.Name][d.Name], tb[w.Name][d.Name])
			}
		}
	}
	fmt.Println("per-layer (no bound; a traced run is one sample): median, parent then change")
	for _, w := range workloads {
		for _, d := range perLayer {
			va, vb := ta[w.Name][d.Name], tb[w.Name][d.Name]
			if d.Exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Printf("  %-12s %-42s %-6s %-36s %-36s\n", w.Name, d.Name, d.Unit, describe(va), describe(vb))
		}
	}
	if bad > 0 {
		fmt.Printf("FAILED: %d pairing(s) worse, missing or not identical\n", bad)
		return 1
	}
	return 0
}

func printExact(workload, name string, a, b []float64) int {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if equalSeries(a, b) {
		fmt.Printf("  %-12s %-46s identical (n=%d, first %.6g)\n", workload, name, len(a), a[0])
		return 0
	}
	fmt.Printf("  %-12s %-46s DIFFERENT %v vs %v\n", workload, name, a, b)
	return 1
}
