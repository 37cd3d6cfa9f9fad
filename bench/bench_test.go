package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"slb"
)

// TestMain lets the test binary stand in for the bench binary when
// spawn re-executes it with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins the committed BENCHMARK.json to the spec the
// code emits, and the spec to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json differs from `bench spec`; regenerate it with: go run -C bench . spec > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 per workload runs, two builds, inside 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(doc.RunSeconds)+8) > 3420-120 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, doc.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// checkMetrics asserts a run emitted exactly the declared names, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, res *runResult, decls []metricDecl, positive bool) {
	t.Helper()
	for _, d := range decls {
		mv, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, d.Name, mv.Value)
		}
		if positive && mv.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, mv.Value)
		}
		if mv.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, d.Name, mv.Unit, d.Unit)
		}
	}
	for n := range res.Metrics {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: emitted name %q is malformed", res.Workload, n)
		}
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(decls))
	}
}

// traceFile is the trace file's shape (tracer.write).
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Names    []string  `json:"names"`
	Columns  []string  `json:"columns"`
	Spans    [][]int64 `json:"spans"`
}

// checkTrace asserts a span file parses and its spans form a forest in
// which children sit inside their parent and never outlast it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 || strings.Join(tf.Columns, ",") != strings.Join(traceColumns, ",") {
		t.Fatalf("%s: %d spans, columns %v", path, len(tf.Spans), tf.Columns)
	}
	childSum := make([]int64, len(tf.Spans)+1)
	for i, s := range tf.Spans {
		id, parent, name, start, end := s[0], s[1], s[2], s[4], s[5]
		if id != int64(i+1) || parent < 0 || parent >= id || name < 0 || name >= int64(len(tf.Names)) || end < start {
			t.Fatalf("%s: bad span %v", path, s)
		}
		if parent > 0 {
			p := tf.Spans[parent-1]
			if start < p[4] || end > p[5] {
				t.Fatalf("%s: span %v lies outside its parent %v", path, s, p)
			}
			childSum[parent] += end - start
		}
	}
	for i, s := range tf.Spans {
		if childSum[i+1] > s[5]-s[4] {
			t.Fatalf("%s: children of span %v cover %d ns, more than its duration", path, s, childSum[i+1])
		}
	}
}

// TestQuickSuite runs every workload untraced and traced at -quick
// scale, in this process, and checks the whole output contract.
func TestQuickSuite(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		o := options{workload: w.Name, seed: 7, seconds: 0.2, quick: true, out: out}
		res := runWorkload(w, o)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s untraced: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		checkMetrics(t, res, endToEnd, true)
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || len(line) != 4 {
			t.Errorf("%s: driver line has keys %v (%v)", w.Name, line, err)
		}

		o.trace = 1
		res = runWorkload(w, o)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d %v", w.Name, res.Correct, res.Failed, res.Errors)
		}
		checkMetrics(t, res, perLayer, false)
		checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"))
		m := res.Metrics
		sum := m["dspe.staged_sum_ns_per_msg"].Value + m["dspe.link_ns_per_msg"].Value + m["dspe.unattributed_ns_per_msg"].Value
		if cpu := m["dspe.engine_cpu_ns_per_msg"].Value; math.Abs(sum-cpu) > 1e-6*cpu {
			t.Errorf("%s: staged+link+unattributed = %g, engine cpu = %g", w.Name, sum, cpu)
		}
	}
	t.Logf("quick suite took %v", time.Since(start))
	if d := time.Since(start); d > time.Minute {
		t.Errorf("quick suite took %v", d)
	}
}

// TestSpawn covers the child-process path: a child's result comes back
// through its result file, and a child that runs out of time counts
// every planned message as failed.
func TestSpawn(t *testing.T) {
	o := options{workload: "route-scale", seed: 7, seconds: 0.1, quick: true, out: t.TempDir()}
	res, err := spawn(o, time.Minute)
	if err != nil || !res.Correct || res.Workload != "route-scale" || len(res.Cells) != 12 {
		t.Fatalf("spawn: %v %+v", err, res)
	}
	res, err = spawn(o, time.Millisecond)
	if err == nil || res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Fatalf("timed-out child: err=%v attempted=%d failed=%d", err, res.Attempted, res.Failed)
	}
}

// TestCheckerCatchesTampering is the correctness checker's negative
// test: one flipped count, one dropped final, one perturbed load each
// fail the cell-round, and a failed cell-round fails all its messages.
func TestCheckerCatchesTampering(t *testing.T) {
	const msgs, window = 20_000, 1_000
	slab := materialise(1.4, 500, msgs, 7)
	ref := groundTruth(newCycle(slab, msgs), window)

	// An independent finals list, in the engine's shape.
	var finals []slb.AggFinal
	counts := map[string]int64{}
	flush := func(w int64) {
		for k, n := range counts {
			finals = append(finals, slb.AggFinal{Window: w, Digest: slb.DigestKey(k), Key: k, Count: n})
		}
		clear(counts)
	}
	for i, k := range slab {
		if i > 0 && i%window == 0 {
			flush(int64(i/window - 1))
		}
		counts[k]++
	}
	flush(msgs/window - 1)
	loads := []int64{msgs / 2, msgs / 4, msgs / 4}

	run := func(finals []slb.AggFinal, loads []int64) engineRun {
		r := engineRun{wall: time.Second, cpu: time.Second}
		r.res.Completed, r.res.Loads = msgs, loads
		for _, f := range finals {
			r.fp.addFinal(f)
		}
		return r
	}
	failedShare := func(r engineRun) float64 {
		s := sample{msgs: msgs, wall: r.wall, cpu: r.cpu}
		s.errs, s.loadMax = r.check("cell", msgs, ref)
		cr := summarise(&workloads[1], workloads[1].Cells[0], []sample{s})
		return float64(cr.Failed) / float64(cr.Msgs)
	}
	clean := run(finals, loads)
	if share := failedShare(clean); share != 0 {
		t.Fatalf("untampered run: failed_share = %g", share)
	}

	flipped := append([]slb.AggFinal(nil), finals...)
	flipped[len(flipped)/2].Count++
	flipped[len(flipped)/3].Count-- // totals still add up: only the fingerprint can tell
	dropped := finals[1:]
	moved := []int64{loads[0] + 1, loads[1], loads[2]}
	for name, r := range map[string]engineRun{
		"flipped count":  run(flipped, loads),
		"dropped final":  run(dropped, loads),
		"perturbed load": run(finals, moved),
	} {
		if share := failedShare(r); share != 1 {
			t.Errorf("%s: failed_share = %g, want 1", name, share)
		}
	}

	// Order must not matter.
	rev := append([]slb.AggFinal(nil), finals...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if run(rev, loads).fp != clean.fp {
		t.Error("fingerprint depends on final order")
	}
}

func TestShapeChecks(t *testing.T) {
	storm, _ := findWorkload("storm-1ms")
	cells := []cellResult{
		{Name: "PKG", MsgsPerS: 5_000, P99ms: 27, LatSamples: 1125},
		{Name: "D-C", MsgsPerS: 20_000, P99ms: 6, LatSamples: 3000},
		{Name: "W-C", MsgsPerS: 26_000, P99ms: 4, LatSamples: 3750},
	}
	if errs := shapeErrors(storm, cells); len(errs) != 0 {
		t.Errorf("paper ordering rejected: %v", errs)
	}
	cells[1].MsgsPerS = 9_000 // D-C no better than 2x PKG: balance was lost
	if errs := shapeErrors(storm, cells); len(errs) == 0 {
		t.Error("a D-C that lost its balance advantage passed the shape check")
	}
	route, _ := findWorkload("route-scale")
	var rc []cellResult
	for _, c := range route.Cells {
		rc = append(rc, cellResult{Name: c.Name, LoadMax: 1})
	}
	if errs := shapeErrors(route, rc); len(errs) != 0 {
		t.Errorf("balanced cells rejected: %v", errs)
	}
	rc[1].LoadMax = 1.5 // D-C.n64.z0.8 worse than PKG on the same (n, z)
	if errs := shapeErrors(route, rc); len(errs) != 1 {
		t.Errorf("imbalanced D-C cell: %v", errs)
	}
}

func TestJudge(t *testing.T) {
	d := metricDecl{Name: "msgs_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		want verdict
	}{
		{"same", base, unchanged},
		{"within bound", scaled(1.05), unchanged},
		{"faster", scaled(1.3), improved},
		{"slower", scaled(0.7), worse},
		{"mixed", []float64{130, 70, 130, 70, 130, 130, 70, 130, 130, 130}, unresolved},
	} {
		if got := judge(d, base, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 95, 125}
	if got := judge(d, noisy, noisy); got != unresolved {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
	lower := metricDecl{Name: "cpu_ns_per_msg", Better: "lower", Bound: 0.10}
	if got := judge(lower, base, scaled(1.3)); got != worse {
		t.Errorf("lower-is-better metric that rose: %s, want worse", got)
	}
}

// TestCompareExact checks that compare treats exact-repeat counts by
// equality and fails on a difference.
func TestCompareExact(t *testing.T) {
	mk := func(repl float64) *ledger {
		l := &ledger{ledgerHead: ledgerHead{Seed: 7, Scale: "quick", Seconds: 1, Runs: 1}}
		for _, w := range workloads {
			un := &runResult{Workload: w.Name, Correct: true, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				un.Metrics[d.Name] = metricValue{1, d.Unit}
			}
			tr := &runResult{Workload: w.Name, Traced: true, Correct: true, Metrics: map[string]metricValue{}}
			for _, d := range perLayer {
				tr.Metrics[d.Name] = metricValue{1, d.Unit}
			}
			tr.Metrics["aggregation.replication"] = metricValue{repl, "ratio"}
			l.Results = append(l.Results, un, tr)
		}
		return l
	}
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for path, l := range map[string]*ledger{a: mk(1.25), b: mk(1.25), c: mk(1.26)} {
		if err := writeLedger(path, l); err != nil {
			t.Fatal(err)
		}
	}
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("identical ledgers: exit %d", code)
	}
	if code := compareMain([]string{a, c}); code != 1 {
		t.Errorf("differing exact-repeat count: exit %d, want 1", code)
	}
}

// TestAPISurface keeps the bench off the entry points ROADMAP is about
// to delete or merge, so those changes cannot break the ruler.
func TestAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"Dataplane", "LoadIndex", "RouteBatch(", "RouteDigest(", "Route(", "Pipeline", "recordEncoder"}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if strings.Contains(string(src), b) {
				t.Errorf("%s names %q", f, b)
			}
		}
	}
}
