package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"slb/internal/texttab"
)

// mustRun executes a registered experiment at Quick scale.
func mustRun(t *testing.T, name string) []*texttab.Table {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	tabs, err := e.Run(Quick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tabs) == 0 {
		t.Fatalf("%s returned no tables", name)
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table %q", name, tab.Title)
		}
	}
	return tabs
}

// cell parses a float out of a table cell.
func cell(t *testing.T, row []string, idx int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[idx], 64)
	if err != nil {
		t.Fatalf("cell %d = %q not a float: %v", idx, row[idx], err)
	}
	return v
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"quick": Quick, "default": Default, "": Default, "full": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("ParseScale(bogus) should fail")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure and table of the paper's evaluation must be present.
	for _, name := range []string{
		"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	sim := List(false)
	all := List(true)
	if len(all) <= len(sim) {
		t.Error("cluster experiments missing from List(true)")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Error("List not sorted")
		}
	}
}

func TestTable1MatchesPaperP1(t *testing.T) {
	tabs := mustRun(t, "table1")
	tab := tabs[0]
	if len(tab.Rows) < 6 {
		t.Fatalf("table1 rows = %d, want ≥ 6 (3 datasets + 3 ZF)", len(tab.Rows))
	}
	for _, symbol := range []string{"WP", "TW", "CT"} {
		row := tab.Find(map[int]string{1: symbol})
		if row == nil {
			t.Fatalf("table1 missing %s", symbol)
		}
		got := cell(t, row, 4)
		want := cell(t, row, 5)
		if got < want*0.6 || got > want*1.6 {
			t.Errorf("%s: measured p1 %.2f%% far from paper %.2f%%", symbol, got, want)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tab := mustRun(t, "fig1")[0]
	// At the largest scale, PKG must be at least 10× worse than W-C.
	last := tab.Rows[len(tab.Rows)-1]
	pkg, wc := cell(t, last, 1), cell(t, last, 3)
	if pkg < 10*wc {
		t.Errorf("fig1 at n=%s: PKG %g not ≫ W-C %g", last[0], pkg, wc)
	}
}

func TestFig3Shape(t *testing.T) {
	tab := mustRun(t, "fig3")[0]
	// θ=1/(5n) head is never smaller than θ=2/n head for the same n.
	for _, row := range tab.Rows {
		loose50, tight50 := cell(t, row, 1), cell(t, row, 2)
		if loose50 < tight50 {
			t.Errorf("z=%s: head(θ=1/5n)=%g < head(θ=2/n)=%g", row[0], loose50, tight50)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := mustRun(t, "fig4")[0]
	// d/n at n=100 stays < 1 at z=1.2 and d grows with z.
	var d12, d20 float64
	for _, row := range tab.Rows {
		if row[0] == "1.2" {
			d12 = cell(t, row, 8)
		}
		if row[0] == "2.0" {
			d20 = cell(t, row, 8)
		}
	}
	if d12 <= 2 || d20 < d12 {
		t.Errorf("fig4 n=100: d(1.2)=%g, d(2.0)=%g — want growth above 2", d12, d20)
	}
}

func TestFig5Fig6Shape(t *testing.T) {
	tab5 := mustRun(t, "fig5")[0]
	for _, row := range tab5.Rows {
		for i := 1; i <= 4; i++ {
			if v := cell(t, row, i); v > 40 {
				t.Errorf("fig5 z=%s col %d: overhead vs PKG %.1f%% > 40%%", row[0], i, v)
			}
		}
	}
	tab6 := mustRun(t, "fig6")[0]
	for _, row := range tab6.Rows {
		z := cell(t, row, 0)
		if z < 0.8 {
			continue // at near-uniform skew SG is as cheap as anything
		}
		for i := 1; i <= 4; i++ {
			if v := cell(t, row, i); v > -50 {
				t.Errorf("fig6 z=%s col %d: %v%% vs SG, want strong savings", row[0], i, v)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tabs := mustRun(t, "fig7")
	if len(tabs) != 2 {
		t.Fatalf("fig7 tables = %d, want 2 (W-C, RR)", len(tabs))
	}
	// W-C at θ ≤ 1/n keeps imbalance low even at n=50, z=2.0.
	wc := tabs[0]
	row := wc.Find(map[int]string{0: "50", 1: "2.0"})
	if row == nil {
		t.Fatal("fig7 missing n=50 z=2.0 row")
	}
	if v := cell(t, row, 3); v > 0.01 { // θ=1/n column
		t.Errorf("fig7 W-C n=50 z=2.0 θ=1/n: imbalance %g", v)
	}
}

func TestFig8Shape(t *testing.T) {
	tab := mustRun(t, "fig8")[0]
	if len(tab.Rows) != 15 { // 3 algorithms × 5 workers
		t.Fatalf("fig8 rows = %d, want 15", len(tab.Rows))
	}
	// W-C total per worker ≈ 20% everywhere; PKG has a worker ≫ 20%.
	var pkgMax, wcMax float64
	for _, row := range tab.Rows {
		total := cell(t, row, 4)
		switch row[0] {
		case "PKG":
			if total > pkgMax {
				pkgMax = total
			}
		case "W-C":
			if total > wcMax {
				wcMax = total
			}
		}
	}
	if pkgMax < 25 {
		t.Errorf("fig8: PKG max worker %.1f%%, expected ≫ 20%%", pkgMax)
	}
	if wcMax > 22 {
		t.Errorf("fig8: W-C max worker %.1f%%, want ≈ 20%%", wcMax)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := mustRun(t, "fig9")[0]
	for _, row := range tab.Rows {
		dDC, dMin := cell(t, row, 2), cell(t, row, 3)
		if dDC < dMin-1 { // allow off-by-one noise at quick scale
			t.Errorf("fig9 n=%s z=%s: D-C's d=%g below empirical min %g", row[0], row[1], dDC, dMin)
		}
		if dDC < 2 || dMin < 2 {
			t.Errorf("fig9: d below 2 in row %v", row)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := mustRun(t, "fig10")[0]
	row := tab.Find(map[int]string{0: "50", 1: "2.0"})
	if row == nil {
		t.Fatal("fig10 missing n=50 z=2.0")
	}
	pkg, dc, wc := cell(t, row, 2), cell(t, row, 3), cell(t, row, 4)
	if pkg < 5*dc || pkg < 5*wc {
		t.Errorf("fig10 n=50 z=2.0: PKG %g should dwarf D-C %g and W-C %g", pkg, dc, wc)
	}
}

func TestFig11Shape(t *testing.T) {
	tabs := mustRun(t, "fig11")
	if len(tabs) != 3 {
		t.Fatalf("fig11 tables = %d, want 3 datasets", len(tabs))
	}
	// WP at the largest n: PKG worse than W-C.
	wp := tabs[0]
	last := wp.Rows[len(wp.Rows)-1]
	if pkg, wc := cell(t, last, 1), cell(t, last, 3); pkg < 5*wc {
		t.Errorf("fig11 WP n=%s: PKG %g vs W-C %g", last[0], pkg, wc)
	}
}

func TestFig12Shape(t *testing.T) {
	tabs := mustRun(t, "fig12")
	if len(tabs) != 3 {
		t.Fatalf("fig12 tables = %d, want 3", len(tabs))
	}
	for _, tab := range tabs {
		if !strings.Contains(tab.Title, "over time") {
			t.Errorf("unexpected title %q", tab.Title)
		}
		// Progress column must be non-decreasing within an (n, algo) group.
		prev := map[string]float64{}
		for _, row := range tab.Rows {
			key := row[0] + "/" + row[1]
			p := cell(t, row, 2)
			if p < prev[key] {
				t.Fatalf("fig12 %s: progress went backwards", key)
			}
			prev[key] = p
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tab := mustRun(t, "fig13")[0]
	for _, row := range tab.Rows {
		kg, pkg, dc, wc, sg := cell(t, row, 1), cell(t, row, 2), cell(t, row, 3), cell(t, row, 4), cell(t, row, 5)
		if !(kg < pkg && pkg <= dc*1.05) {
			t.Errorf("fig13 z=%s: ordering KG(%g) < PKG(%g) ≤ D-C(%g) violated", row[0], kg, pkg, dc)
		}
		for name, v := range map[string]float64{"D-C": dc, "W-C": wc} {
			if v < 0.9*sg {
				t.Errorf("fig13 z=%s: %s %g not close to SG %g", row[0], name, v, sg)
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	tab := mustRun(t, "fig14")[0]
	for _, z := range []string{"1.7", "2.0"} {
		kg := tab.Find(map[int]string{0: z, 1: "KG"})
		pkg := tab.Find(map[int]string{0: z, 1: "PKG"})
		wc := tab.Find(map[int]string{0: z, 1: "W-C"})
		if kg == nil || pkg == nil || wc == nil {
			t.Fatalf("fig14 missing rows for z=%s", z)
		}
		kgP99, pkgP99, wcP99 := cell(t, kg, 5), cell(t, pkg, 5), cell(t, wc, 5)
		if !(kgP99 > pkgP99 && pkgP99 > wcP99) {
			t.Errorf("fig14 z=%s: p99 ordering KG(%g) > PKG(%g) > W-C(%g) violated",
				z, kgP99, pkgP99, wcP99)
		}
	}
}

func TestLiveFig13Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment skipped in -short")
	}
	tab := mustRun(t, "live-fig13")[0]
	get := func(algo string) float64 {
		row := tab.Find(map[int]string{0: algo})
		if row == nil {
			t.Fatalf("live-fig13 missing %s", algo)
		}
		return cell(t, row, 1)
	}
	// Under the experiment's fixed seed both PKG candidates of the hot
	// key hash to the SAME worker at n=16, so PKG legitimately degenerates
	// to KG here (imbalance 0.547 vs 0.546) and the two throughputs are a
	// wall-clock coin flip a few ev/s apart. Require only that PKG is no
	// worse than KG beyond noise; the load-bearing ordering is D-C far
	// above both.
	if get("PKG") < 0.9*get("KG") {
		t.Errorf("live ordering violated: KG %g, PKG %g", get("KG"), get("PKG"))
	}
	if get("D-C") < 2*get("PKG") {
		t.Errorf("live ordering violated: PKG %g, D-C %g", get("PKG"), get("D-C"))
	}
	if get("W-C") < 0.6*get("SG") {
		t.Errorf("live W-C (%g) too far from SG (%g)", get("W-C"), get("SG"))
	}
}

func TestAblateStragglerHurtsBalancedSchemesMost(t *testing.T) {
	tab := mustRun(t, "ablate-straggler")[0]
	slowdown := func(algo string) float64 {
		row := tab.Find(map[int]string{0: algo})
		if row == nil {
			t.Fatalf("missing %s", algo)
		}
		return cell(t, row, 3)
	}
	// The documented finding: no scheme routes around the straggler, and
	// the balanced schemes pay the most.
	if slowdown("SG") < 30 {
		t.Errorf("SG slowdown %g%%, expected severe", slowdown("SG"))
	}
	if slowdown("W-C") < slowdown("KG") {
		t.Errorf("balanced W-C (%g%%) should suffer at least as much as KG (%g%%)",
			slowdown("W-C"), slowdown("KG"))
	}
}

func TestAblations(t *testing.T) {
	for _, name := range []string{
		"ablate-eps", "ablate-sketch", "ablate-prefix", "ablate-merge",
		"ablate-window", "ablate-oracle", "ablate-saturation", "ablate-straggler",
	} {
		tabs := mustRun(t, name)
		if len(tabs[0].Rows) < 2 {
			t.Errorf("%s: too few rows", name)
		}
	}
}

func TestAblateSaturationShowsWideGap(t *testing.T) {
	tab := mustRun(t, "ablate-saturation")[0]
	row := tab.Find(map[int]string{0: "2.0"})
	if row == nil {
		t.Fatal("z=2.0 row missing")
	}
	kg, pkg, dc, sg := cell(t, row, 1), cell(t, row, 2), cell(t, row, 3), cell(t, row, 5)
	if dc < 5*pkg || dc < 10*kg {
		t.Errorf("saturated gap too small: KG %g PKG %g D-C %g", kg, pkg, dc)
	}
	if dc < 0.85*sg {
		t.Errorf("D-C (%g) should track SG (%g) at saturation", dc, sg)
	}
}

func TestAblateOracleGapTiny(t *testing.T) {
	tab := mustRun(t, "ablate-oracle")[0]
	for _, row := range tab.Rows {
		sketch, oracle := cell(t, row, 2), cell(t, row, 3)
		if sketch > 10*oracle+1e-4 {
			t.Errorf("z=%s: sketch %g far above oracle %g", row[0], sketch, oracle)
		}
	}
}

func TestAblateEpsMonotone(t *testing.T) {
	tab := mustRun(t, "ablate-eps")[0]
	// Analytic d must be non-increasing as ε loosens (rows ordered by ε).
	prev := 1 << 30
	for _, row := range tab.Rows {
		d := int(cell(t, row, 1))
		if d > prev {
			t.Errorf("ablate-eps: d not non-increasing (%d after %d)", d, prev)
		}
		prev = d
	}
}

func TestRunAllSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow; skipped with -short")
	}
	out, err := RunAll(Quick, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 12 {
		t.Fatalf("RunAll returned %d experiments", len(out))
	}
}

// TestAggregationOverheadOrdering pins the acceptance criteria of the
// aggregation experiment, in BOTH engines and at every window size:
// KG pays exactly zero replication overhead (factor 1), the
// key-splitting schemes pay more, W-C the most among the load-aware
// ones, and the aggregation traffic (messages per window) follows the
// same ordering.
func TestAggregationOverheadOrdering(t *testing.T) {
	tabs := mustRun(t, "aggregation")
	if len(tabs) != 5 {
		t.Fatalf("aggregation returned %d tables, want 5 (eventsim + dspe + flush-cost sweep + two AggShards sweeps)", len(tabs))
	}
	for _, tab := range tabs[:2] {
		// Group rows by window size.
		byWindow := make(map[string]map[string][]string)
		for _, row := range tab.Rows {
			win, algo := row[0], row[1]
			if byWindow[win] == nil {
				byWindow[win] = make(map[string][]string)
			}
			byWindow[win][algo] = row
		}
		if len(byWindow) < 3 {
			t.Fatalf("%s: only %d window sizes, want ≥ 3", tab.Title, len(byWindow))
		}
		for win, rows := range byWindow {
			repl := func(algo string) float64 { return cell(t, rows[algo], 5) }
			msgs := func(algo string) float64 { return cell(t, rows[algo], 4) }
			if repl("KG") != 1 {
				t.Errorf("%s w=%s: KG replication = %f, want exactly 1", tab.Title, win, repl("KG"))
			}
			if !(repl("PKG") > repl("KG")) {
				t.Errorf("%s w=%s: PKG replication %f not above KG's %f", tab.Title, win, repl("PKG"), repl("KG"))
			}
			if !(repl("W-C") > repl("PKG")) {
				t.Errorf("%s w=%s: W-C replication %f not above PKG's %f", tab.Title, win, repl("W-C"), repl("PKG"))
			}
			// D-C sits between PKG (d=2) and W-C (d=n); allow slack for the
			// online d estimate.
			if repl("D-C") < repl("PKG")-0.05 || repl("D-C") > repl("W-C")+0.05 {
				t.Errorf("%s w=%s: D-C replication %f outside [PKG %f, W-C %f]",
					tab.Title, win, repl("D-C"), repl("PKG"), repl("W-C"))
			}
			if !(msgs("KG") < msgs("W-C")) {
				t.Errorf("%s w=%s: KG traffic %f not below W-C's %f", tab.Title, win, msgs("KG"), msgs("W-C"))
			}
		}
	}

	// The flush-cost sweep prices the aggregation phase: at every cost
	// point the replication-heavy W-C occupies the reducer station more
	// than KG, and W-C's utilization rises with the per-partial cost.
	sweep := tabs[2]
	byCost := make(map[string]map[string][]string)
	var costs []string
	for _, row := range sweep.Rows {
		fc, algo := row[0], row[1]
		if byCost[fc] == nil {
			byCost[fc] = make(map[string][]string)
			costs = append(costs, fc)
		}
		byCost[fc][algo] = row
	}
	if len(costs) < 3 {
		t.Fatalf("sweep covers %d flush costs, want ≥ 3", len(costs))
	}
	prevWC := -1.0
	for _, fc := range costs {
		util := func(algo string) float64 { return cell(t, byCost[fc][algo], 5) }
		if !(util("W-C") > util("KG")) {
			t.Errorf("sweep fc=%s: W-C reducer utilization %f not above KG's %f", fc, util("W-C"), util("KG"))
		}
		if util("W-C") < prevWC {
			t.Errorf("sweep fc=%s: W-C reducer utilization %f fell below previous cost point's %f", fc, util("W-C"), prevWC)
		}
		prevWC = util("W-C")
	}
}

// TestAggregationShardSweep pins the R-sweep acceptance criteria on
// the deterministic engine at the PR-3 saturating config (W-Choices,
// AggFlushCost = 2 ms, smallest window): R=1's single reducer station
// saturates; R=4 pulls the max shard utilization below 0.9 and
// recovers at least half of the throughput lost to reducer saturation
// (measured against the reducer-free baseline — the worker-side flush
// bill is paid identically at every R). The goroutine runtime's sweep
// must show the same parallelization as a wall-clock speedup.
func TestAggregationShardSweep(t *testing.T) {
	m := Quick.aggMessages()
	win := m / aggWindowDivisors[0]
	tab, err := shardSweepEventsim(m, win, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	wc := make(map[string][]string)
	for _, row := range tab.Rows {
		if row[1] == "W-C" {
			wc[row[0]] = row
		}
	}
	if len(wc) < 3 {
		t.Fatalf("W-C appears at %d shard counts, want ≥ 3", len(wc))
	}
	util := func(r string) float64 { return cell(t, wc[r], 5) }
	if util("1") < 0.9 {
		t.Errorf("R=1 reducer util %.3f, want ≥ 0.9 (the saturating config must saturate)", util("1"))
	}
	if util("4") >= 0.9 {
		t.Errorf("R=4 max shard util %.3f, want < 0.9: sharding must move the saturation point", util("4"))
	}
	if recov := cell(t, wc["4"], 4); recov < 50 {
		t.Errorf("R=4 recovered %.1f%% of the reducer-saturation loss, want ≥ 50%%", recov)
	}
	// Max shard utilization is non-increasing in R.
	prev := 2.0
	for _, r := range aggShardCounts {
		u := util(strconv.Itoa(r))
		if u > prev+1e-9 {
			t.Errorf("R=%d util %.3f above R/2's %.3f: utilization must fall as shards are added", r, u, prev)
		}
		prev = u
	}

	live, err := shardSweepLive(m)
	if err != nil {
		t.Fatal(err)
	}
	speedup := map[string]float64{}
	for _, row := range live.Rows {
		speedup[row[0]] = cell(t, row, 3)
	}
	// Measured ≈ 3.3× at R=4; assert 1.5× to stay robust on slow hosts.
	if speedup["4"] < 1.5 {
		t.Errorf("dspe R=4 wall-clock speedup %.2f, want ≥ 1.5", speedup["4"])
	}
}

// TestScaleShape pins the large-deployment story end to end at Quick
// scale: (1) PKG's imbalance grows with n while D-C and W-C stay
// near-flat — the paper's "two choices are not enough" claim in the
// regime its title is about; (2) the floor index keeps W-C head routing
// flat across the sweep; (3) added
// workers keep raising D-C/W-C throughput after PKG has plateaued.
func TestScaleShape(t *testing.T) {
	tabs := mustRun(t, "scale")
	if len(tabs) != 3 {
		t.Fatalf("scale returned %d tables, want 3", len(tabs))
	}
	route, imb, thr := tabs[0], tabs[1], tabs[2]

	// (2) Routing cost: W-C's head path is O(1) in n, so its ns/msg
	// must stay within 11x across the sweep (n = 16 … 4096). Ten runs
	// measured max/min ratios of 1.08–2.11; the bound keeps the old
	// scan-vs-tree check's 5x slack over the worst of them for CI timer
	// noise. A linear argmin measured 68x (66 → 4,518 ns/msg).
	lo, hi := math.Inf(1), 0.0
	for _, row := range route.Rows {
		v := cell(t, row, 1)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi > 11*lo {
		t.Errorf("scale routing: W-C ranges %g … %g ns/msg across n, want within 11x", lo, hi)
	}

	// (1) Imbalance. At the moderate z=0.8 two choices still suffice at
	// n=16 (p₁ < 2/n) and stop sufficing as n grows: PKG must GROW by
	// ≥3x across the sweep. At every skew, PKG at the largest n must
	// sit ≥10x above D-C and W-C, which stay near-flat (<0.01).
	var z08 [][]string
	for _, row := range imb.Rows {
		if row[0] == "0.8" {
			z08 = append(z08, row)
		}
	}
	if len(z08) < 2 {
		t.Fatalf("scale imbalance table missing z=0.8 rows")
	}
	pkgFirst, pkgLast := cell(t, z08[0], 3), cell(t, z08[len(z08)-1], 3)
	if pkgLast < 3*pkgFirst {
		t.Errorf("scale imbalance z=0.8: PKG %g (n=%s) → %g (n=%s), want ≥3x growth with n",
			pkgFirst, z08[0][1], pkgLast, z08[len(z08)-1][1])
	}
	lastN := imb.Rows[len(imb.Rows)-1][1]
	for _, row := range imb.Rows {
		if row[1] != lastN {
			continue
		}
		pkg, dc, wc := cell(t, row, 3), cell(t, row, 4), cell(t, row, 5)
		for name, v := range map[string]float64{"D-C": dc, "W-C": wc} {
			if v > 0.01 {
				t.Errorf("scale imbalance z=%s n=%s: %s = %g, want near-flat (<0.01)", row[0], row[1], name, v)
			}
			if pkg < 10*v {
				t.Errorf("scale imbalance z=%s n=%s: PKG %g not ≥10x %s %g", row[0], row[1], pkg, name, v)
			}
		}
	}

	// (3) Throughput: at the largest n, D-C and W-C clear PKG by ≥2x
	// (PKG is pinned by its two hot-key workers; they are not).
	lastT := thr.Rows[len(thr.Rows)-1]
	pkgThr, dcThr, wcThr := cell(t, lastT, 2), cell(t, lastT, 3), cell(t, lastT, 4)
	if dcThr < 2*pkgThr || wcThr < 2*pkgThr {
		t.Errorf("scale throughput at n=%s: D-C %g / W-C %g not ≥2x PKG %g", lastT[0], dcThr, wcThr, pkgThr)
	}
}
