package exp

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tiny is the configuration the test suite uses: small fan-outs, short
// horizons, single repetitions — with the invariant checker on, so every
// figure run in the suite is also a conformance run.
var tiny = Config{Seed: 1, Scale: 0.05, Reps: 1, Check: true}

// skipIfShort skips the heavyweight figure runners in -short mode. The
// runners are single-threaded simulation loops with no goroutines, so the
// race detector's ~20x slowdown buys nothing there and turns the suite
// into hours; `make race` and CI run `go test -race -short ./...` and get
// their race coverage from the transport packages (and the faults suite,
// which stays enabled).
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure runner skipped in -short mode")
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, res *Result, row int, col string) float64 {
	t.Helper()
	idx := -1
	for i, c := range res.Columns {
		if c == col {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("%s: no column %q in %v", res.ID, col, res.Columns)
	}
	if row >= len(res.Rows) {
		t.Fatalf("%s: row %d out of %d", res.ID, row, len(res.Rows))
	}
	v, err := strconv.ParseFloat(res.Rows[row][idx], 64)
	if err != nil {
		t.Fatalf("%s: cell %d/%s = %q is not numeric", res.ID, row, col, res.Rows[row][idx])
	}
	return v
}

// findRow locates the first row whose cells start with the given prefix
// values.
func findRow(t *testing.T, res *Result, prefix ...string) int {
	t.Helper()
	for i, row := range res.Rows {
		ok := true
		for j, p := range prefix {
			if j >= len(row) || row[j] != p {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("%s: no row with prefix %v", res.ID, prefix)
	return -1
}

func TestRegistryComplete(t *testing.T) {
	if got := len(All()); got != 22 {
		t.Errorf("registered %d experiments, want 16 figures + 4 ablations + faults + churn", got)
	}
	for _, id := range IDs() {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed for listed ID", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown ID succeeded")
	}
}

func TestResultRendering(t *testing.T) {
	res := &Result{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	res.AddRow("1", "2")
	out := res.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "bb") {
		t.Errorf("rendered table missing pieces:\n%s", out)
	}
}

func TestFig1PowerGrowsWithSubflows(t *testing.T) {
	skipIfShort(t)
	res := Fig1(tiny)
	if len(res.Rows) != 5 {
		t.Fatalf("fig1 has %d rows, want 5", len(res.Rows))
	}
	tcp := cell(t, res, 0, "power_w")
	first := cell(t, res, 1, "power_w")
	last := cell(t, res, len(res.Rows)-1, "power_w")
	if tcp >= first {
		t.Errorf("TCP power %.2f W not below MPTCP's %.2f W", tcp, first)
	}
	if last <= first {
		t.Errorf("power with 8 subflows (%.2f W) not above 2 subflows (%.2f W)", last, first)
	}
}

func TestFig2MPTCPCostsMoreOnHandset(t *testing.T) {
	skipIfShort(t)
	res := Fig2(tiny)
	wifi := cell(t, res, findRow(t, res, "tcp-wifi"), "power_w")
	lte := cell(t, res, findRow(t, res, "tcp-lte"), "power_w")
	both := cell(t, res, findRow(t, res, "mptcp-wifi+lte"), "power_w")
	if both <= wifi || both <= lte {
		t.Errorf("MPTCP power %.2f W not above TCP-WiFi %.2f W and TCP-LTE %.2f W", both, wifi, lte)
	}
}

func TestFig3aEnergyFallsPowerFlat(t *testing.T) {
	skipIfShort(t)
	res := Fig3a(tiny)
	e200 := cell(t, res, 0, "energy_j")
	e1000 := cell(t, res, len(res.Rows)-1, "energy_j")
	if e1000 >= e200 {
		t.Errorf("wired energy at 1 Gb/s (%.0f J) not below 200 Mb/s (%.0f J)", e1000, e200)
	}
	p200 := cell(t, res, 0, "power_w")
	p1000 := cell(t, res, len(res.Rows)-1, "power_w")
	rise := (p1000 - p200) / p200
	if rise < 0.05 || rise > 0.35 {
		t.Errorf("wired power rise %.0f%%, want gentle (~15%%)", rise*100)
	}
}

func TestFig3bPowerRisesSharply(t *testing.T) {
	skipIfShort(t)
	res := Fig3b(tiny)
	p10 := cell(t, res, 0, "power_w")
	p50 := cell(t, res, len(res.Rows)-1, "power_w")
	rise := (p50 - p10) / p10
	if rise < 0.5 {
		t.Errorf("WiFi power rise %.0f%%, want sharp (~90%%)", rise*100)
	}
	e10 := cell(t, res, 0, "energy_j")
	e50 := cell(t, res, len(res.Rows)-1, "energy_j")
	if e50 >= e10 {
		t.Errorf("WiFi energy at 50 Mb/s (%.0f J) not below 10 Mb/s (%.0f J)", e50, e10)
	}
}

func TestFig4PowerGrowsWithRTT(t *testing.T) {
	skipIfShort(t)
	res := Fig4(tiny)
	rtt1 := cell(t, res, 0, "mean_rtt_ms")
	rtt3 := cell(t, res, len(res.Rows)-1, "mean_rtt_ms")
	if rtt3 <= rtt1 {
		t.Errorf("measured RTT on high-delay paths (%.1f ms) not above low-delay (%.1f ms)", rtt3, rtt1)
	}
	p1 := cell(t, res, 0, "power_w")
	p3 := cell(t, res, len(res.Rows)-1, "power_w")
	if p3 <= p1 {
		t.Errorf("power on high-delay paths (%.2f W) not above low-delay (%.2f W)", p3, p1)
	}
	// Throughput is bottleneck-pinned: roughly equal across configs.
	t1 := cell(t, res, 0, "throughput_mbps")
	t3 := cell(t, res, len(res.Rows)-1, "throughput_mbps")
	if t3 < 0.8*t1 || t3 > 1.2*t1 {
		t.Errorf("throughput changed %.1f -> %.1f Mb/s; Fig. 4 holds it fixed", t1, t3)
	}
}

func TestFig6BoxesOrdered(t *testing.T) {
	skipIfShort(t)
	res := Fig6(tiny)
	if want := len(fig6Algorithms) * len(fig6Users(tiny)); len(res.Rows) != want {
		t.Fatalf("fig6 has %d rows, want %d", len(res.Rows), want)
	}
	for i := range res.Rows {
		min := cell(t, res, i, "min_j")
		q1 := cell(t, res, i, "q1_j")
		med := cell(t, res, i, "median_j")
		q3 := cell(t, res, i, "q3_j")
		max := cell(t, res, i, "max_j")
		if !(min <= q1 && q1 <= med && med <= q3 && q3 <= max) {
			t.Errorf("row %v: box out of order", res.Rows[i])
		}
		if med <= 0 {
			t.Errorf("row %v: non-positive median energy", res.Rows[i])
		}
	}

	// The declared algorithm axis: an olia-only run reproduces the full
	// grid's olia rows byte-for-byte (campaign units split on this).
	sliceCfg := tiny
	sliceCfg.Algorithm = "olia"
	slice := Fig6(sliceCfg)
	var want [][]string
	for _, row := range res.Rows {
		if row[1] == "olia" {
			want = append(want, row)
		}
	}
	if len(slice.Rows) != len(want) {
		t.Fatalf("olia slice has %d rows, want %d", len(slice.Rows), len(want))
	}
	for i := range want {
		if strings.Join(slice.Rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("olia-slice row %d = %v, full-grid twin %v", i, slice.Rows[i], want[i])
		}
	}
}

// TestFig6UsersDistinct: at the committed tables' scale 0.15 the paper's
// N = 10 and 20 both scale to the floor of 4; the axis keeps one.
func TestFig6UsersDistinct(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.15
	if got, want := fig6Users(cfg), []int{4, 7, 15}; !slices.Equal(got, want) {
		t.Errorf("fig6 N axis at scale 0.15 = %v, want %v", got, want)
	}
	cfg.Scale = 1
	if got, want := fig6Users(cfg), []int{10, 20, 50, 100}; !slices.Equal(got, want) {
		t.Errorf("fig6 N axis at full scale = %v, want %v", got, want)
	}
}

func TestFig7AllAlgorithmsProduceRows(t *testing.T) {
	skipIfShort(t)
	res := Fig7(tiny)
	if len(res.Rows) != len(fig7Algorithms) {
		t.Fatalf("fig7 has %d rows, want %d", len(res.Rows), len(fig7Algorithms))
	}
	for i := range res.Rows {
		if tput := cell(t, res, i, "throughput_mbps"); tput <= 0 {
			t.Errorf("%s: zero throughput", res.Rows[i][0])
		}
		if j := cell(t, res, i, "j_per_gbit"); j <= 0 {
			t.Errorf("%s: zero energy", res.Rows[i][0])
		}
	}
}

func TestFig8TraceShape(t *testing.T) {
	skipIfShort(t)
	res := Fig8(tiny)
	if len(res.Rows) != 20 {
		t.Fatalf("fig8 has %d rows, want 2 algs x 10 samples", len(res.Rows))
	}
	// Cumulative energy must be non-decreasing within each algorithm.
	var prev float64
	for i, row := range res.Rows {
		if row[0] == "lia" && i > 0 && res.Rows[i-1][0] == "lia" {
			if e := cell(t, res, i, "energy_j"); e < prev {
				t.Errorf("cumulative energy decreased at row %d", i)
			}
		}
		prev = cell(t, res, i, "energy_j")
	}
}

func TestFig9DTSSavesEnergy(t *testing.T) {
	skipIfShort(t)
	res := Fig9(Config{Seed: 1, Scale: 0.3, Reps: 3, Check: true})
	liaRow := findRow(t, res, "lia")
	if s := cell(t, res, liaRow, "saving_vs_lia_pct"); s != 0 {
		t.Errorf("LIA's saving vs itself = %v, want 0", s)
	}
	// The kernel variant (Modified LIA, Fig. 8) is the one the paper's
	// testbed numbers come from: it must save energy without degrading
	// throughput.
	saving := cell(t, res, findRow(t, res, "dts-lia"), "saving_vs_lia_pct")
	if saving <= 0 {
		t.Errorf("Modified LIA uses %.1f%% MORE energy per gigabit than LIA; paper expects savings", -saving)
	}
	liaTput := cell(t, res, liaRow, "throughput_mbps")
	dtsTput := cell(t, res, findRow(t, res, "dts-lia"), "throughput_mbps")
	if dtsTput < 0.9*liaTput {
		t.Errorf("Modified LIA throughput %.1f well below LIA's %.1f; paper says no degradation", dtsTput, liaTput)
	}
	// The Taylor kernel port should land close to the exact psi=c*eps DTS.
	tay := cell(t, res, findRow(t, res, "dts-taylor"), "j_per_gbit")
	exact := cell(t, res, findRow(t, res, "dts"), "j_per_gbit")
	if tay < 0.8*exact || tay > 1.2*exact {
		t.Errorf("Taylor DTS %.1f J/Gb far from exact %.1f J/Gb", tay, exact)
	}
}

func TestFig10MultipathSavesEnergy(t *testing.T) {
	skipIfShort(t)
	res := Fig10(tiny)
	reno := cell(t, res, findRow(t, res, "reno"), "aggregate_j")
	lia := cell(t, res, findRow(t, res, "lia"), "aggregate_j")
	dts := cell(t, res, findRow(t, res, "dts-lia"), "aggregate_j")
	if lia >= reno || dts >= reno {
		t.Errorf("multipath energy (lia %.0f, dts %.0f J) not below TCP's %.0f J", lia, dts, reno)
	}
	// The headline: big savings from 4x the interfaces.
	if saving := cell(t, res, findRow(t, res, "lia"), "saving_vs_tcp_pct"); saving < 30 {
		t.Errorf("LIA saves only %.0f%% vs TCP; paper reports up to ~70%%", saving)
	}
	// DTS ~ LIA in this scenario.
	if dts > 1.4*lia || lia > 1.4*dts {
		t.Errorf("DTS (%.0f J) and LIA (%.0f J) should be similar on EC2", dts, lia)
	}
}

func TestFig12BCubeOverheadDecreases(t *testing.T) {
	skipIfShort(t)
	// BCube's multi-NIC gain needs a cube with 3 NICs per host; scale 0.3
	// builds BCube(3,2) (27 hosts) rather than the minimal (3,1).
	res := Fig12(Config{Seed: 1, Scale: 0.3, Reps: 1, Check: true})
	one := cell(t, res, findRow(t, res, "1"), "j_per_gbit")
	eight := cell(t, res, findRow(t, res, "8"), "j_per_gbit")
	if eight >= one {
		t.Errorf("BCube energy overhead with 8 subflows (%.1f) not below 1 subflow (%.1f)", eight, one)
	}
}

func TestFig13FatTreeNoBigSaving(t *testing.T) {
	skipIfShort(t)
	res := Fig13(tiny)
	one := cell(t, res, findRow(t, res, "1"), "j_per_gbit")
	eight := cell(t, res, findRow(t, res, "8"), "j_per_gbit")
	// "Fails to save energy": overhead does not drop much (allow 15% noise).
	if eight < 0.85*one {
		t.Errorf("FatTree overhead dropped %.1f -> %.1f with subflows; paper says no saving", one, eight)
	}
}

func TestFig14VL2NoBigSaving(t *testing.T) {
	skipIfShort(t)
	res := Fig14(tiny)
	one := cell(t, res, findRow(t, res, "1"), "j_per_gbit")
	eight := cell(t, res, findRow(t, res, "8"), "j_per_gbit")
	if eight < 0.85*one {
		t.Errorf("VL2 overhead dropped %.1f -> %.1f with subflows; paper says no saving", one, eight)
	}
}

func TestFig15ExtendedDTSSaves(t *testing.T) {
	skipIfShort(t)
	res := Fig15(tiny)
	for _, kind := range []string{"fattree", "vl2"} {
		saving := cell(t, res, findRow(t, res, kind, "dtsep-lia"), "saving_vs_lia_pct")
		if saving <= -10 {
			t.Errorf("%s: extended DTS uses %.0f%% MORE energy than LIA", kind, -saving)
		}
	}
}

func TestFig16ThroughputComparable(t *testing.T) {
	skipIfShort(t)
	res := Fig16(tiny)
	for _, kind := range []string{"fattree", "vl2"} {
		diff := cell(t, res, findRow(t, res, kind, "dts-lia"), "vs_lia_pct")
		if diff < -30 {
			t.Errorf("%s: DTS throughput %.0f%% below LIA; paper says comparable", kind, diff)
		}
	}
}

func TestAblationCRows(t *testing.T) {
	skipIfShort(t)
	res := AblationC(tiny)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// Condition 1 holds for c <= 1 at the design-point ratio and fails
	// beyond it.
	if res.Rows[1][3] != "true" {
		t.Errorf("c=1 should satisfy Condition 1: %v", res.Rows[1])
	}
	if res.Rows[3][3] != "false" {
		t.Errorf("c=2 should violate Condition 1: %v", res.Rows[3])
	}
	// Throughput grows with c (aggressiveness knob).
	lo := cell(t, res, 0, "throughput_mbps")
	hi := cell(t, res, 3, "throughput_mbps")
	if hi <= lo {
		t.Errorf("throughput at c=2 (%.1f) not above c=0.5 (%.1f)", hi, lo)
	}
}

func TestAblationKappaTradeoff(t *testing.T) {
	skipIfShort(t)
	res := AblationKappa(tiny)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// More price weight -> smaller share on the priced path (the tradeoff
	// direction the compensative term controls).
	free := cell(t, res, 0, "priced_path_share")
	harsh := cell(t, res, len(res.Rows)-1, "priced_path_share")
	if harsh >= free {
		t.Errorf("priced-path share at kappa=2e-3 (%.3f) not below kappa=0's (%.3f)", harsh, free)
	}
}

func TestAblationHystartReducesLoss(t *testing.T) {
	skipIfShort(t)
	res := AblationHystart(tiny)
	on := cell(t, res, findRow(t, res, "true"), "rtx")
	off := cell(t, res, findRow(t, res, "false"), "rtx")
	if off <= on {
		t.Errorf("retransmissions without guard (%.0f) not above guarded (%.0f)", off, on)
	}
}

func TestAblationPathselTradeoff(t *testing.T) {
	skipIfShort(t)
	res := AblationPathsel(tiny)
	liaT := cell(t, res, findRow(t, res, "lia"), "throughput_mbps")
	selT := cell(t, res, findRow(t, res, "lia+selector"), "throughput_mbps")
	liaP := cell(t, res, findRow(t, res, "lia"), "mean_power_w")
	selP := cell(t, res, findRow(t, res, "lia+selector"), "mean_power_w")
	if selT >= liaT {
		t.Errorf("selector throughput %.2f not below full MPTCP's %.2f", selT, liaT)
	}
	if selP >= liaP {
		t.Errorf("selector power %.2f W not below full MPTCP's %.2f W", selP, liaP)
	}
}

// TestFaultsAxisSliceMatchesFullGrid is the contract behind the campaign's
// finer-grained units: running one (scenario, algorithm) slice of the
// faults suite yields rows byte-identical to the same rows of the full
// grid, because nothing in a run's identity depends on grid position.
func TestFaultsAxisSliceMatchesFullGrid(t *testing.T) {
	skipIfShort(t)
	full := FigFaults(tiny)

	scenarioCfg := tiny
	scenarioCfg.Scenario = "flap"
	slice := FigFaults(scenarioCfg)
	var want [][]string
	for _, row := range full.Rows {
		if row[0] == "flap" {
			want = append(want, row)
		}
	}
	if len(slice.Rows) != len(want) {
		t.Fatalf("scenario slice has %d rows, want %d", len(slice.Rows), len(want))
	}
	for i := range want {
		if strings.Join(slice.Rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("scenario-slice row %d = %v, full-grid twin %v", i, slice.Rows[i], want[i])
		}
	}

	cellCfg := tiny
	cellCfg.Scenario = "outage"
	cellCfg.Algorithm = "dts"
	one := FigFaults(cellCfg)
	if len(one.Rows) != 1 {
		t.Fatalf("single-cell run has %d rows, want 1", len(one.Rows))
	}
	for _, row := range full.Rows {
		if row[0] == "outage" && row[1] == "dts" {
			if strings.Join(one.Rows[0], "|") != strings.Join(row, "|") {
				t.Errorf("single-cell row %v, full-grid twin %v", one.Rows[0], row)
			}
			return
		}
	}
	t.Fatal("full grid has no outage/dts row")
}

// TestFilterAxisUnknownValueEmpty pins the filter's miss behaviour: a value
// the figure does not have selects nothing (the campaign never generates
// one, but a stale manifest must degrade to an empty table, not a panic).
func TestFilterAxisUnknownValueEmpty(t *testing.T) {
	cfg := tiny
	cfg.Algorithm = "no-such-alg"
	if res := FigFaults(cfg); len(res.Rows) != 0 {
		t.Errorf("unknown algorithm filter produced %d rows, want 0", len(res.Rows))
	}
}

func TestFigFaultsTransfersComplete(t *testing.T) {
	res := FigFaults(tiny)
	if len(res.Rows) != 3*len(faultsAlgorithms) {
		t.Fatalf("faults has %d rows, want 3 scenarios x %d algorithms", len(res.Rows), len(faultsAlgorithms))
	}
	horizon := 15.0 // tiny scale clamps at the 15 s floor
	for i, row := range res.Rows {
		completed := cell(t, res, i, "completed_s")
		if completed <= 0 || completed >= horizon {
			t.Errorf("%s/%s: completed_s = %.2f; transfer must finish despite the fault (horizon %.0f s)",
				row[0], row[1], completed, horizon)
		}
		if g := cell(t, res, i, "goodput_mbps"); g <= 0 {
			t.Errorf("%s/%s: zero goodput", row[0], row[1])
		}
		if j := cell(t, res, i, "j_per_gbit"); j <= 0 {
			t.Errorf("%s/%s: zero energy", row[0], row[1])
		}
	}
	// The outage schedule must actually trigger failover for at least some
	// algorithms (path1 is dead for a third of the horizon).
	totalReinj := 0.0
	for i, row := range res.Rows {
		if row[0] == "outage" {
			totalReinj += cell(t, res, i, "reinj_segs")
		}
	}
	if totalReinj == 0 {
		t.Error("no algorithm re-injected any segments under the outage scenario")
	}
}

func TestFig17DTSSavesOnHandset(t *testing.T) {
	skipIfShort(t)
	res := Fig17(Config{Seed: 1, Scale: 0.3, Reps: 2, Check: true})
	dts := cell(t, res, findRow(t, res, "dts"), "energy_saving_vs_lia_pct")
	dtsep := cell(t, res, findRow(t, res, "dtsep"), "energy_saving_vs_lia_pct")
	if dts <= -5 && dtsep <= -5 {
		t.Errorf("neither DTS (%.1f%%) nor DTS-EP (%.1f%%) saves handset energy vs LIA", dts, dtsep)
	}
}
