package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/sim"
)

// sweepSpec is a small hybrid sweep: 4 grid points, of which SpotCheck 0.05
// pins exactly one (ceil(0.05·4)) as a packet check unit.
func sweepSpec() Spec {
	return Spec{Sweep: &backend.SweepSpec{
		Topologies: []string{"twopath-asym"},
		Algorithms: []string{"ewtcp", "dts"},
		Loads:      []float64{0, 0.1},
		SpotCheck:  0.05,
	}}
}

func TestSweepExpandDeterminismAndSample(t *testing.T) {
	spec := sweepSpec()
	spec.Seeds = []int64{1, 2}
	m1, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(m *Manifest) []string {
		var out []string
		for _, u := range m.Units {
			out = append(out, u.ID())
		}
		return out
	}
	if got, want := strings.Join(ids(m1), ","), strings.Join(ids(m2), ","); got != want {
		t.Fatalf("two expansions differ:\n%s\n%s", got, want)
	}

	// Per seed: 1 topology × 2 algorithms fluid units + 1 spot-check unit.
	if got := len(m1.Units); got != 2*(2+1) {
		t.Fatalf("expanded %d units, want 6", got)
	}
	// The check units must be exactly the backend's seed-derived sample, so
	// the manifest pins the same points backend.Sweep would re-run.
	for _, seed := range spec.Seeds {
		sw := spec.Sweep.WithDefaults()
		sw.Seed = seed
		pts := sw.Grid()
		picked := sw.SpotIndices(pts)
		var want []string
		for i, p := range pts {
			if picked[i] {
				want = append(want, Unit{
					Experiment: "sweep-check", Algorithm: p.Algorithm,
					Scenario: checkScenario(p), Seed: seed,
				}.ID())
			}
		}
		var got []string
		for _, u := range m1.Units {
			if u.Experiment == sweepCheckExp && u.Seed == seed {
				got = append(got, u.ID())
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("seed %d check units %v, want the backend sample %v", seed, got, want)
		}
	}

	// Sweep-only specs are legal; a sweep with no points is not.
	if _, err := Expand(Spec{Sweep: &backend.SweepSpec{}}); err == nil {
		t.Error("empty sweep grid accepted")
	}
	bad := sweepSpec()
	bad.Sweep.Backend = "quantum"
	if _, err := Expand(bad); err == nil {
		t.Error("unknown sweep backend accepted")
	}
	badAlg := sweepSpec()
	badAlg.Sweep.Algorithms = []string{"no-such-alg"}
	if _, err := Expand(badAlg); err == nil {
		t.Error("unknown sweep algorithm accepted")
	}
}

func TestSweepExpandPerBackend(t *testing.T) {
	count := func(m *Manifest, exp string) int {
		n := 0
		for _, u := range m.Units {
			if u.Experiment == exp {
				n++
			}
		}
		return n
	}
	fluidOnly := sweepSpec()
	fluidOnly.Sweep.Backend = "fluid"
	m, err := Expand(fluidOnly)
	if err != nil {
		t.Fatal(err)
	}
	if count(m, sweepFluidExp) != 2 || count(m, sweepCheckExp) != 0 {
		t.Errorf("fluid backend expanded %d fluid + %d check units, want 2 + 0",
			count(m, sweepFluidExp), count(m, sweepCheckExp))
	}
	pktOnly := sweepSpec()
	pktOnly.Sweep.Backend = "packet"
	m, err = Expand(pktOnly)
	if err != nil {
		t.Fatal(err)
	}
	if count(m, sweepFluidExp) != 0 || count(m, sweepCheckExp) != 4 {
		t.Errorf("packet backend expanded %d fluid + %d check units, want 0 + 4",
			count(m, sweepFluidExp), count(m, sweepCheckExp))
	}
}

func TestParseCheckScenarioRoundTrip(t *testing.T) {
	p := backend.Point{Topology: "twopath-asym", Algorithm: "dts", Load: 0.1}
	topoName, load, err := parseCheckScenario(checkScenario(p))
	if err != nil {
		t.Fatal(err)
	}
	if topoName != p.Topology || load != p.Load {
		t.Errorf("round trip gave %s@%v, want %s@%v", topoName, load, p.Topology, p.Load)
	}
	if _, _, err := parseCheckScenario("no-load-marker"); err == nil {
		t.Error("scenario without @load accepted")
	}
	if _, _, err := parseCheckScenario("topo@not-a-number"); err == nil {
		t.Error("unparsable load accepted")
	}
}

// TestSweepCampaignMergesIdenticalAcrossWorkers runs the same sweep-only
// campaign at one and at two workers and requires byte-identical merged
// outputs, then resumes the finished directory and requires every unit to
// be reused from the journal.
func TestSweepCampaignMergesIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-horizon packet spot checks")
	}
	ctx := context.Background()
	spec := sweepSpec()

	dirA, dirB := t.TempDir(), t.TempDir()
	sumA, err := Start(ctx, dirA, spec, Options{Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if _, err := Start(ctx, dirB, spec, Options{Workers: 2}); err != nil {
		t.Fatalf("workers=2: %v", err)
	}
	if sumA.Quarantined != 0 {
		t.Fatalf("%d units quarantined; the default grid points must pass their checks", sumA.Quarantined)
	}
	ra, pa := mustOutputs(t, dirA)
	rb, pb := mustOutputs(t, dirB)
	if ra != rb {
		t.Errorf("results.txt differs across worker counts:\n-j1:\n%s\n-j2:\n%s", ra, rb)
	}
	if pa != pb {
		t.Errorf("campaign.json differs across worker counts:\n-j1:\n%s\n-j2:\n%s", pa, pb)
	}
	if !strings.Contains(ra, "twopath-asym/ewtcp@0") {
		t.Errorf("merged results lack the sweep table rows:\n%s", ra)
	}

	sum, err := Resume(ctx, dirA, Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if sum.Reused != sum.Total || sum.Ran != 0 {
		t.Errorf("resume reused %d/%d and ran %d; a finished sweep campaign must be fully journal-backed",
			sum.Reused, sum.Total, sum.Ran)
	}
	rr, _ := mustOutputs(t, dirA)
	if rr != ra {
		t.Errorf("results.txt changed across resume")
	}
}

// TestSweepCampaignQuarantinesDisagreement: a spot check that fails its
// tolerance is a quarantined unit — the campaign finishes, the journal
// notes the disagreeing point, and the unit's table records the row.
func TestSweepCampaignQuarantinesDisagreement(t *testing.T) {
	spec := Spec{Sweep: &backend.SweepSpec{
		Topologies: []string{"twopath-asym"},
		Algorithms: []string{"lia"},
		Loads:      []float64{0.1},
		SpotCheck:  1,
		Tol:        1e-9, // below any delta a packet run can reach: fails by construction
		Horizon:    6 * sim.Second,
		Warmup:     2 * sim.Second,
	}}
	dir := t.TempDir()
	sum, err := Start(context.Background(), dir, spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 {
		t.Fatalf("quarantined %d units, want exactly the disagreeing check unit", sum.Quarantined)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), "disagreement") || !strings.Contains(string(journal), "twopath-asym/lia@0.1") {
		t.Errorf("journal does not name the disagreeing point:\n%s", journal)
	}
	u := Unit{Experiment: sweepCheckExp, Algorithm: "lia", Scenario: "twopath-asym@0.1", Seed: 1}
	table, err := os.ReadFile(filepath.Join(u.Dir(dir), "table.txt"))
	if err != nil {
		t.Fatalf("the failing unit must still write its table: %v", err)
	}
	if !strings.Contains(string(table), "FAIL") {
		t.Errorf("unit table does not flag the failing row:\n%s", table)
	}
}

// TestSweepCheckUnitTimesOut: the campaign's -timeout reaches a sweep-check
// unit's packet run. With a deadline far below one packet point, the run
// supervisor times the point out, the run counts say so, and the unit is
// quarantined with a journal note naming the point and its outcome.
func TestSweepCheckUnitTimesOut(t *testing.T) {
	spec := Spec{Sweep: &backend.SweepSpec{
		Backend:    "packet", // one sweep-check unit per point, no fluid units
		Topologies: []string{"twopath-asym"},
		Algorithms: []string{"ewtcp"},
		Loads:      []float64{0},
	}}
	dir := t.TempDir()
	sum, err := Start(context.Background(), dir, spec, Options{Workers: 1, Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 1 || sum.Quarantined != 1 || sum.Counts.TimedOut != 1 {
		t.Fatalf("summary %+v, want the one check unit quarantined on one timed-out run", sum)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), "twopath-asym/ewtcp@0 timed-out: wall-clock deadline 1ms exceeded") {
		t.Errorf("journal does not note the timed-out point:\n%s", journal)
	}
}

// TestSweepUnitInterrupted: cancelling mid-unit reports Interrupted instead
// of failing the unit, so the campaign can resume it later.
func TestSweepUnitInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := sweepSpec()
	sw := *spec.Sweep
	sw.Horizon = 6 * sim.Second
	sw.Warmup = 2 * sim.Second
	spec.Sweep = &sw
	u := Unit{Experiment: sweepCheckExp, Algorithm: "ewtcp", Scenario: "twopath-asym@0", Seed: 1}
	out, err := execSweepUnit(ctx, u, t.TempDir(), spec, nil)
	if err != nil {
		t.Fatalf("cancelled unit returned error %v, want Interrupted output", err)
	}
	if !out.Interrupted {
		t.Error("cancelled unit not marked Interrupted")
	}
}

func TestSweepUnitRejectsForeignUnit(t *testing.T) {
	spec := sweepSpec()
	if _, err := execSweepUnit(context.Background(), Unit{Experiment: "fig1"}, t.TempDir(), spec, nil); err == nil {
		t.Error("non-sweep unit accepted by the sweep executor")
	}
	if _, err := execSweepUnit(context.Background(), Unit{Experiment: sweepFluidExp}, t.TempDir(), Spec{}, nil); err == nil {
		t.Error("sweep unit accepted by a spec with no sweep")
	}
}
