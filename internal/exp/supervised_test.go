package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// buildWithInjectedFailure runs a 3-cell × 3-repetition grid of short
// twopath simulations through Config.run under a supervisor, at the given
// worker count. Each run's outcome is its cell, its repetition (from the
// seed runPar hands it), the events it processed and its goodput. With
// fail set, cell 1's repetition 1 — run index 4 — panics mid-run, after
// its engine has processed events.
func buildWithInjectedFailure(workers int, fail bool) (*Result, [][][4]float64, *supervise.Supervisor) {
	sup := supervise.New(supervise.Budget{})
	cfg := Config{Seed: 7, Workers: workers, Sup: sup}.withDefaults()
	res := &Result{ID: "inject-test"}
	grid := runPar(cfg, res, 3, 3, func(cell int, seed int64, wd *supervise.Watchdog) [4]float64 {
		rep := seed - cfg.Seed
		w := cfg.run(wd, world{
			res: res, scenario: fmt.Sprintf("cell%d", cell),
			sc: backend.Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "none",
				Seed: seed, Horizon: sim.Time(100+50*cell) * sim.Millisecond},
			Stages: backend.Stages{Attach: func(w *backend.World, obs *obsv.Observer) {
				w.Observe(obs)
				if fail && cell == 1 && rep == 1 {
					w.Eng.At(60*sim.Millisecond, func() { panic("injected failure at index 4") })
				}
			}},
		})
		return [4]float64{float64(cell), float64(rep), float64(w.Eng.Processed()), w.Conn.MeanThroughputBps()}
	})
	return res, grid, sup
}

// TestRunParQuarantineDeterministicAcrossWorkers pins the grid fan-out
// under a supervisor: with one repetition of one cell failing, that cell's
// mean is the mean of its two finished repetitions, the other cells are
// untouched, Events leaves out the failed run, the failure is noted once
// and reported under the run's own seed, and j=1 and j=8 agree on every
// outcome, note and count.
func TestRunParQuarantineDeterministicAcrossWorkers(t *testing.T) {
	clean, cleanGrid, _ := buildWithInjectedFailure(2, false)
	seq, seqGrid, seqSup := buildWithInjectedFailure(1, true)
	par, parGrid, parSup := buildWithInjectedFailure(8, true)

	var cleanEvents float64
	for c, outs := range cleanGrid {
		if len(outs) != 3 {
			t.Fatalf("clean grid: cell %d kept %d repetitions, want 3", c, len(outs))
		}
		for rep, o := range outs {
			if o[0] != float64(c) || o[1] != float64(rep) {
				t.Fatalf("clean grid: cell %d slot %d holds cell %v rep %v", c, rep, o[0], o[1])
			}
			cleanEvents += o[2]
		}
	}
	if clean.Events == 0 || float64(clean.Events) != cleanEvents {
		t.Fatalf("clean Events = %d, runs processed %.0f", clean.Events, cleanEvents)
	}
	if len(clean.Notes) != 0 {
		t.Fatalf("clean grid left notes: %v", clean.Notes)
	}

	if !reflect.DeepEqual(seqGrid, parGrid) {
		t.Fatalf("outcomes differ across worker counts:\nj=1: %v\nj=8: %v", seqGrid, parGrid)
	}
	if !reflect.DeepEqual(seq.Notes, par.Notes) || seq.Events != par.Events {
		t.Fatalf("notes or events differ across worker counts:\nj=1: %v %d\nj=8: %v %d",
			seq.Notes, seq.Events, par.Notes, par.Events)
	}
	for _, c := range []int{0, 2} {
		if !reflect.DeepEqual(seqGrid[c], cleanGrid[c]) {
			t.Fatalf("cell %d moved: %v, want %v", c, seqGrid[c], cleanGrid[c])
		}
	}
	if want := [][4]float64{cleanGrid[1][0], cleanGrid[1][2]}; !reflect.DeepEqual(seqGrid[1], want) {
		t.Fatalf("cell 1 kept %v, want its repetitions 0 and 2: %v", seqGrid[1], want)
	}
	var got [][4]float64
	for c, m := range means(seqGrid) {
		if c != len(got) {
			t.Fatalf("means skipped to cell %d", c)
		}
		got = append(got, m)
	}
	a, b := cleanGrid[1][0], cleanGrid[1][2]
	if want := [4]float64{1, 1, (a[2] + b[2]) / 2, (a[3] + b[3]) / 2}; got[1] != want {
		t.Fatalf("cell 1 mean = %v, want the mean of its finished repetitions %v", got[1], want)
	}
	if want := clean.Events - uint64(cleanGrid[1][1][2]); seq.Events != want {
		t.Fatalf("Events = %d, want %d: the failed run's events must not count", seq.Events, want)
	}
	if len(seq.Notes) != 1 || !strings.Contains(seq.Notes[0], "inject-test[4]") {
		t.Fatalf("notes = %v, want one note naming index 4", seq.Notes)
	}
	for _, sup := range []*supervise.Supervisor{seqSup, parSup} {
		if c := sup.Counts(); c.OK != 8 || c.Quarantined != 1 {
			t.Fatalf("supervisor counts = %v, want ok=8 quarantined=1", c)
		}
	}
	for _, res := range []*Result{seq, par} {
		if f := res.Failures; len(f) != 1 || f[0].ID.Seed != 8 || f[0].ID.Scenario != "inject-test[4]" {
			t.Fatalf("failures = %v, want one naming run 4 under its own seed 8", f)
		}
	}
}

// TestSupervisedFigureSurvivesBudgetTrip runs a real (tiny) figure under a
// supervisor whose event budget no run can satisfy: every run must be
// quarantined as over-budget, the figure must return a table instead of
// panicking, and the notes must say what happened.
func TestSupervisedFigureSurvivesBudgetTrip(t *testing.T) {
	sup := supervise.New(supervise.Budget{Events: 50})
	cfg := Config{Seed: 1, Scale: 0.02, Workers: 2, Sup: sup}
	res := Fig1(cfg)
	if len(res.Rows) != 0 {
		t.Fatalf("all runs were over budget, but %d rows survived", len(res.Rows))
	}
	c := sup.Counts()
	if c.OverBudget == 0 || c.OK != 0 {
		t.Fatalf("counts = %v, want every run over-budget", c)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "over-budget") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes carry no over-budget entry: %v", res.Notes)
	}
}

// TestSupervisedFiguresRenderNoFailedRun runs figures that average
// repetitions (fig9, faults) and one with a relative column over single
// runs (fig10) under a budget no run can meet: a run that did not finish
// must not render as data — no row, no NaN or Inf anywhere in the table,
// one note per run, and no events counted.
func TestSupervisedFiguresRenderNoFailedRun(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "faults"} {
		e, _ := Lookup(id)
		sup := supervise.New(supervise.Budget{Events: 1})
		res := e.Run(Config{Seed: 1, Scale: 0.05, Reps: 1, Workers: 2, Sup: sup})
		out := res.String()
		if len(res.Rows) != 0 {
			t.Errorf("%s: every run was over budget, but %d rows rendered:\n%s", id, len(res.Rows), out)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s: table carries NaN or Inf:\n%s", id, out)
		}
		c := sup.Counts()
		var runNotes int64
		for _, n := range res.Notes {
			if strings.HasPrefix(n, "run "+id+"[") && strings.Contains(n, "over-budget") {
				runNotes++
			}
		}
		if c.OK != 0 || c.OverBudget == 0 || runNotes != c.OverBudget {
			t.Errorf("%s: counts %v, %d over-budget notes; want every run over budget, one note each", id, c, runNotes)
		}
		if res.Events != 0 {
			t.Errorf("%s: Events = %d from runs that all failed", id, res.Events)
		}
	}
}

// TestFailedBaselineCellPrintsDash fails only Fig. 17's baseline cell (lia):
// a directory squats on its record path, so its observer cannot open the
// record and the supervisor quarantines the run. The other cells keep their
// absolute columns exactly, and every column relative to lia prints "-".
func TestFailedBaselineCellPrintsDash(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.05, Reps: 1, Workers: 2}
	clean := Fig17(cfg)

	cfg.OutDir = t.TempDir()
	if err := os.Mkdir(filepath.Join(cfg.OutDir, "fig17_lia_hetwireless_seed1.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg.Sup = supervise.New(supervise.Budget{})
	res := Fig17(cfg)

	if len(res.Rows) != len(clean.Rows)-1 || res.Rows[0][0] == "lia" {
		t.Fatalf("want every row but lia's:\n%s", res)
	}
	if c := cfg.Sup.Counts(); c.Quarantined != 1 || c.OK != int64(len(clean.Rows)-1) {
		t.Fatalf("counts = %v, want the lia run alone quarantined", c)
	}
	for i, row := range res.Rows {
		want := clean.Rows[i+1]
		if !reflect.DeepEqual(row[:3], want[:3]) {
			t.Errorf("%s absolute columns moved: %v, want %v", row[0], row[:3], want[:3])
		}
		if row[3] != "-" || row[4] != "-" {
			t.Errorf("%s relative columns = %q %q without a lia row, want -", row[0], row[3], row[4])
		}
	}
}
