// Package exp reproduces the paper's evaluation: one runner per figure,
// each declaring its worlds as backend.Scenarios, taking every one through
// the one run sequence (backend.Run, by way of Config.run) and reporting the
// same rows/series the paper plots. How a Scenario becomes a wired, observed,
// settled simulation is internal/backend's business (ARCHITECTURE.md, "How a
// run is assembled").
//
// A figure is one grid of cells × repetitions. runPar fans it over
// supervise.Map, handing each run its cell and its repetition's seed, and
// returns each cell's finished outcomes; means averages them. Config.run
// adds each finished run's events and offered flows to the figure's
// Result. A run that fails under a supervisor is noted, listed in
// Result.Failures and contributes nothing: a cell with no finished
// repetition has no row, and a column relative to a baseline cell that has
// no row prints "-".
//
// Runners accept a Scale knob so the test suite and benchmarks can run
// reduced versions (fewer users, shorter horizons) while cmd/mptcp-bench
// -full reproduces the published parameters. Absolute joules depend on the
// calibrated power models; the comparisons — which algorithm wins and by
// roughly what factor — are the reproduction target (see EXPERIMENTS.md).
package exp

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed int64
	// Scale in (0, 1] shrinks user counts, transfer sizes and horizons;
	// 1.0 is the published configuration.
	Scale float64
	// Reps overrides the repetition count where the paper averages
	// several runs (0 keeps the experiment's scaled default).
	Reps int
	// Workers sizes the run pool: independent simulation runs within a
	// figure execute concurrently, each on its own engine. 0 means one
	// worker per CPU; 1 reproduces the historical sequential execution.
	// Output tables are byte-identical for every value (seeds derive from
	// run identity, results collect by submission index).
	Workers int
	// Algorithm and Scenario restrict a figure to one value of its
	// declared axis (Experiment.Algorithms / Experiment.Scenarios); empty
	// runs the full grid. Figures that declare an axis derive every run's
	// identity — seed, topology, record name — from the axis value alone,
	// never from grid position, so a filtered run's rows and records are
	// byte-identical to the same slice of an unfiltered run. Figures
	// without a declared axis ignore the filter. Campaigns use this to
	// schedule within-figure slices as independent resumable units.
	Algorithm string
	Scenario  string
	// OutDir, when set, writes one run record per (algorithm, scenario,
	// seed) under it: <exp>_<alg>_<scenario>_seed<N>.jsonl plus a matching
	// .csv (see internal/obsv). Record contents derive only from each run's
	// own engine, so they are byte-identical for every Workers value.
	OutDir string
	// SampleInterval is the record sampling period (0 takes
	// obsv.DefaultInterval).
	SampleInterval sim.Time
	// Check runs the internal/check invariant checker on every run,
	// panicking at the first violation (surfaced by the worker pool with
	// the failing run's identity). The test suite and CI keep it on; it is
	// exposed as -check on cmd/mptcp-bench.
	Check bool
	// Sup, when set, supervises every pool run: panics and invariant trips
	// are quarantined (the failing run is dropped, noted on the Result and
	// listed in Result.Failures) instead of aborting the whole experiment,
	// and the supervisor's Budget bounds each run's wall clock and event
	// count. Nil is fail-fast: the first panic by run index propagates to
	// the caller.
	Sup *supervise.Supervisor
	// Ctx, when set, lets the caller stop a figure mid-flight: once it is
	// cancelled the pool dispatches no further runs, in-flight runs drain
	// to completion (their records flush normally), and every skipped run
	// drops its row with a note and marks the Result Interrupted. Nil runs
	// to completion (context.Background).
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// runPar fans one figure's grid — cells × reps independent runs — over
// supervise.Map under cfg.Sup and hands each closure its cell index and its
// repetition's seed, cfg.Seed+rep: run i = cell*reps+rep, so a seed derives
// from the repetition alone, never from the cell or the worker. Closures
// must not share engines or any mutable state, and must attach the given
// watchdog to the engine they build (Attach is nil-safe, so the
// unsupervised path passes wd = nil).
//
// It returns, per cell, the outcomes of the repetitions that finished, in
// repetition order. A failed or skipped run contributes nothing — not a
// zero to a mean, not a row — so a cell none of whose runs finished is
// empty and renders no row.
//
// With cfg.Sup set, each run is supervised under its own seed: a failed run
// leaves a note on res and its RunError in res.Failures, both in run-index
// order regardless of Workers. With cfg.Sup nil, the first panic by index
// is re-raised with its own value — the fail-fast contract the test suite
// relies on.
//
// With cfg.Ctx cancelled, runs the pool never started are skipped: each is
// noted and the Result is marked Interrupted, so a campaign knows the table
// is partial and must not checkpoint it.
func runPar[T any](cfg Config, res *Result, cells, reps int, fn func(cell int, seed int64, wd *supervise.Watchdog) T) [][]T {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	seed := func(i int) int64 { return cfg.Seed + int64(i%reps) }
	out, reports := supervise.Map(ctx, cfg.Sup, cfg.Workers, cells*reps,
		func(i int) supervise.RunID {
			return supervise.RunID{Seed: seed(i), Scenario: fmt.Sprintf("%s[%d]", res.ID, i), Phase: res.ID}
		},
		func(i int, wd *supervise.Watchdog) (T, error) { return fn(i/reps, seed(i), wd), nil })
	grid := make([][]T, cells)
	for i, rep := range reports {
		switch {
		case rep.Outcome == supervise.Skipped:
			res.Interrupted = true
			res.Notes = append(res.Notes, fmt.Sprintf("run %s[%d] skipped: interrupted before start", res.ID, i))
		case rep.Outcome.Failed():
			res.Notes = append(res.Notes, fmt.Sprintf("run %s[%d] %s: %s", res.ID, i, rep.Outcome, rep.Err.Msg))
			res.Failures = append(res.Failures, *rep.Err)
		default:
			grid[i/reps] = append(grid[i/reps], out[i])
		}
	}
	return grid
}

// means yields, in cell order, every cell of a grid that has a finished
// repetition, with the mean of its outcomes: summed in repetition order —
// the order every printed digit was produced under — and divided by the
// number that finished. A cell with none is passed over: it has no row.
func means(grid [][][4]float64) iter.Seq2[int, [4]float64] {
	return func(yield func(int, [4]float64) bool) {
		for c, outs := range grid {
			if len(outs) == 0 {
				continue
			}
			var m [4]float64
			for _, o := range outs {
				for k, v := range o {
					m[k] += v
				}
			}
			for k := range m {
				m[k] /= float64(len(outs))
			}
			if !yield(c, m) {
				return
			}
		}
	}
}

// relPct renders v's relative change from base[key] times scale (100 for
// a change in percent, -100 for a saving), or "-" when the baseline cell
// has no row.
func relPct(base map[string]float64, key string, v, scale float64) string {
	b, ok := base[key]
	if !ok {
		return "-"
	}
	r := stats.RelChange(b, v) * scale
	if r == 0 {
		r = 0 // a baseline against itself is 0 * -100, which would print "-0.0"
	}
	return fmtF(r, 1)
}

// scaled returns n scaled down, never below min.
func (c Config) scaled(n int, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// scaledTime shrinks a duration, never below min.
func (c Config) scaledTime(d, min sim.Time) sim.Time {
	v := sim.Time(float64(d) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// scaledBytes shrinks a transfer size, never below min.
func (c Config) scaledBytes(b, min int64) int64 {
	v := int64(float64(b) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// reps returns the repetition count.
func (c Config) reps(def int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	r := int(float64(def) * c.Scale)
	if r < 1 {
		r = 1
	}
	return r
}

// Result is a rendered experiment outcome.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the paper's expected qualitative outcome and any scale
	// substitutions, for EXPERIMENTS.md.
	Notes []string
	// Events counts the simulation events processed across every finished
	// run of the experiment; cmd/mptcp-bench reports it (with wall-clock)
	// in the BENCH JSON. It is not part of the rendered table.
	Events uint64
	// Flows counts the workload flows the experiment's finished runs
	// offered, for the population-scale runs; cmd/mptcp-bench derives a
	// flows/sec figure from it. Zero for figures without a flow population.
	Flows uint64
	// mu guards Events and Flows, which Config.run adds to as the figure's
	// runs finish on the pool.
	mu sync.Mutex
	// Failures holds the RunError of every run the supervisor failed, in
	// run-index order; cmd/mptcp-bench lists them in its -json report.
	Failures []supervise.RunError
	// Interrupted reports that Config.Ctx was cancelled before every run
	// of the figure was dispatched: the table is missing rows (each noted)
	// and must not be treated as the figure's deterministic output —
	// campaigns re-run interrupted units instead of checkpointing them.
	Interrupted bool
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment couples a figure ID with its runner and its splittable axes.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Result

	// Algorithms and Scenarios declare the figure's independently runnable
	// axis values: the runner honors Config.Algorithm/Config.Scenario
	// filters over them, and every run derives its identity from the axis
	// value rather than its grid position. Empty means the axis cannot be
	// split (the figure either has no such axis or couples runs across it,
	// like fig17's rows computed relative to the lia baseline).
	Algorithms []string
	Scenarios  []string
}

// filterAxis returns the axis values a filter selects: all of them when the
// filter is empty, the single matching value otherwise, and none when the
// filter names a value the figure does not have.
func filterAxis(values []string, filter string) []string {
	if filter == "" {
		return values
	}
	for _, v := range values {
		if v == filter {
			return []string{v}
		}
	}
	return nil
}

var experiments = []Experiment{
	{ID: "fig1", Title: "CPU power vs number of subflows (TCP vs MPTCP)", Run: Fig1},
	{ID: "fig2", Title: "Nexus 5 power in data transfers (TCP vs MPTCP)", Run: Fig2},
	{ID: "fig3a", Title: "Energy & power vs throughput, wired Ethernet", Run: Fig3a},
	{ID: "fig3b", Title: "Energy & power vs throughput, WiFi", Run: Fig3b},
	{ID: "fig4", Title: "CPU power vs path delay", Run: Fig4},
	{ID: "fig6", Title: "Energy of LIA/OLIA/Balia/ecMTCP with N users (box)", Run: Fig6, Algorithms: fig6Algorithms},
	{ID: "fig7", Title: "Traffic shifting under bursty cross traffic", Run: Fig7},
	{ID: "fig8", Title: "Trace of LIA vs modified LIA (DTS)", Run: Fig8},
	{ID: "fig9", Title: "DTS energy saving vs LIA", Run: Fig9},
	{ID: "fig10", Title: "EC2 VPC: TCP vs DCTCP vs LIA vs DTS", Run: Fig10},
	{ID: "fig12", Title: "Energy overhead of LIA vs subflows, BCube", Run: Fig12},
	{ID: "fig13", Title: "Energy overhead of LIA vs subflows, FatTree", Run: Fig13},
	{ID: "fig14", Title: "Energy overhead of LIA vs subflows, VL2", Run: Fig14},
	{ID: "fig15", Title: "Extended DTS energy saving in FatTree/VL2", Run: Fig15},
	{ID: "fig16", Title: "Aggregated throughput of DTS vs LIA in FatTree/VL2", Run: Fig16},
	{ID: "fig17", Title: "Heterogeneous wireless: DTS/DTS-EP vs LIA", Run: Fig17},
	{ID: "faults", Title: "Robustness: path outage, flapping and WiFi handover", Run: FigFaults, Algorithms: faultsAlgorithms, Scenarios: faultsScenarios},
	{ID: "churn", Title: "Population churn: open-loop arrivals on FatTree, per-flow FCT/energy", Run: FigChurn, Algorithms: churnAlgorithms, Scenarios: churnScenarios},
	{ID: "abl-c", Title: "Ablation: DTS constant c", Run: AblationC},
	{ID: "abl-kappa", Title: "Ablation: Eq. 9 price weight kappa", Run: AblationKappa},
	{ID: "abl-hystart", Title: "Ablation: slow-start delay guard", Run: AblationHystart},
	{ID: "abl-pathsel", Title: "Ablation: congestion control vs path selection", Run: AblationPathsel},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns the experiments in figure order.
func All() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
