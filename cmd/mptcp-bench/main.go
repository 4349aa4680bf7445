// Command mptcp-bench runs the paper-reproduction experiments and prints
// the rows each figure plots.
//
//	mptcp-bench [-exp figN[,figM...]] [-scale 0.3] [-seed 1] [-reps 0] [-full] [-j 8]
//	mptcp-bench -sweep [-backend hybrid] [-topos a,b] [-algs x,y] [-loads 0:0.15:28] [-spot-check 0.05] [-tol 0.10]
//	mptcp-bench -campaign DIR [-exp ...] [-sweep ...] [-seeds 1,2,3] [-scale ...] [-records] [-shard i/n]
//	mptcp-bench -resume DIR [-j 8] [-shard i/n]
//
// One invocation runs one mode: -list prints the experiment IDs, -validate
// the fluid-model conformance suite (CI diffs it against
// internal/backend/testdata/conformance_golden.txt; a non-OK row exits 1),
// -campaign/-resume a checkpointed campaign, -sweep a backend sweep, and
// otherwise the figures. A flag of one mode without it is a usage error
// (exit 1): the -sweep axes need -sweep, -seeds/-shard/-records need
// -campaign or -resume, and -campaign excludes -resume.
//
// Figures: -full is -scale 1 (the published parameters); -j runs that many
// simulations at once (tables are identical for any value); -markdown
// fences each table for EXPERIMENTS.md; -cpuprofile/-memprofile write pprof
// profiles; -json writes per-experiment wall clock and events to
// BENCH_<timestamp>.json; -out DIR exports a JSONL + CSV run record
// (internal/obsv) per run, sampled every -sample-interval of simulated
// time; -check runs the internal/check invariants on every run. A run that
// panics, fails an invariant or exceeds -timeout is quarantined by
// internal/supervise — left out of its row's mean (a row with no finished
// run is dropped), identity noted on the table and in the -json report —
// and the invocation exits 3.
//
// -sweep solves a (topology × algorithm × load) grid on the -backend of
// docs/backends.md: fluid, packet, or hybrid (the default), which re-runs a
// seed-derived -spot-check fraction on the packet engine and exits 3 when a
// share disagrees by more than -tol.
//
// -campaign journals the experiments × -seeds (and a -sweep's grid; without
// an explicit -exp, only that) as units under DIR; -resume DIR re-runs only
// unfinished ones, and the merged results.txt / campaign.json match an
// uninterrupted run byte for byte (EXPERIMENTS.md, "Resumable campaigns").
// -shard i/n runs one slice of the manifest; -records exports run records.
//
// SIGINT/SIGTERM drain in-flight runs, flush writers and the journal, and
// exit 4 (supervise.ExitInterrupted); a second signal kills.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/exp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

func main() {
	ctx, stop := supervise.SignalContext()
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mptcp-bench:", err)
		os.Exit(supervise.ExitCode(err))
	}
}

// benchReport is the -json document. Meta is volatile — clocks, versions,
// machine facts, whether a signal cut the suite — and diff tooling ignores
// it; Payload derives from (scale, seed, reps, experiment set) alone, so
// `jq .payload` is byte-identical across reruns at any -j. Flows counts a
// churn experiment's offered flows; Quarantined names each failed run, in
// experiment and then run-index order.
type benchReport struct {
	Meta    benchMeta    `json:"meta"`
	Payload benchPayload `json:"payload"`
}

type benchMeta struct {
	Timestamp    string        `json:"timestamp"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Workers      int           `json:"workers"`
	TotalWallSec float64       `json:"total_wall_seconds"`
	Timings      []benchTiming `json:"timings"`
	Interrupted  bool          `json:"interrupted,omitempty"`
}

type benchTiming struct {
	Experiment   string  `json:"experiment"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	FlowsPerSec  float64 `json:"flows_per_sec,omitempty"`
}

type benchPayload struct {
	Scale       float64          `json:"scale"`
	Seed        int64            `json:"seed"`
	Reps        int              `json:"reps"`
	Experiments []benchRecord    `json:"experiments"`
	TotalEvents uint64           `json:"total_events"`
	Outcomes    supervise.Counts `json:"outcomes"`
	Quarantined []string         `json:"quarantined,omitempty"`
}

type benchRecord struct {
	Experiment string `json:"experiment"`
	Events     uint64 `json:"events"`
	Flows      uint64 `json:"flows,omitempty"`
}

// mode is what one invocation does: the first of -list, -validate,
// -campaign/-resume and -sweep that is set, else the figures.
type mode int

const (
	figures mode = iota
	list
	validate
	sweep
	campaignMode
)

// needs names the flags only one mode reads and the flags that select that
// mode: parse rejects any of them set without one of its selectors.
var needs = []struct{ flags, selectors []string }{
	{[]string{"backend", "topos", "algs", "loads", "spot-check", "tol"}, []string{"sweep"}},
	{[]string{"seeds", "shard", "records"}, []string{"campaign", "resume"}},
}

// invocation is one parsed command line: its mode and everything that mode
// reads. cfg is the figures' exp.Config, supervisor included, and carries
// the -seed that -validate reads too.
type invocation struct {
	mode                   mode
	cfg                    exp.Config
	experiments            []exp.Experiment
	markdown, jsonOut      bool
	cpuprofile, memprofile string
	sweep                  backend.SweepSpec
	// A campaign starts in dir from spec, or with resume continues there.
	dir    string
	resume bool
	spec   campaign.Spec
	opt    campaign.Options
}

// parse turns the command line into an invocation. Every flag misuse is
// rejected here: a mode's flag without the mode, -campaign with -resume, and
// a malformed value or unknown experiment.
func parse(args []string) (invocation, error) {
	fs := flag.NewFlagSet("mptcp-bench", flag.ContinueOnError)
	var (
		expFlag     = fs.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
		scale       = fs.Float64("scale", 0.25, "scale factor in (0,1]: users, sizes and horizons")
		seed        = fs.Int64("seed", 1, "random seed")
		reps        = fs.Int("reps", 0, "override repetition count (0 = scaled default)")
		full        = fs.Bool("full", false, "run at the published scale (same as -scale 1)")
		listFlag    = fs.Bool("list", false, "list experiment IDs and exit")
		markdown    = fs.Bool("markdown", false, "wrap each table in a fenced block for EXPERIMENTS.md")
		workers     = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation runs (results are identical for any value)")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		jsonOut     = fs.Bool("json", false, "write per-experiment timing and event counts to BENCH_<timestamp>.json")
		outDir      = fs.String("out", "", "write one JSONL+CSV run record per (algorithm, scenario, seed) to this directory")
		sampleInt   = fs.Duration("sample-interval", 0, "run-record sampling period in simulated time (0 = 100ms)")
		checkInv    = fs.Bool("check", false, "run the invariant checker on every simulation run (violations quarantine the run)")
		validateF   = fs.Bool("validate", false, "run the fluid-vs-packet conformance suite instead of experiments")
		timeout     = fs.Duration("timeout", 0, "per-run wall-clock deadline enforced by the run supervisor (0 = none)")
		campaignDir = fs.String("campaign", "", "start (or continue) a checkpointed campaign in this directory")
		resumeDir   = fs.String("resume", "", "resume an interrupted campaign from this directory (spec comes from its manifest)")
		seedsFlag   = fs.String("seeds", "", "campaign seed list, comma-separated (campaign mode only; default: -seed)")
		shardFlag   = fs.String("shard", "", "run only this slice of the campaign, as i/n (campaign mode only)")
		records     = fs.Bool("records", false, "export obsv run records under each campaign unit directory (campaign mode only)")
		sweepFlag   = fs.Bool("sweep", false, "run a (topology × algorithm × load) backend sweep instead of the figure experiments")
		backendName = fs.String("backend", "hybrid", "sweep engine mix: packet, fluid, or hybrid (fluid + packet spot checks)")
		toposFlag   = fs.String("topos", "", "sweep topologies, comma-separated (default: all registered)")
		algsFlag    = fs.String("algs", "", "sweep algorithms, comma-separated (default: the calibrated sweep set)")
		loadsFlag   = fs.String("loads", "", "sweep cross-load axis: lo:hi:n or a comma-separated list (default 0,0.05,0.1,0.15)")
		spotCheck   = fs.Float64("spot-check", 0.05, "fraction of hybrid sweep points re-run on the packet engine (negative disables)")
		tol         = fs.Float64("tol", 0.10, "maximum fluid-vs-packet share disagreement a spot check accepts")
	)
	if err := fs.Parse(args); err != nil {
		return invocation{}, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, n := range needs {
		for _, name := range n.flags {
			if set[name] && !slices.ContainsFunc(n.selectors, func(sel string) bool { return set[sel] }) {
				return invocation{}, fmt.Errorf("-%s requires -%s", name, strings.Join(n.selectors, " or -"))
			}
		}
	}
	if set["campaign"] && set["resume"] {
		return invocation{}, fmt.Errorf("-campaign and -resume are mutually exclusive")
	}
	if *full {
		*scale = 1
	}
	inv := invocation{
		cfg: exp.Config{
			Seed: *seed, Scale: *scale, Reps: *reps, Workers: *workers,
			OutDir: *outDir, SampleInterval: sim.Time(*sampleInt), Check: *checkInv,
			Sup: supervise.New(supervise.Budget{Wall: *timeout}),
		},
		markdown: *markdown, jsonOut: *jsonOut, cpuprofile: *cpuprofile, memprofile: *memprofile,
		spec: campaign.Spec{Seeds: []int64{*seed}, Scale: *scale, Reps: *reps, Records: *records, Check: *checkInv},
		opt: campaign.Options{
			Workers: *workers, Timeout: *timeout, SyncEvery: campaign.DefaultSyncEvery, SampleInterval: sim.Time(*sampleInt),
			Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...) },
		},
	}
	var err error
	if inv.opt.Shard, err = parseShard(*shardFlag); err != nil {
		return invocation{}, err
	}
	if *seedsFlag != "" {
		if inv.spec.Seeds, err = parseList(*seedsFlag, "seeds", func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) }); err != nil {
			return invocation{}, err
		}
	}
	if *sweepFlag {
		sw, err := sweepSpecFromFlags(*backendName, *toposFlag, *algsFlag, *loadsFlag, *spotCheck, *tol)
		if err != nil {
			return invocation{}, err
		}
		inv.sweep, inv.spec.Sweep = sw, &sw
	}
	switch {
	case *listFlag:
		inv.mode = list
	case *validateF:
		inv.mode = validate
	case *campaignDir != "" || *resumeDir != "":
		inv.mode, inv.dir, inv.resume = campaignMode, *campaignDir+*resumeDir, *resumeDir != ""
		switch {
		case *sweepFlag && !set["exp"]:
			// -sweep -campaign without an explicit -exp is a sweep-only
			// campaign; "all" is only the default for figure campaigns.
		case *expFlag == "all":
			inv.spec.Experiments = exp.IDs()
		default:
			inv.spec.Experiments = splitList(*expFlag)
		}
	case *sweepFlag:
		inv.mode = sweep
		inv.sweep.Seed, inv.sweep.Workers = *seed, *workers
	case *expFlag == "all":
		inv.experiments = exp.All()
	default:
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := exp.Lookup(strings.TrimSpace(id))
			if !ok {
				return invocation{}, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(exp.IDs(), ", "))
			}
			inv.experiments = append(inv.experiments, e)
		}
	}
	return inv, nil
}

func run(ctx context.Context, args []string) error {
	inv, err := parse(args)
	if err != nil {
		return err
	}
	out, err := execute(ctx, inv)
	if err != nil {
		return err
	}
	return out.report(inv)
}

// outcome is what execute produced for report to print: for the figures,
// the completed Results, the -json report and the experiment a signal cut.
type outcome struct {
	conformance *backend.Conformance
	sweep       *backend.SweepResult
	campaign    *campaign.Summary
	results     []*exp.Result
	bench       benchReport
	cut         string
}

// execute runs the invocation's mode and prints nothing. Its error is a
// hard failure; a finished run that went wrong is report's to judge.
func execute(ctx context.Context, inv invocation) (out outcome, err error) {
	switch inv.mode {
	case validate:
		if out.conformance, err = backend.RunConformance(backend.Scenario{Seed: inv.cfg.Seed}); err != nil {
			err = fmt.Errorf("conformance: %w", err)
		}
	case sweep:
		if out.sweep, err = backend.Sweep(ctx, inv.sweep); err != nil && ctx.Err() != nil {
			err = supervise.InterruptedErr("interrupted by signal before the sweep finished")
		}
	case campaignMode:
		if inv.resume {
			out.campaign, err = campaign.Resume(ctx, inv.dir, inv.opt)
		} else {
			out.campaign, err = campaign.Start(ctx, inv.dir, inv.spec, inv.opt)
		}
	case figures:
		err = out.runFigures(ctx, inv)
	}
	return out, err
}

// runFigures runs the selected experiments in order under the invocation's
// supervisor, profiling the suite when asked, and fills the -json report. A
// signal stops it between experiments; a figure it cut is not a result.
func (out *outcome) runFigures(ctx context.Context, inv invocation) error {
	cfg := inv.cfg
	cfg.Ctx = ctx
	if inv.cpuprofile != "" {
		f, err := os.Create(inv.cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	b, suiteStart := &out.bench, time.Now()
	b.Meta = benchMeta{Timestamp: suiteStart.UTC().Format(time.RFC3339), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.Workers}
	b.Payload = benchPayload{Scale: cfg.Scale, Seed: cfg.Seed, Reps: cfg.Reps}
	for _, e := range inv.experiments {
		if ctx.Err() != nil {
			b.Meta.Interrupted = true
			break
		}
		start := time.Now()
		res := e.Run(cfg)
		wall := time.Since(start).Seconds()
		for _, f := range res.Failures {
			b.Payload.Quarantined = append(b.Payload.Quarantined, fmt.Sprintf("%s: %s: %s", f.ID, f.Kind, f.Msg))
		}
		if res.Interrupted {
			b.Meta.Interrupted, out.cut = true, e.ID
			break
		}
		t := benchTiming{Experiment: e.ID, WallSeconds: wall}
		if wall > 0 {
			t.EventsPerSec = float64(res.Events) / wall
			t.FlowsPerSec = float64(res.Flows) / wall
		}
		out.results = append(out.results, res)
		b.Meta.Timings = append(b.Meta.Timings, t)
		b.Payload.Experiments = append(b.Payload.Experiments, benchRecord{Experiment: e.ID, Events: res.Events, Flows: res.Flows})
		b.Payload.TotalEvents += res.Events
	}
	b.Meta.TotalWallSec = time.Since(suiteStart).Seconds()
	b.Payload.Outcomes = cfg.Sup.Counts()
	if inv.memprofile != "" {
		f, err := os.Create(inv.memprofile)
		if err == nil {
			defer f.Close()
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
		}
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// report prints what execute produced — the one place this command writes
// its results, the -json report included — and returns the error whose
// supervise.ExitCode is the process's: 3 when the tables are valid but
// partial (a quarantined run or unit) or a spot check disagrees, 4 when a
// signal cut the invocation and the output covers what completed.
func (out outcome) report(inv invocation) error {
	switch inv.mode {
	case list:
		for _, e := range exp.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
	case validate:
		fmt.Print(out.conformance.Format())
		if !out.conformance.OK() {
			return fmt.Errorf("conformance: packet-level behaviour disagrees with the fluid model (see rows above)")
		}
	case sweep:
		res := out.sweep
		fmt.Print(res.Format())
		if !res.OK() { // the table is complete, but not the fluid answers at these points
			return supervise.QuarantinedErr("fluid/packet disagreement at %d of %d checked points: %s",
				len(res.Disagreements), res.Checked, strings.Join(res.Disagreements, "; "))
		}
	case campaignMode:
		sum := out.campaign
		fmt.Fprintf(os.Stderr, "campaign: %d units (%d reused, %d ran, %d quarantined, %d pending); supervised runs: %s\n",
			sum.Total, sum.Reused, sum.Ran, sum.Quarantined, sum.Pending, sum.Counts)
		if sum.Merged {
			results, err := os.ReadFile(filepath.Join(inv.dir, "results.txt"))
			if err != nil {
				return err
			}
			os.Stdout.Write(results)
			fmt.Fprintf(os.Stderr, "campaign: merged %s and %s\n",
				filepath.Join(inv.dir, "results.txt"), filepath.Join(inv.dir, "campaign.json"))
		}
		if sum.Interrupted {
			return supervise.InterruptedErr("interrupted; continue with -resume %s", inv.dir)
		}
		if !sum.Merged {
			fmt.Fprintln(os.Stderr, "campaign: other shards still pending; the last shard to finish merges")
		}
		if sum.Quarantined > 0 {
			return supervise.QuarantinedErr("%d of %d units quarantined (see results)", sum.Quarantined, sum.Total)
		}
	case figures:
		return out.reportFigures(inv)
	}
	return nil
}

// reportFigures prints every completed experiment's table and the
// supervised outcomes, and with -json writes the BENCH report.
func (out outcome) reportFigures(inv invocation) error {
	b := out.bench
	for i, res := range out.results {
		if e := inv.experiments[i]; inv.markdown {
			fmt.Printf("### %s — %s\n\n```\n%s```\n\n", res.ID, e.Title, res)
		} else {
			fmt.Println(res)
			fmt.Printf("(%s took %.1fs)\n\n", e.ID, b.Meta.Timings[i].WallSeconds)
		}
	}
	if out.cut != "" {
		fmt.Fprintf(os.Stderr, "interrupted during %s; its rows are discarded\n", out.cut)
	}
	counts := b.Payload.Outcomes
	fmt.Printf("outcomes: %s\n", counts)
	if inv.jsonOut {
		name := fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
		data, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(name, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, %.1fs, %d events)\n",
			name, len(b.Payload.Experiments), b.Meta.TotalWallSec, b.Payload.TotalEvents)
	}
	if b.Meta.Interrupted {
		return supervise.InterruptedErr("interrupted by signal; completed experiments were flushed")
	}
	if counts.Failed() > 0 {
		return supervise.QuarantinedErr("%d of %d supervised runs quarantined (see report)", counts.Failed(), counts.Total())
	}
	return nil
}

// parseShard parses "i/n" into a Shard.
func parseShard(s string) (campaign.Shard, error) {
	if s == "" {
		return campaign.Shard{}, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil || n <= 0 || i < 0 || i >= n {
		return campaign.Shard{}, fmt.Errorf("bad -shard %q (want i/n with 0 <= i < n)", s)
	}
	return campaign.Shard{Index: i, Count: n}, nil
}

// sweepSpecFromFlags builds the sweep grid from the CLI axes, starting from
// the calibrated defaults (backend.DefaultSweepSpec) and narrowing whatever
// the user pinned. Seed and Workers stay zero here: the standalone path
// fills them from -seed/-j, the campaign path from its own manifest.
func sweepSpecFromFlags(backendName, topos, algs, loads string, spotCheck, tol float64) (backend.SweepSpec, error) {
	sw := backend.DefaultSweepSpec()
	sw.Seed, sw.Backend, sw.SpotCheck, sw.Tol = 0, backendName, spotCheck, tol
	if topos != "" {
		sw.Topologies = splitList(topos)
	}
	if algs != "" {
		sw.Algorithms = splitList(algs)
	}
	var err error
	if loads != "" {
		sw.Loads, err = parseLoads(loads)
	}
	return sw, err
}

// parseLoads parses the -loads axis: "lo:hi:n" expands to n evenly spaced
// values (endpoints included), anything else is a comma-separated list.
func parseLoads(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -loads %q (want lo:hi:n or a comma-separated list)", s)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		n, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || n < 1 || hi < lo {
			return nil, fmt.Errorf("bad -loads %q (want lo:hi:n with hi >= lo and n >= 1)", s)
		}
		if n == 1 {
			return []float64{lo}, nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return out, nil
	}
	return parseList(s, "loads", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// splitList splits a comma-separated flag value, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// parseList parses each entry of a comma-separated -name value.
func parseList[T any](s, name string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad -%s entry %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}
