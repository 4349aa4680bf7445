// Command mptcp-bench runs the paper-reproduction experiments and prints
// the rows each figure plots.
//
// Usage:
//
//	mptcp-bench [-exp figN[,figM...]] [-scale 0.3] [-seed 1] [-reps 0] [-full] [-j 8]
//	mptcp-bench -sweep [-backend hybrid] [-topos a,b] [-algs x,y] [-loads 0:0.15:28] [-spot-check 0.05] [-tol 0.10]
//	mptcp-bench -campaign DIR [-exp ...] [-sweep ...] [-seeds 1,2,3] [-scale ...] [-records] [-shard i/n]
//	mptcp-bench -resume DIR [-j 8] [-shard i/n]
//
// -list prints the experiment IDs and exits; -markdown wraps each printed
// table in a fenced block ready for EXPERIMENTS.md.
//
// -full sets scale to 1.0 (the published parameters); the default scale
// keeps the whole suite fast enough for a laptop. -j controls how many
// simulation runs execute concurrently (tables are byte-identical for any
// value). -cpuprofile/-memprofile write pprof profiles, and -json records
// per-experiment wall-clock and event throughput to BENCH_<timestamp>.json.
// -out DIR exports one machine-readable run record (JSONL + CSV, see
// internal/obsv and EXPERIMENTS.md) per simulation run; -sample-interval
// sets the record's sampling period in simulated time.
//
// -sweep fans a (topology × algorithm × load) grid through the backend
// engines (internal/backend, docs/backends.md) instead of the figure
// experiments. -backend picks the engine mix: "fluid" solves every point on
// the Eq. 3 model, "packet" runs every point on the discrete-event stack,
// and "hybrid" (the default) solves everything on the fluid engine and
// re-runs a deterministic seed-derived -spot-check fraction on the packet
// engine, comparing per-path shares within -tol. -topos/-algs narrow the
// grid (defaults: the four N-path sweep topologies, the calibrated algorithm
// set); -loads takes either a comma-separated list or lo:hi:n for n evenly
// spaced loads. A disagreeing spot check exits 3 naming the points. With
// -campaign, -sweep adds its grid to the campaign as journaled units — see
// EXPERIMENTS.md, "Hybrid sweeps"; without an explicit -exp the campaign is
// then sweep-only.
//
// -campaign expands the selected experiments × -seeds into a checkpointed
// campaign under DIR (see internal/campaign and EXPERIMENTS.md, "Resumable
// campaigns"): every completed unit is journaled, so a killed invocation
// continues with -resume DIR, re-running only unfinished units, and the
// merged results.txt / campaign.json are byte-identical to an uninterrupted
// run. -shard i/n restricts one process to its slice of the campaign so n
// processes (or CI jobs) can split the manifest; -records exports obsv run
// records under each unit directory.
//
// Every simulation run executes under a run supervisor (internal/supervise):
// a panicking or invariant-violating run is quarantined — its rows dropped,
// its identity noted on the table and in the -json report — instead of
// aborting the suite, and the whole invocation exits 3 when anything was
// quarantined. -timeout bounds each run's wall clock (0 = none).
//
// SIGINT/SIGTERM stop the invocation gracefully: in-flight simulation runs
// drain, writers and the campaign journal flush, and the process exits 4
// (supervise.ExitInterrupted) — in campaign mode the directory resumes
// exactly where it left off. A second signal kills immediately.
//
// -check runs the internal/check invariant checker on every simulation run
// (violations quarantine the failing run). -validate
// skips the experiments and instead runs the fluid-model conformance suite,
// printing the table compared against internal/backend/testdata/
// conformance_golden.txt in CI; a non-OK row exits non-zero. See
// EXPERIMENTS.md, "Validation methodology".
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
	"strconv"
	"strings"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/exp"
	"mptcpsim/internal/runner"
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

// benchTiming is one experiment's wall-clock row — volatile by nature, so
// it lives in the report's meta section. FlowsPerSec appears only for
// experiments that churn a flow population (Result.Flows > 0).
type benchTiming struct {
	Experiment   string  `json:"experiment"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	FlowsPerSec  float64 `json:"flows_per_sec,omitempty"`
}

// benchMeta is the volatile half of the -json report: clocks, versions and
// machine facts that legitimately differ between two otherwise identical
// invocations. Diff tooling ignores this section.
type benchMeta struct {
	Timestamp    string        `json:"timestamp"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Workers      int           `json:"workers"`
	TotalWallSec float64       `json:"total_wall_seconds"`
	Timings      []benchTiming `json:"timings"`
	// Interrupted: the suite was stopped by SIGINT/SIGTERM before finishing;
	// the payload covers only the experiments that completed.
	Interrupted bool `json:"interrupted,omitempty"`
}

// benchRecord is one experiment's row in the deterministic payload. Flows
// counts the offered flow population for churn-style experiments (0 and
// omitted elsewhere).
type benchRecord struct {
	Experiment string `json:"experiment"`
	Events     uint64 `json:"events"`
	Flows      uint64 `json:"flows,omitempty"`
}

// benchPayload is the deterministic half of the -json report: everything in
// it derives from (scale, seed, reps, experiment set) alone, so two runs of
// the same commit with the same flags produce byte-identical payloads at
// any -j — `jq .payload` diffs cleanly across machines.
type benchPayload struct {
	Scale       float64       `json:"scale"`
	Seed        int64         `json:"seed"`
	Reps        int           `json:"reps"`
	Experiments []benchRecord `json:"experiments"`
	TotalEvents uint64        `json:"total_events"`
	// Outcomes counts every supervised simulation run across the suite;
	// Quarantined lists each failed run's identity and error.
	Outcomes    supervise.Counts `json:"outcomes"`
	Quarantined []string         `json:"quarantined,omitempty"`
}

// benchReport is the whole -json document, split so the volatile and
// deterministic parts diff independently.
type benchReport struct {
	Meta    benchMeta    `json:"meta"`
	Payload benchPayload `json:"payload"`
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mptcp-bench", flag.ContinueOnError)
	var (
		expFlag     = fs.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
		scale       = fs.Float64("scale", 0.25, "scale factor in (0,1]: users, sizes and horizons")
		seed        = fs.Int64("seed", 1, "random seed")
		reps        = fs.Int("reps", 0, "override repetition count (0 = scaled default)")
		full        = fs.Bool("full", false, "run at the published scale (same as -scale 1)")
		list        = fs.Bool("list", false, "list experiment IDs and exit")
		markdown    = fs.Bool("markdown", false, "wrap each table in a fenced block for EXPERIMENTS.md")
		workers     = fs.Int("j", runner.DefaultWorkers(), "concurrent simulation runs (results are identical for any value)")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		jsonOut     = fs.Bool("json", false, "write per-experiment timing and event counts to BENCH_<timestamp>.json")
		outDir      = fs.String("out", "", "write one JSONL+CSV run record per (algorithm, scenario, seed) to this directory")
		sampleInt   = fs.Duration("sample-interval", 0, "run-record sampling period in simulated time (0 = 100ms)")
		checkInv    = fs.Bool("check", false, "run the invariant checker on every simulation run (violations quarantine the run)")
		validate    = fs.Bool("validate", false, "run the fluid-vs-packet conformance suite instead of experiments")
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
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !*sweepFlag {
		for _, name := range []string{"backend", "topos", "algs", "loads", "spot-check", "tol"} {
			if explicit[name] {
				return fmt.Errorf("-%s requires -sweep", name)
			}
		}
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *validate {
		c, err := backend.RunConformance(backend.Scenario{Seed: *seed})
		if err != nil {
			return fmt.Errorf("conformance: %w", err)
		}
		fmt.Print(c.Format())
		if !c.OK() {
			return fmt.Errorf("conformance: packet-level behaviour disagrees with the fluid model (see rows above)")
		}
		return nil
	}
	if *full {
		*scale = 1
	}

	if *campaignDir != "" || *resumeDir != "" {
		if *campaignDir != "" && *resumeDir != "" {
			return fmt.Errorf("-campaign and -resume are mutually exclusive")
		}
		shard, err := parseShard(*shardFlag)
		if err != nil {
			return err
		}
		seeds, err := parseSeeds(*seedsFlag)
		if err != nil {
			return err
		}
		if seeds == nil {
			seeds = []int64{*seed}
		}
		experiments := exp.IDs()
		if *expFlag != "all" {
			experiments = nil
			for _, id := range strings.Split(*expFlag, ",") {
				experiments = append(experiments, strings.TrimSpace(id))
			}
		}
		spec := campaign.Spec{
			Experiments: experiments, Seeds: seeds, Scale: *scale, Reps: *reps,
			Records: *records, Check: *checkInv,
		}
		if *sweepFlag {
			sw, err := sweepSpecFromFlags(*backendName, *toposFlag, *algsFlag, *loadsFlag, *spotCheck, *tol)
			if err != nil {
				return err
			}
			spec.Sweep = &sw
			// -sweep -campaign without an explicit -exp is a sweep-only
			// campaign; "all" is only the default for figure campaigns.
			if !explicit["exp"] {
				spec.Experiments = nil
			}
		}
		opt := campaign.Options{
			Workers: *workers, Shard: shard, Timeout: *timeout,
			SyncEvery: campaign.DefaultSyncEvery, SampleInterval: sim.Time(*sampleInt),
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
			},
		}
		return runCampaign(ctx, *campaignDir, *resumeDir, spec, opt)
	}
	if *seedsFlag != "" || *shardFlag != "" || *records {
		return fmt.Errorf("-seeds, -shard and -records require -campaign or -resume")
	}

	if *sweepFlag {
		sw, err := sweepSpecFromFlags(*backendName, *toposFlag, *algsFlag, *loadsFlag, *spotCheck, *tol)
		if err != nil {
			return err
		}
		sw.Seed = *seed
		sw.Workers = *workers
		res, err := backend.Sweep(ctx, sw)
		if err != nil {
			if ctx.Err() != nil {
				return supervise.InterruptedErr("interrupted by signal before the sweep finished")
			}
			return err
		}
		fmt.Print(res.Format())
		if !res.OK() {
			// Exit 3: the table above is complete, but the fluid answers at
			// the named points cannot be trusted.
			return supervise.QuarantinedErr("fluid/packet disagreement at %d of %d checked points: %s",
				len(res.Disagreements), res.Checked, strings.Join(res.Disagreements, "; "))
		}
		return nil
	}

	sup := supervise.New(supervise.Budget{Wall: *timeout})
	cfg := exp.Config{
		Seed: *seed, Scale: *scale, Reps: *reps, Workers: *workers,
		OutDir: *outDir, SampleInterval: sim.Time(*sampleInt), Check: *checkInv,
		Sup: sup, Ctx: ctx,
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var selected []exp.Experiment
	if *expFlag == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := exp.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(exp.IDs(), ", "))
			}
			selected = append(selected, e)
		}
	}

	report := benchReport{
		Meta: benchMeta{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers:    *workers,
		},
		Payload: benchPayload{Scale: *scale, Seed: *seed, Reps: *reps},
	}
	suiteStart := time.Now()
	for _, e := range selected {
		if ctx.Err() != nil {
			report.Meta.Interrupted = true
			break
		}
		start := time.Now()
		res := e.Run(cfg)
		wall := time.Since(start).Seconds()
		if res.Interrupted {
			// A partial figure is not a result: note the interruption and
			// keep it out of the payload entirely.
			report.Meta.Interrupted = true
			fmt.Fprintf(os.Stderr, "interrupted during %s; its rows are discarded\n", e.ID)
			break
		}
		if *markdown {
			fmt.Printf("### %s — %s\n\n```\n%s```\n\n", res.ID, e.Title, res)
		} else {
			fmt.Println(res)
			fmt.Printf("(%s took %.1fs)\n\n", e.ID, wall)
		}
		t := benchTiming{Experiment: e.ID, WallSeconds: wall}
		if wall > 0 {
			t.EventsPerSec = float64(res.Events) / wall
			t.FlowsPerSec = float64(res.Flows) / wall
		}
		report.Meta.Timings = append(report.Meta.Timings, t)
		report.Payload.Experiments = append(report.Payload.Experiments, benchRecord{Experiment: e.ID, Events: res.Events, Flows: res.Flows})
		report.Payload.TotalEvents += res.Events
	}
	report.Meta.TotalWallSec = time.Since(suiteStart).Seconds()
	counts := sup.Counts()
	report.Payload.Outcomes = counts
	for _, f := range sup.Failures() {
		report.Payload.Quarantined = append(report.Payload.Quarantined, fmt.Sprintf("%s: %s: %s", f.ID, f.Kind, f.Msg))
	}
	fmt.Printf("outcomes: %s\n", counts)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}

	if *jsonOut {
		name := fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, %.1fs, %d events)\n",
			name, len(report.Payload.Experiments), report.Meta.TotalWallSec, report.Payload.TotalEvents)
	}
	if report.Meta.Interrupted {
		// Exit 4: stopped by signal after a clean drain — the printed tables
		// and any written report cover only completed experiments.
		return supervise.InterruptedErr("interrupted by signal; completed experiments were flushed")
	}
	if counts.Failed() > 0 {
		// Exit 3: the tables above are valid partial results, but at least
		// one supervised run was quarantined.
		return supervise.QuarantinedErr("%d of %d supervised runs quarantined (see report)", counts.Failed(), counts.Total())
	}
	return nil
}

// runCampaign drives a checkpointed campaign (start or resume) and maps its
// summary onto the CLI exit-code contract: 4 when interrupted (resumable),
// 3 when finished with quarantined units, 0 when clean.
func runCampaign(ctx context.Context, startDir, resumeDir string, spec campaign.Spec, opt campaign.Options) error {
	var (
		sum *campaign.Summary
		dir string
		err error
	)
	if startDir != "" {
		dir = startDir
		sum, err = campaign.Start(ctx, dir, spec, opt)
	} else {
		dir = resumeDir
		sum, err = campaign.Resume(ctx, dir, opt)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: %d units (%d reused, %d ran, %d quarantined, %d pending); supervised runs: %s\n",
		sum.Total, sum.Reused, sum.Ran, sum.Quarantined, sum.Pending, sum.Counts)
	if sum.Merged {
		results, rerr := os.ReadFile(filepath.Join(dir, "results.txt"))
		if rerr != nil {
			return rerr
		}
		os.Stdout.Write(results)
		fmt.Fprintf(os.Stderr, "campaign: merged %s and %s\n",
			filepath.Join(dir, "results.txt"), filepath.Join(dir, "campaign.json"))
	}
	if sum.Interrupted {
		return supervise.InterruptedErr("interrupted; continue with -resume %s", dir)
	}
	if !sum.Merged {
		fmt.Fprintln(os.Stderr, "campaign: other shards still pending; the last shard to finish merges")
	}
	if sum.Quarantined > 0 {
		return supervise.QuarantinedErr("%d of %d units quarantined (see results)", sum.Quarantined, sum.Total)
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
	sw.Seed = 0
	sw.Backend = backendName
	sw.SpotCheck = spotCheck
	sw.Tol = tol
	if topos != "" {
		sw.Topologies = splitList(topos)
	}
	if algs != "" {
		sw.Algorithms = splitList(algs)
	}
	if loads != "" {
		parsed, err := parseLoads(loads)
		if err != nil {
			return backend.SweepSpec{}, err
		}
		sw.Loads = parsed
	}
	return sw, nil
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
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -loads entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
