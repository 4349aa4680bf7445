// Command mptcp-sim runs one ad-hoc MPTCP scenario and prints transport
// and energy metrics, for quick exploration outside the figure harness.
//
//	mptcp-sim -topo twopath -alg dts -duration 60s
//	mptcp-sim -topo fattree -alg lia -subflows 8 -hosts 16
//	mptcp-sim -topo hetwireless -alg dts-lia -cross
//	mptcp-sim -topo twopath -alg lia -bytes 20000000 -fault "path1:down@2s,up@5s"
//	mptcp-sim -topo twopath -alg dts -runs 8 -j 4   # 8 seeds, 4 at a time
//	mptcp-sim -topo twopath -alg dts -trace run.jsonl -sample-interval 50ms
//	mptcp-sim -topo fattree -alg lia -churn 5000 -max-flows 600 -check
//
// -seed picks the base random seed (runs use seed..seed+runs-1), -rwnd caps
// the connection receive window in segments, and -timeout sets a per-run
// wall-clock deadline enforced by the run supervisor.
//
// -churn N replaces the single measured connection with an open-loop
// population (internal/flows): N flows arrive Poisson across random host
// pairs of a multi-host topology (fattree, vl2, bcube, ec2), with a
// heavy-tailed web/bulk/stream size mix, and are torn down as they
// complete. -arrival sets the rate in flows/sec (default 40 per host);
// -max-flows caps concurrency — arrivals past the cap are shed
// deterministically and accounted, never silently dropped. The run prints
// the offered = completed + shed + cut reconciliation plus per-flow FCT,
// goodput and marginal-energy percentiles; -trace records one "flow" line
// per outcome. -churn is open-loop, so -bytes, -cross, -fault, -rwnd and
// -runs > 1 do not apply.
//
// -trace streams a machine-readable run record (JSONL, see internal/obsv
// and EXPERIMENTS.md): per-subflow cwnd/SRTT/loss series, algorithm
// internals for introspectable algorithms, host power, and failover events.
// With -runs > 1 each run writes its own file with the seed inserted before
// the extension.
//
// -check runs the internal/check invariant checker alongside the
// simulation: byte conservation, cwnd/seq bounds, energy accounting and
// subflow state transitions are evaluated periodically and once at the end.
// Violations fail the run; with -runs > 1 they fail the whole summary,
// naming each offending seed.
//
// -soak replaces the single scenario with a chaos soak: randomized
// scenario/fault/workload draws run until the given count ("60") or
// duration ("10m") is spent, each under the invariant checker and a
// -soak-events event budget. Failures are shrunk and quarantined into
// -soak-dir; -replay re-runs a quarantined artifact and exits 0 only if
// the recorded failure reproduces; -inject arms a failpoint on every Nth
// soak scenario as a self-test of the quarantine pipeline.
//
// SIGINT/SIGTERM stop the invocation gracefully: the running simulation is
// stopped at the next event boundary (batch mode additionally dispatches no
// further seeds), traces and meters flush, and the process exits 4
// (supervise.ExitInterrupted). A second signal kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcpsim/internal/chaos"
	"mptcpsim/internal/check"
	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mptcp-sim:", err)
		var ec *supervise.ExitCodeError
		if errors.As(err, &ec) {
			os.Exit(ec.Code)
		}
		os.Exit(1)
	}
}

// signalContext cancels on the first SIGINT/SIGTERM so in-flight work
// drains; the AfterFunc restores default signal dispositions the moment the
// context dies, so a second signal kills the process immediately instead of
// waiting out the drain.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() { stop() })
	return ctx, stop
}

// stopOnCancel schedules a periodic engine event that stops the engine once
// ctx is cancelled, so a signal ends the simulation at a clean event
// boundary — metrics, traces and meters then flush normally over whatever
// simulated time actually elapsed. The check touches no RNG, so an
// uncancelled run's results are unchanged by it.
func stopOnCancel(ctx context.Context, eng *sim.Engine) {
	if ctx == nil {
		return
	}
	const every = 100 * sim.Millisecond
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			eng.Stop()
			return
		}
		eng.ScheduleAfter(every, tick)
	}
	eng.ScheduleAfter(every, tick)
}

// interruptedErr is the exit-4 error for a signal-stopped invocation.
func interruptedErr(msg string) error {
	return &supervise.ExitCodeError{Code: supervise.ExitInterrupted, Msg: msg}
}

// scenario carries every knob one simulation run needs, so repeated runs
// differ only in their seed.
type scenario struct {
	topo       string
	alg        string
	subflows   int
	hosts      int
	duration   time.Duration
	transfer   int64
	cross      bool
	rwnd       int64
	fault      string
	trace      string
	sampleInt  time.Duration
	multiTrace bool // -runs > 1: insert the seed into each trace filename
	check      bool
}

// runResult summarises one completed run for the multi-run table.
type runResult struct {
	seed       int64
	simSecs    float64
	wallSecs   float64
	events     uint64
	goodputBps float64
	acked      uint64
	joules     float64
	meanPower  float64
	reinj      int64
	// interrupted: a signal stopped this run before its horizon; the
	// metrics cover only the simulated time that elapsed.
	interrupted bool
	err         error
}

func run(args []string) error {
	fs := flag.NewFlagSet("mptcp-sim", flag.ContinueOnError)
	var (
		topoName  = fs.String("topo", "twopath", "scenario: twopath, hetwireless, dumbbell, ec2, fattree, vl2, bcube")
		alg       = fs.String("alg", "lia", "congestion control: "+strings.Join(core.Names(), ", "))
		subflows  = fs.Int("subflows", 2, "subflows for the datacenter topologies")
		hosts     = fs.Int("hosts", 16, "hosts for the ec2 topology")
		duration  = fs.Duration("duration", 30*time.Second, "simulated duration")
		transfer  = fs.Int64("bytes", 0, "transfer size (0 = long-lived flow)")
		seed      = fs.Int64("seed", 1, "random seed")
		cross     = fs.Bool("cross", false, "add Pareto bursty cross traffic (twopath/hetwireless)")
		rwnd      = fs.Int64("rwnd", 0, "connection receive window in segments (0 = unlimited)")
		fault     = fs.String("fault", "", `fault schedule, e.g. "path1:down@2s,up@5s;path0:flap@1s+6s/500ms" (see internal/faults)`)
		runs      = fs.Int("runs", 1, "independent runs with seeds seed..seed+runs-1")
		workers   = fs.Int("j", runner.DefaultWorkers(), "concurrent runs when -runs > 1")
		traceOut  = fs.String("trace", "", "stream a JSONL run record to this file (per-seed files when -runs > 1)")
		sampleInt = fs.Duration("sample-interval", 0, "run-record sampling period in simulated time (0 = 100ms)")
		checkInv  = fs.Bool("check", false, "evaluate simulator invariants during the run; violations fail the run")
		timeout   = fs.Duration("timeout", 0, "per-run wall-clock deadline enforced by the run supervisor (0 = none)")
		soakSpec  = fs.String("soak", "", "run a chaos soak instead of one scenario: a count (\"60\") or a duration (\"10m\")")
		soakDir   = fs.String("soak-dir", "quarantine", "directory soak failures are shrunk and quarantined into")
		soakEv    = fs.Uint64("soak-events", 0, "per-scenario event budget during soak (0 = 20M)")
		inject    = fs.Int("inject", 0, "arm a failpoint on every Nth soak scenario (quarantine self-test, 0 = off)")
		replay    = fs.String("replay", "", "replay a quarantined artifact; exits 0 only if the recorded failure reproduces")
		churn     = fs.Int("churn", 0, "run an open-loop population of this many flows instead of one connection (fattree, vl2, bcube, ec2)")
		arrival   = fs.Float64("arrival", 0, "churn arrival rate in flows/sec (0 = 40 per host)")
		maxFlows  = fs.Int("max-flows", 0, "churn admission cap on concurrent flows; excess arrivals are shed and accounted (0 = uncapped)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *churn <= 0 && (*arrival != 0 || *maxFlows != 0) {
		return fmt.Errorf("-arrival and -max-flows require -churn")
	}

	ctx, stop := signalContext()
	defer stop()

	if *replay != "" {
		return runReplay(*replay, *timeout, *soakEv)
	}
	if *soakSpec != "" {
		return runSoak(ctx, *soakSpec, *seed, *workers, *soakDir, *timeout, *soakEv, *inject)
	}

	sc := scenario{
		topo: *topoName, alg: *alg, subflows: *subflows, hosts: *hosts,
		duration: *duration, transfer: *transfer, cross: *cross,
		rwnd: *rwnd, fault: *fault,
		trace: *traceOut, sampleInt: *sampleInt, multiTrace: *runs > 1,
		check: *checkInv,
	}

	if *churn > 0 {
		// The population is open-loop: the single-connection knobs have no
		// meaning, and accepting them silently would misreport the scenario.
		if *transfer != 0 || *cross || *fault != "" || *rwnd != 0 || *runs > 1 {
			return fmt.Errorf("-churn is incompatible with -bytes, -cross, -fault, -rwnd and -runs > 1")
		}
		co := churnOpts{flows: *churn, arrival: *arrival, maxFlows: *maxFlows}
		if *timeout <= 0 {
			return runChurnScenario(ctx, sc, co, *seed, nil)
		}
		sup := supervise.New(supervise.Budget{Wall: *timeout})
		rep := sup.Run(supervise.RunID{Seed: *seed, Scenario: sc.topo, Phase: "churn"},
			func(wd *supervise.Watchdog) error { return runChurnScenario(ctx, sc, co, *seed, wd) })
		if rep.Outcome.Failed() {
			return rep.Err
		}
		return nil
	}

	if *runs <= 1 {
		if *timeout <= 0 {
			return runOne(ctx, sc, *seed, nil)
		}
		sup := supervise.New(supervise.Budget{Wall: *timeout})
		rep := sup.Run(supervise.RunID{Seed: *seed, Scenario: sc.topo, Phase: "adhoc"},
			func(wd *supervise.Watchdog) error { return runOne(ctx, sc, *seed, wd) })
		if rep.Outcome.Failed() {
			return rep.Err
		}
		return nil
	}

	// Every run of a batch executes under the supervisor: a panicking or
	// invariant-violating seed is quarantined into its row instead of
	// killing the batch, and -timeout bounds each run's wall clock. A
	// signal drains the in-flight seeds and skips the rest.
	sup := supervise.New(supervise.Budget{Wall: *timeout})
	results, errs := runner.MapErrCtx(ctx, *workers, *runs, func(i int) (runResult, error) {
		s := *seed + int64(i)
		var r runResult
		rep := sup.Run(supervise.RunID{Seed: s, Scenario: sc.topo, Phase: "adhoc"},
			func(wd *supervise.Watchdog) error {
				r = runQuiet(ctx, sc, s, wd)
				return r.err
			})
		if rep.Outcome.Failed() {
			r = runResult{seed: s, err: rep.Err}
		}
		return r, nil
	})
	fmt.Printf("%-6s %12s %10s %12s %10s %10s %8s\n",
		"seed", "goodput_mbps", "acked_mb", "energy_j", "mean_w", "events", "wall_s")
	var sumGoodput, sumJoules float64
	var failed []runResult
	var skipped, cut int
	for i, r := range results {
		if errs != nil && errs[i] != nil {
			if errors.Is(errs[i], runner.ErrSkipped) {
				fmt.Printf("%-6d skipped (interrupted before start)\n", *seed+int64(i))
				skipped++
				continue
			}
			r = runResult{seed: *seed + int64(i), err: errs[i]}
		}
		if r.err != nil {
			// Report the failure in the row, keep printing the other seeds,
			// and fail the whole invocation below. A bad seed must not be
			// silently averaged away — nor hide the remaining results.
			fmt.Printf("%-6d FAILED: %v\n", r.seed, r.err)
			failed = append(failed, r)
			continue
		}
		if r.interrupted {
			// Stopped mid-run by the signal: the partial metrics would skew
			// the mean, so the row reports how far it got and nothing more.
			fmt.Printf("%-6d interrupted at %.1fs simulated (partial, excluded from mean)\n",
				r.seed, r.simSecs)
			cut++
			continue
		}
		fmt.Printf("%-6d %12.2f %10.1f %12.1f %10.2f %10d %8.2f\n",
			r.seed, r.goodputBps/1e6, float64(r.acked)/(1<<20),
			r.joules, r.meanPower, r.events, r.wallSecs)
		sumGoodput += r.goodputBps
		sumJoules += r.joules
	}
	if n := float64(len(results) - len(failed) - skipped - cut); n > 0 {
		fmt.Printf("mean over %d runs: goodput %.2f Mb/s, energy %.1f J\n",
			int(n), sumGoodput/n/1e6, sumJoules/n)
	}
	fmt.Printf("outcomes: %s\n", sup.Counts())
	if skipped+cut > 0 {
		// Exit 4: a signal stopped the batch early; completed rows above
		// are valid and were flushed before exit.
		return interruptedErr(fmt.Sprintf(
			"interrupted: %d of %d runs completed (%d cut mid-run, %d never started)",
			len(results)-len(failed)-skipped-cut, len(results), cut, skipped))
	}
	if len(failed) > 0 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d of %d runs quarantined:", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(&sb, "\n  seed %d: %v", r.seed, r.err)
		}
		// Exit 3: the batch completed and the surviving rows above are
		// valid, but at least one run was quarantined.
		return &supervise.ExitCodeError{Code: supervise.ExitQuarantined, Msg: sb.String()}
	}
	return nil
}

// runSoak runs a chaos campaign (-soak), writing shrunk failing scenarios
// into the quarantine directory. The argument is a scenario count or a
// wall-clock duration.
func runSoak(ctx context.Context, spec string, seed int64, workers int, dir string, timeout time.Duration, events uint64, inject int) error {
	cfg := chaos.SoakConfig{
		Seed: seed, Workers: workers, Dir: dir,
		Timeout: timeout, MaxEvents: events, Inject: inject, Ctx: ctx,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
		},
	}
	if n, err := strconv.Atoi(spec); err == nil {
		if n <= 0 {
			return fmt.Errorf("-soak count must be positive, got %d", n)
		}
		cfg.Count = n
	} else if d, derr := time.ParseDuration(spec); derr == nil {
		cfg.Duration = d
	} else {
		return fmt.Errorf("-soak wants a count or a duration, got %q", spec)
	}
	res, err := chaos.Soak(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d scenarios, %s\n", res.Scenarios, res.Counts)
	for _, f := range res.Failures {
		loc := f.Artifact
		if loc == "" {
			loc = "(artifact not written)"
		}
		fmt.Printf("  chaos[%d] %s %s shrink_runs=%d %s\n", f.Index, f.Outcome, f.Signature, f.ShrinkRuns, loc)
	}
	if res.Interrupted {
		// Exit 4: the soak was stopped by a signal; artifacts written so far
		// are complete and valid.
		return interruptedErr(fmt.Sprintf(
			"soak interrupted after %d scenarios (%d quarantined)", res.Scenarios, len(res.Failures)))
	}
	if res.Failed() {
		return &supervise.ExitCodeError{
			Code: supervise.ExitQuarantined,
			Msg:  fmt.Sprintf("soak quarantined %d of %d scenarios", len(res.Failures), res.Scenarios),
		}
	}
	return nil
}

// runReplay re-runs a quarantined artifact (-replay) and succeeds only if
// the recorded failure signature reproduces.
func runReplay(path string, timeout time.Duration, events uint64) error {
	rr, err := chaos.Replay(path, supervise.Budget{Wall: timeout, Events: events})
	if err != nil {
		return err
	}
	a := rr.Artifact
	fmt.Printf("replay: %s\n", a.Scenario)
	fmt.Printf("recorded: %s (%s)\n", a.Signature, a.Failure.Msg)
	observed := rr.Signature
	if observed == "" {
		observed = "clean run"
	}
	fmt.Printf("observed: %s (%s)\n", observed, rr.Outcome)
	if !rr.Match {
		return fmt.Errorf("replay did not reproduce the recorded failure")
	}
	fmt.Println("reproduced")
	return nil
}

// startCheck attaches the invariant checker to one run when -check is set.
// It runs in collect mode rather than panicking, so a violating seed in a
// multi-run batch reports cleanly alongside the surviving rows.
func startCheck(eng *sim.Engine, sc scenario, conn *mptcp.Conn, meter *energy.Meter) *check.Invariants {
	if !sc.check {
		return nil
	}
	inv := check.New(eng)
	inv.Watch("", conn)
	inv.WatchMeter("host", meter)
	inv.Start()
	return inv
}

// finishCheck evaluates the invariants one final time and converts any
// recorded violations into the run's error.
func finishCheck(inv *check.Invariants) error {
	if inv == nil {
		return nil
	}
	inv.Final()
	return inv.Err()
}

// setup wires the scenario onto a fresh engine and returns the connection
// and energy meter; it is the shared front half of runOne and runQuiet.
func setup(eng *sim.Engine, sc scenario) (*mptcp.Conn, *energy.Meter, error) {
	paths, crossLinks, err := buildScenario(eng, sc.topo, sc.subflows, sc.hosts)
	if err != nil {
		return nil, nil, err
	}
	if sc.fault != "" {
		pfs, err := faults.Parse(sc.fault)
		if err != nil {
			return nil, nil, err
		}
		// Reject schedules that target absent paths or lie entirely past
		// the horizon before the run starts, instead of silently no-opping.
		if err := faults.Validate(pfs, paths, sim.FromDuration(sc.duration)); err != nil {
			return nil, nil, err
		}
		for _, pf := range pfs {
			p, err := faults.Resolve(pf.Target, paths)
			if err != nil {
				return nil, nil, err
			}
			faults.Apply(eng, p, pf.Faults...)
		}
	}
	if sc.cross {
		for _, l := range crossLinks {
			workload.NewParetoOnOff(eng, []*netem.Link{l}, workload.ParetoConfig{
				RateBps: l.Rate() * 9 / 10,
			}).Start()
		}
	}

	conn, err := mptcp.New(eng, mptcp.Config{
		Algorithm:     sc.alg,
		TransferBytes: sc.transfer,
		RwndSegments:  sc.rwnd,
	}, 1, paths...)
	if err != nil {
		return nil, nil, err
	}
	meter := energy.NewMeter(eng, energy.NewI7(), energy.ConnProbe(conn), 0)
	meter.Start()
	return conn, meter, nil
}

// tracePath names the run record file for one seed. Single runs use the
// -trace argument verbatim; multi-run invocations insert the seed before the
// extension so every run keeps its own record.
func tracePath(base string, seed int64, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + fmt.Sprintf("_seed%d", seed) + ext
}

// startTrace attaches a JSONL run recorder when -trace is set, returning a
// finish func that completes the record after the engine has run (nil when
// tracing is off) and an abort func for the caller to defer: a no-op after
// finish, it otherwise flushes and releases the record, so a run that
// panics (watchdog, event budget) or returns early leaves a file that
// parses through its last sample.
func startTrace(eng *sim.Engine, sc scenario, seed int64, conn *mptcp.Conn, meter *energy.Meter) (finish func() error, abort func(), err error) {
	if sc.trace == "" {
		return nil, func() {}, nil
	}
	sink, err := obsv.CreateSink(tracePath(sc.trace, seed, sc.multiTrace))
	if err != nil {
		return nil, nil, err
	}
	rec := obsv.NewRecorder(eng, obsv.Meta{
		Experiment: "adhoc",
		Scenario:   sc.topo,
		Algorithm:  sc.alg,
		Seed:       seed,
	}, obsv.Options{Interval: sim.FromDuration(sc.sampleInt), Stream: sink})
	rec.WatchConn("", conn)
	rec.WatchMeter("host", meter)
	rec.Start()
	return func() error {
		rec.SetSummary("goodput_mbps", conn.MeanThroughputBps()/1e6)
		rec.SetSummary("energy_j", meter.Joules())
		rec.SetSummary("reinjected_segs", float64(conn.ReinjectedSegs()))
		err := rec.Close()
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		return err
	}, func() { _ = sink.Close() }, nil
}

// runQuiet executes one run and returns only the summary, for -runs > 1.
func runQuiet(ctx context.Context, sc scenario, seed int64, wd *supervise.Watchdog) runResult {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	stopOnCancel(ctx, eng)
	conn, meter, err := setup(eng, sc)
	if err != nil {
		return runResult{seed: seed, err: err}
	}
	finish, abort, err := startTrace(eng, sc, seed, conn, meter)
	if err != nil {
		return runResult{seed: seed, err: err}
	}
	defer abort()
	inv := startCheck(eng, sc, conn, meter)
	if sc.transfer > 0 {
		conn.OnComplete = func(sim.Time) {
			meter.Stop()
			eng.Stop()
		}
	}
	start := time.Now()
	conn.Start()
	eng.Run(sim.FromDuration(sc.duration))
	meter.Flush() // integrate the residual when the horizon cut the run off
	if err := finishCheck(inv); err != nil {
		return runResult{seed: seed, err: err}
	}
	if finish != nil {
		if err := finish(); err != nil {
			return runResult{seed: seed, err: err}
		}
	}
	return runResult{
		seed:        seed,
		simSecs:     eng.Now().Seconds(),
		wallSecs:    time.Since(start).Seconds(),
		events:      eng.Processed(),
		goodputBps:  conn.MeanThroughputBps(),
		acked:       conn.AckedBytes(),
		joules:      meter.Joules(),
		meanPower:   meter.MeanPower(),
		reinj:       conn.ReinjectedSegs(),
		interrupted: ctx != nil && ctx.Err() != nil,
	}
}

// runOne executes a single run with the full per-subflow report.
func runOne(ctx context.Context, sc scenario, seed int64, wd *supervise.Watchdog) error {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	stopOnCancel(ctx, eng)
	conn, meter, err := setup(eng, sc)
	if err != nil {
		return err
	}
	finish, abort, err := startTrace(eng, sc, seed, conn, meter)
	if err != nil {
		return err
	}
	defer abort()
	inv := startCheck(eng, sc, conn, meter)
	if sc.transfer > 0 {
		conn.OnComplete = func(at sim.Time) {
			fmt.Printf("transfer completed at %.3fs\n", at.Seconds())
			meter.Stop()
			eng.Stop()
		}
	}

	start := time.Now()
	conn.Start()
	eng.Run(sim.FromDuration(sc.duration))
	meter.Flush() // integrate the residual when the horizon cut the run off
	if err := finishCheck(inv); err != nil {
		return err
	}
	if inv != nil {
		fmt.Printf("checks:  %d invariant evaluations, clean\n", inv.Checks())
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
		fmt.Printf("trace:   %s\n", tracePath(sc.trace, seed, sc.multiTrace))
	}

	fmt.Printf("simulated %.1fs in %.2fs wall (%d events)\n",
		eng.Now().Seconds(), time.Since(start).Seconds(), eng.Processed())
	fmt.Printf("goodput: %.2f Mb/s (%.1f MB acked)\n",
		conn.MeanThroughputBps()/1e6, float64(conn.AckedBytes())/(1<<20))
	fmt.Printf("energy:  %.1f J (mean %.2f W)\n", meter.Joules(), meter.MeanPower())
	if reinj := conn.ReinjectedSegs(); reinj > 0 {
		fmt.Printf("failover: %d segments re-injected onto surviving subflows\n", reinj)
	}
	for _, s := range conn.Subflows() {
		st := s.Stats()
		fmt.Printf("  subflow %d %-12s %-8s cwnd=%6.1f srtt=%-12v acked=%-8d loss=%-4d rtx=%-5d timeouts=%d fails=%d probes=%d revivals=%d\n",
			s.ID(), s.Path().Name, s.State(), s.Cwnd(), s.SRTT().Duration(), s.Acked(),
			st.LossEvents, st.PktsRtx, st.Timeouts, st.Fails, st.Probes, st.Revivals)
		if tl := s.Transitions(); tl.Len() > 0 {
			fmt.Printf("    transitions:")
			for _, e := range tl.Events {
				fmt.Printf(" %s@%.3fs", e.Label, e.T.Seconds())
			}
			fmt.Println()
		}
	}
	if ctx != nil && ctx.Err() != nil {
		// Exit 4: the metrics above cover the simulated time that elapsed
		// before the signal; trace and meter were flushed.
		return interruptedErr(fmt.Sprintf(
			"interrupted at %.1fs simulated (of %s requested)", eng.Now().Seconds(), sc.duration))
	}
	return nil
}

// buildScenario wires the requested topology and returns the paths of the
// measured connection plus links suitable for cross-traffic injection.
func buildScenario(eng *sim.Engine, name string, subflows, hosts int) ([]*netem.Path, []*netem.Link, error) {
	switch name {
	case "twopath":
		tp := topo.NewTwoPath(eng, topo.TwoPathConfig{})
		return tp.Paths(), []*netem.Link{tp.CrossEntry(0), tp.CrossEntry(1)}, nil
	case "hetwireless":
		h := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
		return h.Paths(), []*netem.Link{h.CrossEntry(0), h.CrossEntry(1)}, nil
	case "dumbbell":
		d := topo.NewDumbbell(eng, topo.DumbbellConfig{Users: 1})
		return d.MPTCPPaths(0), nil, nil
	case "ec2":
		v := topo.NewEC2VPC(eng, topo.EC2Config{Hosts: hosts})
		return v.Paths(0, 1, subflows), nil, nil
	case "fattree":
		ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
		if err != nil {
			return nil, nil, err
		}
		return ft.Paths(0, ft.Hosts()-1, subflows), nil, nil
	case "vl2":
		v, err := topo.NewVL2(eng, topo.VL2Config{HostsPerToR: 2, ToRs: 8, Aggs: 4, Ints: 4})
		if err != nil {
			return nil, nil, err
		}
		return v.Paths(0, v.Hosts()-1, subflows), nil, nil
	case "bcube":
		b, err := topo.NewBCube(eng, topo.BCubeConfig{N: 3, K: 1})
		if err != nil {
			return nil, nil, err
		}
		return b.Paths(0, b.Hosts()-1, subflows), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown topology %q", name)
	}
}
