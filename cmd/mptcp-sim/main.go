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
// The flags are a front-end: they lower to one backend.Scenario, which the
// same Validate, builder and run sequence every other front-end uses check,
// wire and run (backend.Run; ARCHITECTURE.md, "How a run is assembled"). -topo names a registered
// topology (internal/topo); -subflows fans that many subflows round-robin
// over a two-path topology's routes and asks a fabric for that many routes
// from host 0 to the last host; -hosts sizes ec2; -cross adds Pareto bursts
// on a topology that has cross-traffic entries and is an error elsewhere.
// -seed picks the base random seed (runs use seed..seed+runs-1), -rwnd caps
// the connection receive window in segments, and -timeout sets a per-run
// wall-clock deadline enforced by the run supervisor. -fault takes a
// schedule in the internal/faults grammar: per path, down@T/up@T,
// flap@START+PERIOD/DOWNFOR, ramp@START+DUR=RATE/DELAY (rate and delay move
// linearly to the targets — a user walking away from an access point),
// loss@T=P, rate@T=R and delay@T=D.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/chaos"
	"mptcpsim/internal/check"
	"mptcpsim/internal/core"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

func main() {
	ctx, stop := supervise.SignalContext()
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mptcp-sim:", err)
		os.Exit(supervise.ExitCode(err))
	}
}

// invocation is one parsed command line: the Scenario the world flags lower
// to (its Seed is -seed, the first run's), and how to run and observe it.
type invocation struct {
	sc      backend.Scenario
	runs    int
	workers int
	timeout time.Duration

	trace     string
	sampleInt time.Duration
	check     bool

	soak, soakDir string
	soakEvents    uint64
	inject        int
	replay        string
}

// size is what -topo builds: ec2 takes -hosts; the fabrics have no flag and
// come small enough that an ad-hoc run finishes in seconds.
func size(name string, hosts int) int {
	switch name {
	case "ec2":
		return hosts
	case "fattree":
		return 4
	case "vl2":
		return 8
	case "bcube":
		return 3
	}
	return 0
}

// parse turns the command line into an invocation: flag combinations that
// make no sense together are rejected here, everything about the world by
// the lowered Scenario's Validate.
func parse(args []string) (invocation, error) {
	fs := flag.NewFlagSet("mptcp-sim", flag.ContinueOnError)
	var (
		topoName  = fs.String("topo", "twopath", "scenario: "+strings.Join(topo.Names(), ", "))
		alg       = fs.String("alg", "lia", "congestion control: "+strings.Join(core.Names(), ", "))
		subflows  = fs.Int("subflows", 2, "subflows, fanned round-robin over a two-path topology's routes")
		hosts     = fs.Int("hosts", 16, "hosts for the ec2 topology")
		duration  = fs.Duration("duration", 30*time.Second, "simulated duration")
		transfer  = fs.Int64("bytes", 0, "transfer size (0 = long-lived flow)")
		seed      = fs.Int64("seed", 1, "random seed")
		cross     = fs.Bool("cross", false, "add Pareto bursty cross traffic (topologies with a cross-traffic entry)")
		rwnd      = fs.Int64("rwnd", 0, "connection receive window in segments (0 = unlimited)")
		fault     = fs.String("fault", "", `fault schedule, e.g. "path1:down@2s,up@5s;path0:flap@1s+6s/500ms" or "wifi:ramp@5s+10s=1Mbps/100ms" (see internal/faults)`)
		runs      = fs.Int("runs", 1, "independent runs with seeds seed..seed+runs-1")
		workers   = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent runs when -runs > 1")
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
		return invocation{}, err
	}
	inv := invocation{
		runs: *runs, workers: *workers, timeout: *timeout,
		trace: *traceOut, sampleInt: *sampleInt, check: *checkInv,
		soak: *soakSpec, soakDir: *soakDir, soakEvents: *soakEv, inject: *inject, replay: *replay,
		sc: backend.Scenario{
			Topology: *topoName, Net: topo.Params{Size: size(*topoName, *hosts)},
			Algorithm: *alg, Subflows: *subflows, TransferBytes: *transfer, Rwnd: *rwnd,
			Cross: *cross, Faults: *fault, EnergyModel: "i7",
			Seed: *seed, Horizon: sim.FromDuration(*duration),
		},
	}
	switch {
	case *churn <= 0 && (*arrival != 0 || *maxFlows != 0):
		return invocation{}, fmt.Errorf("-arrival and -max-flows require -churn")
	case *churn > 0 && (*transfer != 0 || *cross || *fault != "" || *rwnd != 0 || *runs > 1):
		// The population is open-loop: the single-connection knobs have no
		// meaning, and accepting them silently would misreport the scenario.
		return invocation{}, fmt.Errorf("-churn is incompatible with -bytes, -cross, -fault, -rwnd and -runs > 1")
	case *churn > 0:
		pop := &flows.Config{Algorithm: *alg, Subflows: *subflows, TotalFlows: *churn, MaxConcurrent: *maxFlows}
		if *arrival > 0 {
			pop.Arrivals = flows.Poisson{Rate: *arrival}
		}
		inv.sc.Algorithm, inv.sc.Subflows, inv.sc.EnergyModel, inv.sc.Population = "", 0, "none", pop
	}
	return inv, inv.sc.Validate()
}

func run(ctx context.Context, args []string) error {
	inv, err := parse(args)
	if err != nil {
		return err
	}
	if inv.replay != "" {
		return runReplay(inv.replay, inv.timeout, inv.soakEvents)
	}
	if inv.soak != "" {
		return runSoak(ctx, inv.soak, inv.sc.Seed, inv.workers, inv.soakDir, inv.timeout, inv.soakEvents, inv.inject)
	}

	// Every run of a batch executes under the supervisor: a panicking or
	// invariant-violating seed is quarantined into its row instead of
	// killing the batch, and -timeout bounds each run's wall clock; a single
	// run is supervised only when a -timeout asks for the watchdog. A signal
	// drains the in-flight seeds and skips the rest.
	sup := supervise.New(supervise.Budget{Wall: inv.timeout})
	phase := "adhoc"
	if inv.sc.Population != nil {
		phase = "churn"
	}
	runID := func(i int) supervise.RunID {
		return supervise.RunID{Seed: inv.sc.Seed + int64(i), Scenario: inv.sc.Topology, Phase: phase}
	}
	if inv.runs <= 1 {
		if inv.timeout <= 0 {
			o, err := execute(ctx, inv, inv.sc.Seed, nil)
			if err != nil {
				return err
			}
			return o.report(inv)
		}
		var o outcome
		rep := sup.Run(ctx, runID(0), func(wd *supervise.Watchdog) (err error) {
			o, err = execute(ctx, inv, inv.sc.Seed, wd)
			return err
		})
		if rep.Outcome.Failed() {
			return rep.Err
		}
		return o.report(inv)
	}

	outs, reports := supervise.Map(ctx, sup, inv.workers, inv.runs, runID,
		func(i int, wd *supervise.Watchdog) (outcome, error) {
			return execute(ctx, inv, inv.sc.Seed+int64(i), wd)
		})
	fmt.Printf("%-6s %12s %10s %12s %10s %10s %8s\n",
		"seed", "goodput_mbps", "acked_mb", "energy_j", "mean_w", "events", "wall_s")
	var sumGoodput, sumJoules float64
	var failed []string
	var skipped, cut int
	for i, o := range outs {
		seed := inv.sc.Seed + int64(i)
		switch rep := reports[i]; {
		case rep.Outcome == supervise.Skipped:
			fmt.Printf("%-6d skipped (interrupted before start)\n", seed)
			skipped++
		case rep.Outcome.Failed():
			// Report the failure in the row, keep printing the other seeds,
			// and fail the whole invocation below. A bad seed must not be
			// silently averaged away — nor hide the remaining results.
			fmt.Printf("%-6d FAILED: %v\n", seed, rep.Err)
			failed = append(failed, fmt.Sprintf("\n  seed %d: %v", seed, rep.Err))
		case o.interrupted:
			// Stopped mid-run by the signal: the partial metrics would skew
			// the mean, so the row reports how far it got and nothing more.
			fmt.Printf("%-6d interrupted at %.1fs simulated (partial, excluded from mean)\n",
				seed, o.w.Eng.Now().Seconds())
			cut++
		default:
			conn, meter := o.w.Conn, o.w.Meter
			fmt.Printf("%-6d %12.2f %10.1f %12.1f %10.2f %10d %8.2f\n",
				seed, conn.MeanThroughputBps()/1e6, float64(conn.AckedBytes())/(1<<20),
				meter.Joules(), meter.MeanPower(), o.w.Eng.Processed(), o.wallSecs)
			sumGoodput += conn.MeanThroughputBps()
			sumJoules += meter.Joules()
		}
	}
	done := len(outs) - len(failed) - skipped - cut
	if done > 0 {
		fmt.Printf("mean over %d runs: goodput %.2f Mb/s, energy %.1f J\n",
			done, sumGoodput/float64(done)/1e6, sumJoules/float64(done))
	}
	fmt.Printf("outcomes: %s\n", sup.Counts())
	if skipped+cut > 0 {
		// Exit 4: a signal stopped the batch early; completed rows above
		// are valid and were flushed before exit.
		return supervise.InterruptedErr(
			"interrupted: %d of %d runs completed (%d cut mid-run, %d never started)",
			done, len(outs), cut, skipped)
	}
	if len(failed) > 0 {
		// Exit 3: the batch completed and the surviving rows above are
		// valid, but at least one run was quarantined.
		return supervise.QuarantinedErr("%d of %d runs quarantined:%s", len(failed), len(outs), strings.Join(failed, ""))
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
		return supervise.InterruptedErr(
			"soak interrupted after %d scenarios (%d quarantined)", res.Scenarios, len(res.Failures))
	}
	if res.Failed() {
		return supervise.QuarantinedErr("soak quarantined %d of %d scenarios", len(res.Failures), res.Scenarios)
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

// tracePath names the run record file for one seed. Single runs use the
// -trace argument verbatim; multi-run invocations insert the seed before the
// extension so every run keeps its own record.
func (inv invocation) tracePath(seed int64) string {
	if inv.trace == "" || inv.runs <= 1 {
		return inv.trace
	}
	ext := filepath.Ext(inv.trace)
	return strings.TrimSuffix(inv.trace, ext) + fmt.Sprintf("_seed%d", seed) + ext
}

// outcome is one finished run: the world it ran (still readable), what the
// observer saw, and for a population the exact per-flow samples of the
// completed flows its percentiles are taken over.
type outcome struct {
	w                   *backend.World
	wallSecs            float64
	checks              uint64
	trace               string
	fcts, gputs, joules []float64
	// interrupted: a signal stopped this run before its horizon; the
	// metrics cover only the simulated time that elapsed.
	interrupted bool
}

// execute runs the invocation's scenario for one seed through backend.Run,
// observed per -trace and -check (collecting, so a violating seed of a batch
// reports beside the surviving rows). A finite transfer ends the run when it
// completes, a cancelled ctx at the next 100 ms of simulated time.
func execute(ctx context.Context, inv invocation, seed int64, wd *supervise.Watchdog) (outcome, error) {
	sc, o := inv.sc, outcome{trace: inv.tracePath(seed)}
	sc.Seed = seed
	oc := obsv.Config{
		Meta: obsv.Meta{Experiment: "adhoc", Scenario: sc.Topology, Algorithm: sc.Algorithm, Seed: seed},
		Path: o.trace, Interval: sim.FromDuration(inv.sampleInt),
	}
	if inv.check {
		oc.Check = obsv.CheckCollect
	}
	if sc.Population != nil {
		pop := *sc.Population
		pop.Emit = func(r flows.Report) {
			if r.Shed == "" {
				o.fcts = append(o.fcts, r.FCT.Seconds())
				o.gputs = append(o.gputs, r.GoodputBps)
				o.joules = append(o.joules, r.Joules)
			}
		}
		sc.Population, oc.Meta.Experiment, oc.Meta.Algorithm = &pop, "churn", pop.Algorithm
	}
	var checker *check.Invariants
	start := time.Now()
	w, err := backend.Run(sc, oc, wd, backend.Stages{
		Attach: func(w *backend.World, obs *obsv.Observer) {
			w.Observe(obs)
			checker = obs.Inv()
			if sc.TransferBytes > 0 {
				w.Conn.OnComplete = func(sim.Time) {
					w.Meter.Stop()
					w.Eng.Stop()
				}
			}
			supervise.StopOnCancel(ctx, w.Eng, 100*sim.Millisecond)
		},
		Summary: func(w *backend.World, obs *obsv.Observer) {
			if w.Conn != nil {
				obs.Summary("goodput_mbps", w.Conn.MeanThroughputBps()/1e6)
				obs.Summary("energy_j", w.Meter.Joules())
				obs.Summary("reinjected_segs", float64(w.Conn.ReinjectedSegs()))
				return
			}
			st := w.Pop.Stats()
			obs.Summary("flows_offered", float64(st.Offered))
			obs.Summary("flows_completed", float64(st.Completed))
			obs.Summary("flows_shed", float64(st.ShedCapacity))
			obs.Summary("flows_cut", float64(st.Cut))
		},
	})
	if err != nil {
		return o, err
	}
	o.w, o.wallSecs, o.interrupted = w, time.Since(start).Seconds(), ctx.Err() != nil
	if checker != nil {
		o.checks = checker.Checks()
	}
	return o, nil
}

// report prints a single run in full: the per-subflow state of a measured
// connection, or a population's offered / completed / shed / cut
// reconciliation and per-flow percentiles.
func (o outcome) report(inv invocation) error {
	w, eng := o.w, o.w.Eng
	if w.Conn != nil && w.Conn.Done() {
		fmt.Printf("transfer completed at %.3fs\n", w.Conn.CompletedAt().Seconds())
	}
	if inv.check {
		fmt.Printf("checks:  %d invariant evaluations, clean\n", o.checks)
	}
	if o.trace != "" {
		fmt.Printf("trace:   %s\n", o.trace)
	}
	fmt.Printf("simulated %.1fs in %.2fs wall (%d events)\n", eng.Now().Seconds(), o.wallSecs, eng.Processed())
	if w.Conn == nil {
		st := w.Pop.Stats()
		fmt.Printf("flows:   %d offered = %d completed + %d shed + %d cut (peak live %d)\n",
			st.Offered, st.Completed, st.ShedCapacity, st.Cut, st.PeakLive)
		if len(o.fcts) > 0 {
			fmt.Printf("fct:     p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
				stats.Percentile(o.fcts, 50), stats.Percentile(o.fcts, 95), stats.Percentile(o.fcts, 99))
			fmt.Printf("goodput: p50 %.2f Mb/s\n", stats.Percentile(o.gputs, 50)/1e6)
			fmt.Printf("energy:  p50 %.3f J/flow  p99 %.3f J/flow (marginal over idle)\n",
				stats.Percentile(o.joules, 50), stats.Percentile(o.joules, 99))
		}
		if o.interrupted {
			return supervise.InterruptedErr("interrupted at %.1fs simulated (%d of %d flows offered)",
				eng.Now().Seconds(), st.Offered, inv.sc.Population.TotalFlows)
		}
		return nil
	}
	fmt.Printf("goodput: %.2f Mb/s (%.1f MB acked)\n",
		w.Conn.MeanThroughputBps()/1e6, float64(w.Conn.AckedBytes())/(1<<20))
	fmt.Printf("energy:  %.1f J (mean %.2f W)\n", w.Meter.Joules(), w.Meter.MeanPower())
	if reinj := w.Conn.ReinjectedSegs(); reinj > 0 {
		fmt.Printf("failover: %d segments re-injected onto surviving subflows\n", reinj)
	}
	for _, s := range w.Conn.Subflows() {
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
	if o.interrupted {
		// Exit 4: the metrics above cover the simulated time that elapsed
		// before the signal; trace and meter were flushed.
		return supervise.InterruptedErr("interrupted at %.1fs simulated (of %s requested)",
			eng.Now().Seconds(), inv.sc.Horizon.Duration())
	}
	return nil
}
