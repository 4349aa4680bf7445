package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A workload is one fixed-input batch run of the simulator. Its inputs are
// generated from the seed alone; the sizes below are frozen (README.md,
// "Sizing") so that one timed repetition takes 1–2 s on the reference box
// and a run of run_seconds passes over the whole batch about five times.
type workload struct {
	name string
	// unit names what work_per_sec counts on this workload.
	unit string
	// inputs is how many inputs the batch of one run holds, each a
	// repetition with a seed of its own; cpu_s is the time of the batch.
	inputs int
	// extra is why the full suite runs a workload that BENCHMARK.json does
	// not name, and so the driver does not gate; "" for the gated ones.
	extra string
	// run executes one repetition at the given size.
	run func(env *repEnv, seed int64, sz sizeClass) (outcome, error)
	// priced, when set, prices layers of this workload for the traced pass
	// by running the repetition's input with them switched off. full is
	// the time of the complete input; best runs a variant twice, counts
	// both as operations and returns the faster time. The metrics it
	// returns are named in pricedUnits.
	priced func(env *repEnv, seed int64, sz sizeClass, full float64, best func(func() (float64, error)) float64) map[string]float64
}

// sizeClass selects one of a workload's three frozen input sizes.
type sizeClass int

const (
	sizeFull  sizeClass = iota // the timed repetition
	sizeWarm                   // the set-up repetition
	sizeSmoke                  // the tier-1 test
)

// repEnv is what a repetition gets besides its seed: the span recorder
// (nil with tracing off) and the directory temporary records go under.
type repEnv struct {
	tr     *tracer
	outDir string
	// observe selects the observability layers faults-observed turns on;
	// the traced pass clears one or both to price them.
	check, records bool
}

// outcome is one repetition's result.
type outcome struct {
	// digest is the SHA-256 of every rendered table plus the event count:
	// a simulator-only speed-up must leave it unchanged.
	digest string
	events uint64
	// work is the input-determined amount of work done, in workload.unit.
	work float64
	// ops and failedOps count operations beyond the repetition itself
	// (sweep-hybrid: one per packet spot check).
	ops, failedOps int
	// counters are the exact per-layer counts this workload yields.
	counters map[string]float64
}

func digestOf(events uint64, tables ...string) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "events=%d", events)
	return hex.EncodeToString(h.Sum(nil))
}

// The driver's time limit holds four workloads at the run length the shared
// reference host needs (README.md, "Bounds and the noise of the box"): the
// four whose layers no other workload reaches are in BENCHMARK.json, the two
// marked extra run in the full suite only.
var workloads = []workload{
	{name: "algs-twopath", unit: "figures", inputs: 2, run: runAlgsTwoPath,
		extra: "fig6 then fig9: the paper's algorithm comparison on few long-lived 2-subflow connections; sim, netem, tcp and core do all the work; the n = 2 control for dc-fattree"},
	{name: "dc-fattree", unit: "runs", inputs: 3, run: runDCFatTree},
	{name: "churn-open", unit: "flows", inputs: 3, run: runChurnOpen,
		extra: "stock churn figure, open regime, 3 algorithms: ~4500 events per flow, so the packet path dominates; a lifecycle-only optimisation that moves churn-mice should not move it"},
	{name: "churn-mice", unit: "flows", inputs: 3, run: runChurnMice},
	{name: "faults-observed", unit: "figures", inputs: 3, run: runFaultsObserved, priced: priceFaultsObserved},
	{name: "sweep-hybrid", unit: "points", inputs: 4, run: runSweepHybrid, priced: priceSweepHybrid},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// algs-twopath: fig6 (LIA/OLIA/Balia/ecMTCP box plots) then fig9 (DTS vs
// LIA). fig9's horizon floors at 60 simulated seconds below scale 0.2, so
// it costs the same at every smaller scale; the warm and smoke sizes leave
// it out.
var algsSizes = [...]struct {
	fig6 float64
	fig9 bool
}{
	sizeFull:  {fig6: 0.15, fig9: true},
	sizeWarm:  {fig6: 0.04},
	sizeSmoke: {fig6: 0.02},
}

func runAlgsTwoPath(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	s := algsSizes[sz]
	f6, err := runFigure(env.tr, "fig6", figConfig{Seed: seed, Scale: s.fig6})
	if err != nil {
		return outcome{}, err
	}
	out := outcome{events: f6.Events, work: 1, counters: map[string]float64{
		"exp.fig6_wall_s": f6.Wall.Seconds(),
	}}
	tables := []string{f6.Table}
	if s.fig9 {
		f9, err := runFigure(env.tr, "fig9", figConfig{Seed: seed, Scale: 0.02})
		if err != nil {
			return outcome{}, err
		}
		out.events += f9.Events
		out.work++
		out.counters["exp.fig9_wall_s"] = f9.Wall.Seconds()
		tables = append(tables, f9.Table)
	}
	out.digest = digestOf(out.events, tables...)
	return out, nil
}

// dc-fattree: the fig13 scenario at the paper's size — every one of the
// 128 hosts of a k=8 fat tree sends one long-lived LIA connection to a
// random other host over 1, 2, 4 and 8 subflows, each host under an i7
// power meter — assembled here from public functions, because the figure
// runner's horizon floors at 10 simulated seconds (8 s of host time at
// every scale, on a k=4 tree), which no run of the driver's length can
// repeat. Only the horizon is shortened; 128 random destinations also
// collide far more evenly from seed to seed than 16 do.
const dcArity = 8

var dcHorizon = [...]simTime{
	sizeFull:  150 * simMillisecond,
	sizeWarm:  25 * simMillisecond,
	sizeSmoke: 20 * simMillisecond,
}

func runDCFatTree(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	var out outcome
	var table strings.Builder
	horizon := dcHorizon[sz]
	for i, nsub := range []int{1, 2, 4, 8} {
		eng := newEngine(seed + int64(i))
		ft, err := newFatTree(env.tr, eng, dcArity)
		if err != nil {
			return outcome{}, err
		}
		hosts := ft.Hosts()
		conns := make([]*conn, hosts)
		meters := make([]*meter, hosts)
		for h := range conns {
			dst := eng.Rand().Intn(hosts - 1)
			if dst >= h {
				dst++
			}
			c, err := newConn(eng, connConfig{Algorithm: "lia"}, uint64(h+1), ft.Paths(h, dst, nsub)...)
			if err != nil {
				return outcome{}, err
			}
			conns[h], meters[h] = c, newConnMeter(eng, c)
			c.Start()
		}
		end := env.tr.span("Engine.Run")
		eng.Run(horizon)
		end()
		var joules float64
		var bytes uint64
		for h, c := range conns {
			meters[h].Flush()
			joules += meters[h].Joules()
			bytes += c.AckedBytes()
		}
		if bytes == 0 {
			return outcome{}, fmt.Errorf("dc-fattree: %d subflows delivered nothing", nsub)
		}
		fmt.Fprintf(&table, "%d %.0f %.1f %.1f\n", nsub,
			float64(bytes)*8/horizon.Seconds()/1e6, joules, perGigabit(joules, bytes))
		out.events += eng.Processed()
		out.work++
	}
	out.digest = digestOf(out.events, table.String())
	return out, nil
}

// churn-open: the stock churn figure's open regime, one run per algorithm,
// each on its own seed so that a repetition samples three flow populations
// instead of one three times.
var churnOpenSizes = [...]struct {
	scale float64
	algs  []string
}{
	sizeFull:  {scale: 0.02, algs: []string{"lia", "olia", "dts-lia"}},
	sizeWarm:  {scale: 0.01, algs: []string{"lia"}},
	sizeSmoke: {scale: 0.01, algs: []string{"lia"}},
}

func runChurnOpen(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	s := churnOpenSizes[sz]
	out := outcome{counters: map[string]float64{}}
	var tables []string
	for i, alg := range s.algs {
		f, err := runFigure(env.tr, "churn", figConfig{
			Seed: seed + int64(i), Scale: s.scale, Scenario: "open", Algorithm: alg,
		})
		if err != nil {
			return outcome{}, err
		}
		if err := addFlowCounts(out.counters, f); err != nil {
			return outcome{}, err
		}
		out.events += f.Events
		out.work += float64(f.Flows)
		tables = append(tables, f.Table)
	}
	out.digest = digestOf(out.events, tables...)
	return out, nil
}

// addFlowCounts folds the churn table's population columns into counters
// and enforces the zero-silent-loss identity on every row.
func addFlowCounts(counters map[string]float64, f figure) error {
	cols := map[string][]uint64{}
	for _, name := range []string{"offered", "completed", "shed", "cut", "peak"} {
		c, err := f.column(name)
		if err != nil {
			return fmt.Errorf("churn table: %w", err)
		}
		cols[name] = c
	}
	for r := range cols["offered"] {
		off, done, shed, cut := cols["offered"][r], cols["completed"][r], cols["shed"][r], cols["cut"][r]
		if off != done+shed+cut {
			return fmt.Errorf("churn row %d: offered %d != completed %d + shed %d + cut %d", r, off, done, shed, cut)
		}
		counters["flows.offered"] += float64(off)
		counters["flows.completed"] += float64(done)
		counters["flows.shed"] += float64(shed)
		counters["flows.cut"] += float64(cut)
		if p := float64(cols["peak"][r]); p > counters["flows.peak_live"] {
			counters["flows.peak_live"] = p
		}
	}
	return nil
}

// churn-mice: the same flows/topo/mptcp code as churn-open used the other
// way round — tens of thousands of 4–16 KB flows, so admission, Paths,
// connection build and teardown dominate and the packet path is short.
var miceFlows = [...]int{
	sizeFull:  60_000,
	sizeWarm:  15_000,
	sizeSmoke: 1_000,
}

func runChurnMice(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	eng := newEngine(seed)
	ft, err := newFatTree(env.tr, eng, 4)
	if err != nil {
		return outcome{}, err
	}
	const rate = 2000 // flows per simulated second
	total := miceFlows[sz]
	mgr, err := newFlowManager(env.tr, eng, ft, miceConfig(total, rate))
	if err != nil {
		return outcome{}, err
	}
	mgr.OnDrained = eng.Stop
	end := env.tr.span("Manager.Start")
	mgr.Start()
	end()
	end = env.tr.span("Engine.Run")
	eng.Run(simTime(4*total/rate+60) * simSecond)
	end()
	pending := eng.Pending()
	end = env.tr.span("Manager.CutLive")
	mgr.CutLive()
	end()

	st := mgr.Stats()
	if st.Offered != st.Completed+st.ShedCapacity+st.Cut {
		return outcome{}, fmt.Errorf("churn-mice: offered %d != completed %d + shed %d + cut %d",
			st.Offered, st.Completed, st.ShedCapacity, st.Cut)
	}
	out := outcome{events: eng.Processed(), work: float64(st.Offered), counters: map[string]float64{
		"flows.offered":      float64(st.Offered),
		"flows.completed":    float64(st.Completed),
		"flows.shed":         float64(st.ShedCapacity),
		"flows.cut":          float64(st.Cut),
		"flows.peak_live":    float64(st.PeakLive),
		"sim.pending_at_end": float64(pending),
	}}
	out.digest = digestOf(out.events, fmt.Sprintf("%+v", st))
	return out, nil
}

// faults-observed: the robustness figure (8 algorithms × outage, flap,
// handover) on three consecutive seeds with the invariant checker on and
// run records streaming to disk — the only workload where obsv, check,
// the energy meter trace and the fault schedules run.
var faultsSizes = [...]struct {
	seeds int
	alg   string // "" runs all eight
}{
	sizeFull:  {seeds: 3},
	sizeWarm:  {seeds: 1},
	sizeSmoke: {seeds: 1, alg: "lia"},
}

func runFaultsObserved(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	s := faultsSizes[sz]
	out := outcome{counters: map[string]float64{}}
	var tables []string
	for i := 0; i < s.seeds; i++ {
		cfg := figConfig{Seed: seed + int64(i), Scale: 0.25, Algorithm: s.alg, Check: env.check}
		if env.records {
			dir, err := os.MkdirTemp(env.outDir, "records-")
			if err != nil {
				return outcome{}, err
			}
			defer os.RemoveAll(dir)
			cfg.OutDir = dir
		}
		f, err := runFigure(env.tr, "faults", cfg)
		if err != nil {
			return outcome{}, err
		}
		if cfg.OutDir != "" {
			files, bytes, err := dirSize(cfg.OutDir)
			if err != nil {
				return outcome{}, err
			}
			if files == 0 {
				return outcome{}, fmt.Errorf("faults-observed: no run records under %s", cfg.OutDir)
			}
			out.counters["obsv.record_files"] += float64(files)
			out.counters["obsv.record_mb"] += float64(bytes) / 1e6
		}
		out.events += f.Events
		out.work++
		tables = append(tables, f.Table)
	}
	out.digest = digestOf(out.events, tables...)
	return out, nil
}

// priceFaultsObserved runs the figure bare, with the checker only and with
// records only: a layer's overhead is its variant minus bare, as a share of
// the full run.
func priceFaultsObserved(env *repEnv, seed int64, sz sizeClass, full float64, best func(func() (float64, error)) float64) map[string]float64 {
	variant := func(check, records bool) float64 {
		venv := &repEnv{outDir: env.outDir, check: check, records: records}
		return best(func() (float64, error) {
			c := cpuSeconds()
			_, err := runFaultsObserved(venv, seed, sz)
			return cpuSeconds() - c, err
		})
	}
	bare := variant(false, false)
	return map[string]float64{
		"check.overhead_share": ratio(variant(true, false)-bare, full),
		"obsv.overhead_share":  ratio(variant(false, true)-bare, full),
	}
}

func dirSize(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// sweep-hybrid: the documented default grid (4 topologies × 9 algorithms)
// over nLoads cross loads in [0, 0.15], every point on the fluid engine and
// a seed-derived sample re-run on the packet engine, swept one topology at
// a time (runSweep says why). The full size is the 1008 points of
// docs/backends.md with the sample cut from 5 % to two points per topology
// (8 spot checks), which is what fits a repetition; a run still checks 32
// distinct points because every input of its batch draws its own sample.
var sweepSizes = [...]struct {
	topos, loads int
	spot         float64 // of the 9 × loads points of one topology, rounded up
}{
	sizeFull:  {topos: 4, loads: 28, spot: 0.0075},
	sizeWarm:  {topos: 2, loads: 4, spot: 0.02},
	sizeSmoke: {topos: 2, loads: 1, spot: 0.03},
}

func runSweepHybrid(env *repEnv, seed int64, sz sizeClass) (outcome, error) {
	s := sweepSizes[sz]
	sw, err := runSweep(env.tr, seed, s.topos, s.loads, s.spot, "hybrid")
	if err != nil {
		return outcome{}, err
	}
	if sw.Checked == 0 {
		return outcome{}, fmt.Errorf("sweep-hybrid: no point was spot-checked")
	}
	return outcome{
		digest: digestOf(sw.Events, sw.Table),
		events: sw.Events,
		work:   float64(sw.Points),
		ops:    sw.Checked, failedOps: sw.Failed,
		counters: map[string]float64{
			"backend.points":                float64(sw.Points),
			"backend.checked":               float64(sw.Checked),
			"backend.conformance_max_delta": sw.MaxDelta,
		},
	}, nil
}

// priceSweepHybrid runs the grid on the fluid engine alone; the packet spot
// checks cost the rest of the hybrid run.
func priceSweepHybrid(_ *repEnv, seed int64, sz sizeClass, full float64, best func(func() (float64, error)) float64) map[string]float64 {
	s := sweepSizes[sz]
	fluid := best(func() (float64, error) {
		c := cpuSeconds()
		_, err := runSweep(nil, seed, s.topos, s.loads, s.spot, "fluid")
		return cpuSeconds() - c, err
	})
	return map[string]float64{"backend.fluid_s": fluid, "backend.packet_s": full - fluid}
}
