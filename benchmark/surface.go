package main

// surface.go is the only file of the benchmark that imports
// mptcpsim/internal/...: every other file reaches the simulator through the
// aliases and adapters below. Later changes may not edit benchmark/, so this
// file — together with the methods the drivers call on the aliased types,
// listed in README.md under "Pinned surface" — is what a refactor has to
// keep compiling.
//
// The adapters that call a figure, a sweep or a constructor also record the
// traced pass's span around that call; workloads.go records the spans
// around the methods it calls itself (Engine.Run, Manager.Start,
// Manager.CutLive). Nothing is recorded inside the program.

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/check"
	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/exp"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/topo"
)

type (
	simEngine = sim.Engine
	simTime   = sim.Time

	link       = netem.Link
	linkConfig = netem.LinkConfig
	packet     = netem.Packet
	packetPool = netem.Pool
	netPath    = netem.Path

	conn       = mptcp.Conn
	connConfig = mptcp.Config
	view       = core.View
	algorithm  = core.Algorithm

	fatTree     = topo.FatTree
	flowManager = flows.Manager

	meter         = energy.Meter
	invariants    = check.Invariants
	recorder      = obsv.Recorder
	journal       = campaign.Journal
	scenario      = backend.Scenario
	backendResult = backend.Result
)

const (
	simMicrosecond = sim.Microsecond
	simMillisecond = sim.Millisecond
	simSecond      = sim.Second
	mbps           = netem.Mbps
	gbps           = netem.Gbps
)

func newEngine(seed int64) *simEngine                 { return sim.NewEngine(seed) }
func newLink(eng *simEngine, cfg linkConfig) *link    { return netem.NewLink(eng, cfg) }
func newAlgorithm(name string) (algorithm, error)     { return core.New(name) }
func percentile(xs []float64, p float64) float64      { return stats.Percentile(xs, p) }
func newInvariants(eng *simEngine) *invariants        { return check.New(eng) }
func perGigabit(joules float64, bytes uint64) float64 { return energy.PerGigabit(joules, bytes) }
func fluidPoint(sc scenario) (backendResult, error) {
	return backend.FluidEngine{}.Run(context.Background(), sc)
}
func packetPoint(sc scenario) (backendResult, error) {
	return backend.PacketEngine{}.Run(context.Background(), sc)
}
func newConn(eng *simEngine, cfg connConfig, id uint64, paths ...*netPath) (*conn, error) {
	return mptcp.New(eng, cfg, id, paths...)
}

// newFatTree builds a k-ary fat tree with the paper's link parameters.
func newFatTree(tr *tracer, eng *simEngine, k int) (*fatTree, error) {
	defer tr.span("topo.NewFatTree")()
	return topo.NewFatTree(eng, topo.FatTreeConfig{K: k})
}

// newConnMeter attaches and starts the i7 host power meter the datacenter
// figures use, probing the given connections.
func newConnMeter(eng *simEngine, conns ...*conn) *meter {
	m := energy.NewMeter(eng, energy.NewI7(), energy.ConnProbe(conns...), 0)
	m.Start()
	return m
}

// newDiscardRecorder returns a recorder streaming its JSONL to io.Discard.
func newDiscardRecorder(eng *simEngine) *recorder {
	return obsv.NewRecorder(eng, obsv.Meta{Experiment: "benchmark"}, obsv.Options{Stream: io.Discard})
}

// openJournal opens an unsharded campaign journal under dir.
func openJournal(dir string) (*journal, error) {
	j, _, err := campaign.OpenJournal(dir, campaign.Shard{}, campaign.DefaultSyncEvery)
	return j, err
}

func journalEntry(i int) campaign.Entry {
	return campaign.Entry{ID: "unit" + strconv.Itoa(i), Status: campaign.StatusDone, Digest: "0", Events: uint64(i)}
}

// dispatch fans n trivial items over the runner's pool with one worker.
func dispatch(n int) error {
	_, errs := runner.MapErrCtx(context.Background(), 1, n, func(i int) (int, error) { return i, nil })
	return runner.FirstErr(errs)
}

// guard turns a panic raised under fn — an invariant violation under
// Check, a figure's fail-fast re-raise — into an error, so a failing
// repetition is counted instead of ending the benchmark.
func guard(what string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", what, r)
		}
	}()
	return fn()
}

// figConfig is the part of exp.Config the benchmark sets; Workers is
// always 1.
type figConfig struct {
	Seed      int64
	Scale     float64
	Scenario  string
	Algorithm string
	Check     bool
	OutDir    string
}

// figure is what the benchmark keeps of an exp.Result.
type figure struct {
	Table  string
	Events uint64
	Flows  uint64
	Wall   time.Duration
	cols   []string
	rows   [][]string
}

// runFigure runs one registered experiment and rejects every outcome the
// issue counts as a failed operation: a panic, an interrupted result, an
// empty table, or a note naming a quarantined or skipped run.
func runFigure(tr *tracer, id string, c figConfig) (figure, error) {
	var f figure
	err := guard("exp "+id, func() error {
		e, ok := exp.Lookup(id)
		if !ok {
			return fmt.Errorf("exp: no experiment %q", id)
		}
		end := tr.span("Experiment.Run:" + id)
		start := time.Now()
		res := e.Run(exp.Config{
			Seed: c.Seed, Scale: c.Scale, Workers: 1,
			Scenario: c.Scenario, Algorithm: c.Algorithm,
			Check: c.Check, OutDir: c.OutDir,
		})
		f.Wall = time.Since(start)
		end()
		if res.Interrupted {
			return fmt.Errorf("exp %s: interrupted", id)
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("exp %s: empty table", id)
		}
		for _, n := range res.Notes {
			if strings.HasPrefix(n, "run "+id+"[") {
				return fmt.Errorf("exp %s: %s", id, n)
			}
		}
		f.Table, f.Events, f.Flows = res.String(), res.Events, res.Flows
		f.cols, f.rows = res.Columns, res.Rows
		return nil
	})
	return f, err
}

// column returns the named column of the figure's table as integers.
func (f figure) column(name string) ([]uint64, error) {
	for i, c := range f.cols {
		if c != name {
			continue
		}
		out := make([]uint64, len(f.rows))
		for r, row := range f.rows {
			v, err := strconv.ParseUint(row[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %s row %d: %w", name, r, err)
			}
			out[r] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("no column %q", name)
}

// sweepOutcome is what the benchmark keeps of a backend.SweepResult.
type sweepOutcome struct {
	Table    string
	Points   int
	Checked  int
	Failed   int // disagreeing spot checks
	MaxDelta float64
	Events   uint64 // packet-engine events of the spot checks
}

// sweepLoads is the cross-load axis: 0, then n−1 loads evenly spaced over
// [0.045, 0.15]. The documented axis (-loads 0:0.15:28) is not used because
// it is not clean: checked in full, hetdelay/cubic disagrees with the fluid
// model by 0.09–0.105 for every load in [0.020, 0.037] (README.md, "What the
// first run shows"), so whether a run passes would depend on whether its
// seed samples that band. On this axis the largest delta over all 1008
// points of the 28-load grid is 0.059.
func sweepLoads(n int) []float64 {
	loads := []float64{0}
	for i := 0; i < n-1; i++ {
		l := 0.15
		if n > 2 {
			l = 0.045 + 0.105*float64(i)/float64(n-2)
		}
		loads = append(loads, l)
	}
	return loads
}

// runSweep runs the first nTopos topologies and all algorithms of the
// documented default grid over sweepLoads(nLoads) on the named backend mix
// ("hybrid" or "fluid"), one backend.Sweep per topology, each spot-checking
// the fraction spot of its own points. One sweep over all topologies would draw its sample across
// them, and a packet run on threepath costs twice one on the others (0.23 s
// against 0.11 s): the cost of a sweep would follow the seed's draw by ±11 %.
// Per topology, every seed checks the same number of points on each.
func runSweep(tr *tracer, seed int64, nTopos, nLoads int, spot float64, mix string) (sweepOutcome, error) {
	var out sweepOutcome
	err := guard("backend.Sweep", func() error {
		spec := backend.DefaultSweepSpec()
		spec.Seed, spec.Workers, spec.Backend, spec.SpotCheck = seed, 1, mix, spot
		spec.Loads = sweepLoads(nLoads)
		var tables []string
		for _, topology := range backend.DefaultSweepSpec().Topologies[:nTopos] {
			spec.Topologies = []string{topology}
			end := tr.span("backend.Sweep:" + mix)
			res, err := backend.Sweep(context.Background(), spec)
			end()
			if err != nil {
				return err
			}
			tables = append(tables, res.Format())
			out.Points += len(res.Points)
			out.Checked += res.Checked
			out.Failed += len(res.Disagreements)
			for _, p := range res.Points {
				if !p.Checked {
					continue
				}
				out.Events += p.Packet.Events
				if p.Delta > out.MaxDelta {
					out.MaxDelta = p.Delta
				}
			}
		}
		out.Table = strings.Join(tables, "\n")
		return nil
	})
	return out, err
}

// miceConfig is the churn-mice population: web-only bounded-Pareto(1.2)
// 4–16 KB objects, Poisson arrivals, lia over two subflows.
func miceConfig(total int, rate float64) flows.Config {
	return flows.Config{
		Algorithm:  "lia",
		Subflows:   2,
		Arrivals:   flows.Poisson{Rate: rate},
		TotalFlows: total,
		Mix:        []flows.ClassMix{{Class: flows.Web, Weight: 1}},
		WebSizes:   flows.SizeDist{Alpha: 1.2, Min: 4 << 10, Max: 16 << 10},
	}
}

// oneSegmentConfig makes every flow a single segment, so admit → finish is
// all a flow's lifecycle consists of.
func oneSegmentConfig(total int) flows.Config {
	c := miceConfig(total, 20000)
	c.WebSizes = flows.SizeDist{Min: 1000, Max: 1000}
	return c
}

func newFlowManager(tr *tracer, eng *simEngine, net flows.Net, cfg flows.Config) (*flowManager, error) {
	defer tr.span("flows.New")()
	return flows.New(eng, net, cfg)
}
