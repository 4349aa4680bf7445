package backend

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// SweepSpec describes a (topology × algorithm × load) grid and how to run
// it. The zero values of Seed/SpotCheck/Tol/Backend take defaults;
// Topologies/Algorithms/Loads are required.
type SweepSpec struct {
	Topologies []string
	Algorithms []string
	Loads      []float64

	// Seed derives both the packet-engine seeds and the spot-check sample
	// (default 1). Two sweeps with the same spec and seed run the exact
	// same work regardless of worker count.
	Seed int64

	// Backend selects the engine mix: "fluid" (all points fluid, no
	// checks), "packet" (all points packet), or "hybrid" (default: all
	// points fluid, a deterministic sample re-run on packet and compared).
	Backend string

	// SpotCheck is the fraction of points hybrid mode re-runs on the
	// packet engine, rounded up (default 0.05; negative disables).
	SpotCheck float64

	// Tol is the maximum per-path share disagreement a spot check accepts
	// (default 0.10 — the conformance tolerance).
	Tol float64

	// Workers caps run-level parallelism (0 = one per CPU, 1 = inline).
	Workers int

	// Sup supervises every point, its Budget bounding each packet run (nil:
	// fail-fast). How points run is not what a manifest records.
	Sup *supervise.Supervisor `json:"-"`

	// Horizon/Warmup override the per-scenario defaults (60 s / 20 s).
	Horizon sim.Time
	Warmup  sim.Time
}

// DefaultSweepSpec is the stock hybrid grid mptcp-bench -sweep runs: the four
// bare N-path topologies × the algorithms whose fluid mapping holds across the
// whole default load axis × light-to-moderate cross loads. Two calibrated
// exclusions, both documented in docs/backends.md: `coupled` (Peng et al.
// show the fully coupled window has no unique equilibrium — any split over
// equally priced paths is a fixed point — so the packet run tips toward one
// path by same-instant event order while Eq. 3's solver reports one smooth
// point of the set, and which grid points land outside tolerance moves with
// any change of tie order) and loads above 0.15 (deterministic CBR cross
// traffic phase-locks against the DropTail queue, so the packet run's cross
// traffic either fully survives or fully starves — no constant-load fluid
// term matches either regime).
func DefaultSweepSpec() SweepSpec {
	return SweepSpec{
		Topologies: []string{"hetdelay", "threepath", "twopath-asym", "twopath-sym"},
		Algorithms: []string{"ewtcp", "lia", "olia", "balia", "cubic", "wvegas", "vegas", "dts", "dtsep"},
		Loads:      []float64{0, 0.05, 0.1, 0.15},
	}.WithDefaults()
}

// WithDefaults returns the spec with zero values replaced.
func (s SweepSpec) WithDefaults() SweepSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Backend == "" {
		s.Backend = "hybrid"
	}
	if s.SpotCheck == 0 {
		s.SpotCheck = 0.05
	}
	if s.Tol == 0 {
		s.Tol = 0.10
	}
	return s
}

// Point is one grid coordinate.
type Point struct {
	Topology  string
	Algorithm string
	Load      float64
}

// ID is the point's stable identity: topology/algorithm@load with the load
// in shortest-round-trip decimal form. Seeds and the spot-check sample
// derive from it, never from execution order.
func (p Point) ID() string {
	return p.Topology + "/" + p.Algorithm + "@" + strconv.FormatFloat(p.Load, 'g', -1, 64)
}

// Scenario expands the point into a runnable scenario under a spec.
func (p Point) Scenario(s SweepSpec) Scenario {
	return Scenario{
		Topology:  p.Topology,
		Algorithm: p.Algorithm,
		Load:      p.Load,
		Seed:      s.Seed,
		Horizon:   s.Horizon,
		Warmup:    s.Warmup,
	}
}

// Grid enumerates the points in topology-major, algorithm-middle,
// load-minor order — a pure function of the spec.
func (s SweepSpec) Grid() []Point {
	pts := make([]Point, 0, len(s.Topologies)*len(s.Algorithms)*len(s.Loads))
	for _, t := range s.Topologies {
		for _, a := range s.Algorithms {
			for _, l := range s.Loads {
				pts = append(pts, Point{Topology: t, Algorithm: a, Load: l})
			}
		}
	}
	return pts
}

// SpotIndices picks the hybrid sample: every point is ranked by the FNV-1a
// hash of its ID salted with the seed, and the ceil(SpotCheck·N) smallest
// hashes win. The sample is a function of point identities and the seed
// only — worker count, execution order and grid permutations of the other
// points cannot change whether a given point is checked.
func (s SweepSpec) SpotIndices(pts []Point) map[int]bool {
	if s.SpotCheck <= 0 || len(pts) == 0 {
		return nil
	}
	want := int(math.Ceil(s.SpotCheck * float64(len(pts))))
	if want > len(pts) {
		want = len(pts)
	}
	type ranked struct {
		hash uint64
		idx  int
	}
	rank := make([]ranked, len(pts))
	for i, p := range pts {
		// Seed first: FNV-1a mixes each byte into everything after it, so a
		// trailing seed would barely move the high bits and the ranking
		// would be nearly seed-invariant.
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", s.Seed, p.ID())
		rank[i] = ranked{h.Sum64(), i}
	}
	sort.Slice(rank, func(a, b int) bool {
		if rank[a].hash != rank[b].hash {
			return rank[a].hash < rank[b].hash
		}
		return rank[a].idx < rank[b].idx
	})
	picked := make(map[int]bool, want)
	for _, r := range rank[:want] {
		picked[r.idx] = true
	}
	return picked
}

// PointResult is one grid point's outcome. Fluid is set unless the sweep
// ran packet-only; Packet is set for packet-only points and hybrid spot
// checks. Delta/OK are meaningful when Checked.
type PointResult struct {
	Point
	Fluid   *Result
	Packet  *Result
	Checked bool
	Delta   float64 // max per-path |fluid share − packet share|
	OK      bool
}

// SweepResult is the full grid outcome.
type SweepResult struct {
	Points  []PointResult
	Checked int

	// Disagreements names every checked point whose fluid answer could not
	// be trusted: share disagreement beyond tolerance, or a non-converged
	// fluid solve. Empty means the sweep passed.
	Disagreements []string
}

// OK reports whether every check passed.
func (r *SweepResult) OK() bool { return len(r.Disagreements) == 0 }

// Format renders the sweep as a plain byte-stable table: one row per
// point, with delta/status columns on checked rows.
func (r *SweepResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %-8s %10s %8s %8s  %s\n",
		"point", "fidelity", "agg_mbps", "share0", "delta", "status")
	for _, p := range r.Points {
		prim := p.Fluid
		if prim == nil {
			prim = p.Packet
		}
		status := "-"
		delta := "-"
		if p.Checked {
			delta = fmt.Sprintf("%.3f", p.Delta)
			if p.OK {
				status = "ok"
			} else if p.Fluid != nil && !p.Fluid.Converged {
				status = "no-converge"
			} else {
				status = "FAIL"
			}
		} else if prim.Fidelity == "fluid" && !prim.Converged {
			status = "no-converge"
		}
		fmt.Fprintf(&sb, "%-40s %-8s %10.2f %8.3f %8s  %s\n",
			p.ID(), prim.Fidelity, prim.AggregateBps/1e6, prim.Shares[0], delta, status)
	}
	fmt.Fprintf(&sb, "points %d  checked %d  disagreements %d\n",
		len(r.Points), r.Checked, len(r.Disagreements))
	return sb.String()
}

// Sweep fans the grid out. In hybrid mode (the default) every point gets a
// fluid answer, a deterministic seed-derived sample is re-run on the
// packet engine, and each sampled point's per-path shares are compared
// within Tol — the methodology EXPERIMENTS.md's "Hybrid sweeps" section
// documents. The sweep itself never fails on a disagreement; callers gate
// on SweepResult.OK (mptcp-bench exits non-zero naming the points).
//
// A point that fails (unknown name, cancelled context, starved scenario,
// or under Sup a watchdog trip or panic) aborts the sweep.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	spec = spec.WithDefaults()
	switch spec.Backend {
	case "fluid", "packet", "hybrid":
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (have packet, fluid, hybrid)", spec.Backend)
	}
	pts := spec.Grid()
	if len(pts) == 0 {
		return nil, fmt.Errorf("backend: empty sweep grid")
	}
	for _, p := range pts {
		if err := p.Scenario(spec).WithDefaults().Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.ID(), err)
		}
	}

	out := &SweepResult{Points: make([]PointResult, len(pts))}

	if spec.Backend == "packet" {
		results, err := sweepPass(ctx, spec, pts, true)
		if err != nil {
			return nil, err
		}
		for i := range pts {
			out.Points[i] = PointResult{Point: pts[i], Packet: &results[i]}
		}
		return out, nil
	}

	// Fluid pass over the whole grid.
	results, err := sweepPass(ctx, spec, pts, false)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		out.Points[i] = PointResult{Point: pts[i], Fluid: &results[i]}
	}
	if spec.Backend == "fluid" {
		return out, nil
	}

	// Packet spot checks on the seed-derived sample.
	picked := spec.SpotIndices(pts)
	var sample []Point
	var at []int
	for i := range pts {
		if picked[i] {
			sample, at = append(sample, pts[i]), append(at, i)
		}
	}
	checks, err := sweepPass(ctx, spec, sample, true)
	if err != nil {
		return nil, err
	}
	for k, i := range at {
		pr := &out.Points[i]
		pr.Packet = &checks[k]
		pr.Checked = true
		pr.Delta = shareDelta(pr.Fluid.Shares, pr.Packet.Shares)
		pr.OK = pr.Fluid.Converged && pr.Delta <= spec.Tol
		out.Checked++
		if !pr.OK {
			out.Disagreements = append(out.Disagreements,
				fmt.Sprintf("%s: delta %.3f tol %.2f converged %v", pr.ID(), pr.Delta, spec.Tol, pr.Fluid.Converged))
		}
	}
	return out, nil
}

// sweepPass runs pts on the packet or the fluid engine through supervise.Map
// under spec.Sup and returns the results by index, or the first failure by
// index: the point's own error (errors.Is sees a cancelled context), else
// its supervised verdict, or for a point never started the context's cause.
func sweepPass(ctx context.Context, spec SweepSpec, pts []Point, packet bool) ([]Result, error) {
	errs := make([]error, len(pts))
	results, reports := supervise.Map(ctx, spec.Sup, spec.Workers, len(pts),
		func(i int) supervise.RunID {
			return supervise.RunID{Seed: spec.Seed, Scenario: pts[i].ID(), Phase: "sweep"}
		},
		func(i int, wd *supervise.Watchdog) (res Result, _ error) {
			if packet {
				res, errs[i] = runPacket(ctx, pts[i].Scenario(spec), obsv.CheckOff, wd)
			} else {
				res, errs[i] = FluidEngine{}.Run(ctx, pts[i].Scenario(spec))
			}
			return res, errs[i]
		})
	for i, rep := range reports {
		switch {
		case errs[i] != nil:
			return nil, errs[i]
		case rep.Outcome.Failed():
			return nil, fmt.Errorf("backend: %s %s: %s", pts[i].ID(), rep.Outcome, rep.Err.Msg)
		case rep.Outcome == supervise.Skipped:
			return nil, fmt.Errorf("backend: %s skipped: %w", pts[i].ID(), context.Cause(ctx))
		}
	}
	return results, nil
}
