package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/exp"
	"mptcpsim/internal/supervise"
)

// The sweep pseudo-experiments. They are unit namespaces, not exp figures:
// a "sweep-fluid" unit solves one (topology × algorithm) row of the load
// axis on the fluid engine — a journal entry that costs microseconds — and
// a "sweep-check" unit is an ordinary packet run verifying one
// spot-checked grid point against its fluid answer.
const (
	sweepFluidExp = "sweep-fluid"
	sweepCheckExp = "sweep-check"
)

// expandSweep appends the sweep units to the manifest: per campaign seed,
// the fluid units in topology-major/algorithm-minor grid order, then the
// packet spot-check units in grid order. The spot-check sample is
// recomputed here from unit identities and the seed only
// (backend.SweepSpec.SpotIndices), so expanding the same spec always pins
// the same check units — the property resume and sharding rely on.
func expandSweep(spec Spec, m *Manifest) error {
	sw := spec.Sweep.WithDefaults()
	switch sw.Backend {
	case "fluid", "packet", "hybrid":
	default:
		return fmt.Errorf("campaign: unknown sweep backend %q", sw.Backend)
	}
	pts := sw.Grid()
	if len(pts) == 0 {
		return fmt.Errorf("campaign: sweep grid is empty")
	}
	for _, p := range pts {
		if err := p.Scenario(sw).WithDefaults().Validate(); err != nil {
			return fmt.Errorf("campaign: sweep point %s: %w", p.ID(), err)
		}
	}
	for _, seed := range spec.Seeds {
		seeded := sw
		seeded.Seed = seed
		if sw.Backend != "packet" {
			for _, t := range sw.Topologies {
				for _, a := range sw.Algorithms {
					m.Units = append(m.Units, Unit{
						Experiment: sweepFluidExp, Algorithm: a, Scenario: t, Seed: seed,
					})
				}
			}
		}
		if sw.Backend == "packet" {
			for _, p := range pts {
				m.Units = append(m.Units, Unit{
					Experiment: sweepCheckExp, Algorithm: p.Algorithm,
					Scenario: checkScenario(p), Seed: seed,
				})
			}
			continue
		}
		if sw.Backend == "hybrid" {
			picked := seeded.SpotIndices(pts)
			for i, p := range pts {
				if !picked[i] {
					continue
				}
				m.Units = append(m.Units, Unit{
					Experiment: sweepCheckExp, Algorithm: p.Algorithm,
					Scenario: checkScenario(p), Seed: seed,
				})
			}
		}
	}
	return nil
}

// checkScenario encodes a grid point's topology and load into the unit's
// scenario axis: "topo@load" with the load in shortest-round-trip form.
func checkScenario(p backend.Point) string {
	return p.Topology + "@" + strconv.FormatFloat(p.Load, 'g', -1, 64)
}

// parseCheckScenario is the inverse of checkScenario.
func parseCheckScenario(s string) (topoName string, load float64, err error) {
	topoName, loadStr, ok := strings.Cut(s, "@")
	if !ok {
		return "", 0, fmt.Errorf("campaign: sweep-check scenario %q has no @load", s)
	}
	load, err = strconv.ParseFloat(loadStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("campaign: sweep-check scenario %q: %w", s, err)
	}
	return topoName, load, nil
}

// isSweepUnit reports whether the unit belongs to the sweep namespace.
func isSweepUnit(u Unit) bool {
	return u.Experiment == sweepFluidExp || u.Experiment == sweepCheckExp
}

// execSweepUnit is the unit executor for the sweep namespace. Both unit
// kinds delegate to backend.Sweep narrowed to the unit's slice of the
// grid, so the campaign path and the ad-hoc `mptcp-bench -sweep` path
// produce identical tables for identical points. sup, the campaign's run
// supervisor, bounds and counts each point; a point it fails fails the unit.
func execSweepUnit(ctx context.Context, u Unit, udir string, spec Spec, sup *supervise.Supervisor) (UnitOutput, error) {
	if spec.Sweep == nil {
		return UnitOutput{}, fmt.Errorf("campaign: manifest holds sweep unit %s but the spec has no sweep", u.ID())
	}
	sw := spec.Sweep.WithDefaults()
	sw.Seed = u.Seed
	sw.Workers = 1 // the campaign parallelizes across units, not inside them
	sw.Sup = sup

	switch u.Experiment {
	case sweepFluidExp:
		sw.Backend = "fluid"
		sw.Topologies = []string{u.Scenario}
		sw.Algorithms = []string{u.Algorithm}
	case sweepCheckExp:
		topoName, load, err := parseCheckScenario(u.Scenario)
		if err != nil {
			return UnitOutput{}, err
		}
		sw.Backend = "hybrid"
		sw.SpotCheck = 1 // this unit IS the spot check: verify its one point
		sw.Topologies = []string{topoName}
		sw.Algorithms = []string{u.Algorithm}
		sw.Loads = []float64{load}
	default:
		return UnitOutput{}, fmt.Errorf("campaign: %s is not a sweep unit", u.ID())
	}

	res, err := backend.Sweep(ctx, sw)
	if err != nil {
		if ctx.Err() != nil {
			return UnitOutput{Interrupted: true}, nil
		}
		return UnitOutput{}, err
	}
	if err := os.WriteFile(filepath.Join(udir, "table.txt"), []byte(res.Format()), 0o644); err != nil {
		return UnitOutput{}, supervise.Transient(err)
	}
	var events uint64
	for _, p := range res.Points {
		if p.Packet != nil {
			events += p.Packet.Events
		}
	}
	// A failed spot check is a quarantine-grade finding, not a crash: the
	// unit's table records the disagreement and the error surfaces it in
	// the journal note and the campaign summary.
	if !res.OK() {
		return UnitOutput{Events: events}, fmt.Errorf(
			"campaign: fluid/packet disagreement: %s", strings.Join(res.Disagreements, "; "))
	}
	return UnitOutput{Events: events}, nil
}

// dispatchUnit routes a unit to the sweep executor or the exp figure
// executor. It is the production Options.Exec.
func dispatchUnit(spec Spec) func(context.Context, Unit, string, exp.Config) (UnitOutput, error) {
	return func(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
		if isSweepUnit(u) {
			return execSweepUnit(ctx, u, udir, spec, cfg.Sup)
		}
		return execUnit(ctx, u, udir, cfg)
	}
}
