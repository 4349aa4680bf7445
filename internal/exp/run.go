package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// world is one run closure's simulation: the figure it counts toward, the
// record it files, the Scenario it runs, and the stages a Scenario does not
// name (backend.Stages).
type world struct {
	// res is the figure's Result: the run's events and offered flows add
	// to it, and its ID names the record.
	res *Result
	// scenario and alg (default sc.Algorithm) identify the run record:
	// <res.ID>_<alg>_<scenario>_seed<sc.Seed> under Config.OutDir.
	scenario, alg string
	sc            backend.Scenario
	backend.Stages
}

// run runs one figure's simulation through backend.Run, the one run
// sequence, observed per the configuration: the observer writes one JSONL
// record plus its CSV twin under Config.OutDir and/or checks invariants
// under Config.Check, and is inert when neither is set. Failures panic —
// record export is explicitly requested, and a partial record set silently
// missing runs would be worse than stopping; invariant failures likewise
// panic (FailFast) so the worker pool surfaces them with the failing run's
// identity. Run's deferred Abort then still leaves a record that parses
// through the last tick. A run that returns adds its events, and the flows
// its population offered, to the figure's Result; one that panics adds
// nothing.
func (c Config) run(wd *supervise.Watchdog, r world) *backend.World {
	if r.alg == "" {
		r.alg = r.sc.Algorithm
	}
	oc := obsv.Config{
		Meta:     obsv.Meta{Experiment: r.res.ID, Scenario: r.scenario, Algorithm: r.alg, Seed: r.sc.Seed, Scale: c.Scale},
		Interval: c.SampleInterval,
		CSV:      true,
	}
	if c.Check {
		oc.Check = obsv.CheckFailFast
	}
	if c.OutDir != "" {
		if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
			panic(fmt.Errorf("exp: creating record dir: %w", err))
		}
		oc.Path = filepath.Join(c.OutDir,
			fmt.Sprintf("%s_%s_%s_seed%d.jsonl", slug(r.res.ID), slug(r.alg), slug(r.scenario), r.sc.Seed))
	}
	w, err := backend.Run(r.sc, oc, wd, r.Stages)
	if err != nil {
		panic(fmt.Errorf("exp: %s: %w", r.res.ID, err))
	}
	r.res.mu.Lock()
	r.res.Events += w.Eng.Processed()
	if w.Pop != nil {
		r.res.Flows += w.Pop.Stats().Offered
	}
	r.res.mu.Unlock()
	return w
}

// hostUsers places n connections of cfg on a wired world — user u over
// paths(u) with flow id u+1 — each metered on its own host by model; user
// 0's are observed under prefix. A finite transfer stops its meter when it
// completes and tells onDone (nil is fine); the last to complete stops the
// engine.
func hostUsers(w *backend.World, obs *obsv.Observer, prefix string, n int, cfg mptcp.Config,
	model energy.Model, paths func(u int) []*netem.Path, onDone func(sim.Time)) ([]*mptcp.Conn, []*energy.Meter) {
	conns, meters := make([]*mptcp.Conn, n), make([]*energy.Meter, n)
	remaining := n
	for u := range conns {
		c := mptcp.MustNew(w.Eng, cfg, uint64(u+1), paths(u)...)
		m := energy.NewMeter(w.Eng, model, energy.ConnProbe(c), 0)
		m.Start()
		if u == 0 {
			obs.Conn(prefix, c)
			obs.Meter(prefix+"host", m)
		}
		if cfg.TransferBytes > 0 {
			c.OnComplete = func(at sim.Time) {
				m.Stop()
				if onDone != nil {
					onDone(at)
				}
				if remaining--; remaining == 0 {
					w.Eng.Stop()
				}
			}
		}
		c.Start()
		conns[u], meters[u] = c, m
	}
	return conns, meters
}

// slug normalizes a record filename component: lower case, with anything
// outside [a-z0-9._-] collapsed to '-'.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}
