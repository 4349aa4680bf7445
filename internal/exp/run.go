package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// world is one run closure's simulation: the record it files, the Scenario
// backend.Wire builds, and the stages a Scenario does not name.
type world struct {
	// exp, scenario and alg (default sc.Algorithm) identify the run record:
	// <exp>_<alg>_<scenario>_seed<sc.Seed> under Config.OutDir.
	exp, scenario, alg string
	sc                 backend.Scenario
	// ready builds the paths of a substrate the registry does not name.
	ready func(*sim.Engine) []*netem.Path
	// attach runs on the wired world before anything starts. It adds what
	// only this figure has (an algorithm instance, the path selector, its
	// own users) and registers the observed series; nil means
	// World.Observe — the connection as "", its meter as "host".
	attach func(w *backend.World, obs *obsv.Observer)
	// drive runs the engine (nil: to sc.Horizon).
	drive func(w *backend.World)
	// summary files the run's scalar outcomes before the record closes.
	summary func(w *backend.World, obs *obsv.Observer)
}

// run is the one sequence every figure's simulation goes through: wire →
// observe → start → run → flush → summarise → close. The observer writes one
// JSONL record plus its CSV twin under Config.OutDir and/or checks
// invariants under Config.Check, and is inert when neither is set. Failures
// panic — record export is explicitly requested, and a partial record set
// silently missing runs would be worse than stopping; invariant failures
// likewise panic (FailFast) so the worker pool surfaces them with the
// failing run's identity. The deferred Abort then still leaves a record
// that parses through the last tick.
func (c Config) run(wd *supervise.Watchdog, r world) *backend.World {
	eng := sim.NewEngine(r.sc.Seed)
	wd.Attach(eng)
	if r.alg == "" {
		r.alg = r.sc.Algorithm
	}
	oc := obsv.Config{
		Meta:     obsv.Meta{Experiment: r.exp, Scenario: r.scenario, Algorithm: r.alg, Seed: r.sc.Seed, Scale: c.Scale},
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
			fmt.Sprintf("%s_%s_%s_seed%d.jsonl", slug(r.exp), slug(r.alg), slug(r.scenario), r.sc.Seed))
	}
	obs, err := obsv.NewObserver(eng, oc)
	if err != nil {
		panic(fmt.Errorf("exp: %w", err))
	}
	defer obs.Abort()

	var ready []*netem.Path
	if r.ready != nil {
		ready = r.ready(eng)
	}
	w, err := backend.Wire(eng, r.sc, obs, ready...)
	if err != nil {
		panic(fmt.Errorf("exp: %s: %w", r.exp, err))
	}
	if r.attach != nil {
		r.attach(w, obs)
	} else {
		w.Observe(obs)
	}
	obs.Start()
	w.Start()
	if r.drive != nil {
		r.drive(w)
	} else {
		eng.Run(r.sc.Horizon)
	}
	w.Settle()
	r.summary(w, obs)
	if err := obs.Close(); err != nil {
		panic(fmt.Errorf("exp: %w", err))
	}
	return w
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
