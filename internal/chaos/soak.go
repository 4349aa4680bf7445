package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mptcpsim/internal/supervise"
)

// ArtifactVersion is bumped when the artifact schema changes; Replay
// refuses versions it does not know.
const ArtifactVersion = 1

// Artifact is a quarantined failure: the shrunk scenario that reproduces
// it, the original scenario it was shrunk from, and the failure record.
// Artifacts are plain JSON so they can be committed as a regression corpus
// (internal/chaos/testdata/quarantine) and replayed with mptcp-sim -replay.
type Artifact struct {
	Version    int                `json:"version"`
	Signature  string             `json:"signature"`
	Scenario   Scenario           `json:"scenario"`
	Original   Scenario           `json:"original"`
	Failure    supervise.RunError `json:"failure"`
	ShrinkRuns int                `json:"shrink_runs"`
}

// Filename returns the canonical artifact name, derived from the signature
// and the shrunk scenario's seed so distinct failures do not collide.
func (a *Artifact) Filename() string {
	sig := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, strings.ToLower(a.Signature))
	return fmt.Sprintf("chaos_%s_seed%d.json", sig, a.Scenario.Seed)
}

// WriteArtifact writes the artifact into dir (created if needed) under its
// canonical filename and returns the full path.
func WriteArtifact(dir string, a *Artifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, a.Filename())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// DecodeArtifact parses artifact JSON; it is the fuzz surface for the
// replay path (FuzzDecodeArtifact), so it must never panic on hostile
// input.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("chaos: bad artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("chaos: artifact version %d, this build understands %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}

// LoadArtifact reads and decodes an artifact file.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeArtifact(data)
}

// ReplayResult is the outcome of re-running a quarantined scenario.
type ReplayResult struct {
	Artifact  *Artifact
	Outcome   supervise.Outcome
	Signature string // observed signature, "" when the run came back clean
	Match     bool   // observed signature == recorded signature
}

// Replay re-runs an artifact's shrunk scenario under the given budget (zero
// fields fall back to the soak defaults) and reports whether the recorded
// failure reproduces. A replay that comes back clean or fails differently
// sets Match=false — the regression the corpus tests and -replay exit codes
// key on.
func Replay(path string, budget supervise.Budget) (*ReplayResult, error) {
	a, err := LoadArtifact(path)
	if err != nil {
		return nil, err
	}
	rep := a.Scenario.runUnder(withDefaults(budget), "replay")
	res := &ReplayResult{Artifact: a, Outcome: rep.Outcome, Signature: Signature(rep.Err)}
	res.Match = res.Signature == a.Signature
	return res, nil
}

// Soak defaults; generous enough that organic scenarios never trip them.
const (
	DefaultRunTimeout = 30 * time.Second
	DefaultMaxEvents  = 20_000_000
)

// withDefaults fills a budget's unset wall and event bounds with them.
func withDefaults(b supervise.Budget) supervise.Budget {
	if b.Wall == 0 {
		b.Wall = DefaultRunTimeout
	}
	if b.Events == 0 {
		b.Events = DefaultMaxEvents
	}
	return b
}

// SoakConfig controls a chaos campaign.
type SoakConfig struct {
	Seed     int64
	Count    int           // scenarios to run (count mode)
	Duration time.Duration // wall-clock budget (duration mode, when Count==0)
	Workers  int           // pool width; results are identical for any value
	Dir      string        // quarantine directory for failure artifacts ("" = don't write)
	Timeout  time.Duration // per-run wall deadline (0 = DefaultRunTimeout)
	// MaxEvents bounds each run's engine events — the deterministic
	// counterpart of Timeout (0 = DefaultMaxEvents).
	MaxEvents uint64
	// Inject arms a failpoint on every Inject-th scenario (0 = none),
	// cycling through trip and panic; soak self-test mode.
	Inject int
	Log    func(format string, args ...any) // nil = silent
	// Ctx stops the campaign cooperatively: once cancelled, no further
	// scenarios are dispatched, in-flight ones drain, and the result (with
	// Interrupted set) covers exactly the scenarios that ran. Nil means
	// never cancelled.
	Ctx context.Context
}

// SoakFailure is one quarantined scenario of a campaign.
type SoakFailure struct {
	Index     int                `json:"index"`
	Signature string             `json:"signature"`
	Outcome   string             `json:"outcome"`
	Error     supervise.RunError `json:"error"`
	Artifact  string             `json:"artifact,omitempty"`
	// Shrunk reports whether shrinking found a strictly smaller scenario
	// still failing with the same signature.
	Shrunk     bool `json:"shrunk"`
	ShrinkRuns int  `json:"shrink_runs"`
}

// SoakResult summarises a campaign.
type SoakResult struct {
	Scenarios int              `json:"scenarios"`
	Counts    supervise.Counts `json:"counts"`
	Failures  []SoakFailure    `json:"failures,omitempty"`
	// Interrupted: the campaign was cancelled before finishing; Scenarios
	// counts only the runs that actually executed.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Failed reports whether any scenario was quarantined.
func (r *SoakResult) Failed() bool { return len(r.Failures) > 0 }

// Soak runs a chaos campaign: Count scenarios (or batches until Duration
// elapses), each generated by GenerateAt(Seed, i) and executed under
// invariants and the campaign supervisor. Failures are shrunk sequentially
// in index order after the pool drains, so artifacts and the result are
// deterministic for any Workers value (wall timeouts excepted — the event
// budget is the deterministic bound).
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) // the batch size reads it
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	budget := withDefaults(supervise.Budget{Wall: cfg.Timeout, Events: cfg.MaxEvents})
	sup := supervise.New(budget)
	res := &SoakResult{}

	// runBatch executes scenarios [start, start+n) and reports their
	// failures (cancellation skips the rest; the supervisor counts those
	// that ran).
	runBatch := func(start, n int) []SoakFailure {
		scs := make([]Scenario, n)
		for i := range scs {
			scs[i] = GenerateAt(cfg.Seed, start+i)
			cfg.applyInjection(&scs[i], start+i)
		}
		_, reports := supervise.Map(ctx, sup, cfg.Workers, n,
			func(i int) supervise.RunID {
				return supervise.RunID{Seed: scs[i].Seed, Scenario: fmt.Sprintf("chaos[%d]", start+i), Phase: "chaos"}
			},
			func(i int, wd *supervise.Watchdog) (struct{}, error) { return struct{}{}, scs[i].Run(wd) })
		var fails []SoakFailure
		for i, rep := range reports {
			if !rep.Outcome.Failed() {
				continue
			}
			sig := Signature(rep.Err)
			logf("chaos[%d] %s: %s — shrinking", start+i, rep.Outcome, sig)
			shrunk, runs := Shrink(scs[i], sig, budget, DefaultShrinkRuns)
			// Stacks carry goroutine ids and pool frames, which depend on
			// Workers; drop them so failure records and artifacts are
			// byte-identical at every pool width.
			failure := *rep.Err
			failure.Stack = ""
			f := SoakFailure{
				Index:      start + i,
				Signature:  sig,
				Outcome:    rep.Outcome.String(),
				Error:      failure,
				Shrunk:     shrunk != scs[i],
				ShrinkRuns: runs,
			}
			if cfg.Dir != "" {
				a := &Artifact{
					Version:    ArtifactVersion,
					Signature:  sig,
					Scenario:   shrunk,
					Original:   scs[i],
					Failure:    failure,
					ShrinkRuns: runs,
				}
				path, err := WriteArtifact(cfg.Dir, a)
				if err != nil {
					logf("chaos[%d]: writing artifact: %v", start+i, err)
				} else {
					f.Artifact = path
					logf("chaos[%d] quarantined -> %s", start+i, path)
				}
			}
			fails = append(fails, f)
		}
		return fails
	}

	switch {
	case cfg.Count > 0:
		res.Failures = runBatch(0, cfg.Count)
	case cfg.Duration > 0:
		batch := cfg.Workers * 4
		if batch < 8 {
			batch = 8
		}
		deadline := time.Now().Add(cfg.Duration)
		for start := 0; time.Now().Before(deadline) && ctx.Err() == nil; start += batch {
			res.Failures = append(res.Failures, runBatch(start, batch)...)
		}
	default:
		return nil, fmt.Errorf("chaos: soak needs a Count or a Duration")
	}
	res.Counts = sup.Counts()
	res.Scenarios = int(res.Counts.Total())
	res.Interrupted = ctx.Err() != nil
	return res, nil
}

// applyInjection arms the self-test failpoint on every Inject-th scenario,
// alternating a synthetic invariant trip and a panic. Spin (the hang
// failpoint) is excluded: its detection depends on wall clock, which would
// make campaign results nondeterministic.
func (cfg SoakConfig) applyInjection(sc *Scenario, i int) {
	if cfg.Inject <= 0 || (i+1)%cfg.Inject != 0 {
		return
	}
	at := sc.HorizonMs / 2
	if ((i+1)/cfg.Inject)%2 == 1 {
		sc.Failpoint = fmt.Sprintf("trip@%dms", at)
	} else {
		sc.Failpoint = fmt.Sprintf("panic@%dms", at)
	}
}
