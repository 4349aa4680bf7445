package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mptcpsim/internal/exp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// Options controls how a campaign executes — scheduling and robustness
// knobs only. Nothing in Options may change the deterministic payload;
// anything that would belongs in Spec, where it is persisted.
type Options struct {
	// Workers sizes the unit pool. Units run with exp.Config.Workers = 1 —
	// the campaign parallelizes across units, not inside them — so -j
	// bounds total engine goroutines. 0 means one worker per CPU.
	Workers int
	// Shard restricts this process to its slice of the manifest.
	Shard Shard
	// Timeout bounds the wall clock of each simulation run inside a unit
	// via the run supervisor (0 = none).
	Timeout time.Duration
	// Retries is how many times a transient unit failure (file system
	// errors, not simulation failures) is re-attempted before quarantine.
	// 0 means DefaultRetries; negative disables retry.
	Retries int
	// SyncEvery bounds journal fsync staleness (0 = DefaultSyncEvery).
	SyncEvery time.Duration
	// SampleInterval is the obsv record sampling period when Spec.Records
	// is set (0 = obsv.DefaultInterval).
	SampleInterval sim.Time
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)

	// Exec overrides unit execution (test seam; nil = the exp-backed
	// executor).
	Exec func(ctx context.Context, u Unit, dir string, cfg exp.Config) (UnitOutput, error)
	// OnUnitDone runs after a unit's journal line is appended (test seam
	// for simulating kills at exact checkpoint boundaries).
	OnUnitDone func(u Unit, e Entry)
}

// DefaultRetries is the transient-failure retry budget per unit.
const DefaultRetries = 2

// UnitOutput is what a unit executor reports back.
type UnitOutput struct {
	// Events is the unit's simulation event count (journaled, merged).
	Events uint64
	// Interrupted reports the unit was cut short by cancellation: its
	// artifacts are partial and it must not be checkpointed.
	Interrupted bool
}

// Summary is the outcome of one campaign invocation.
type Summary struct {
	// Total is the number of units this shard owns; Reused were satisfied
	// from the journal, Ran executed now, Quarantined failed permanently
	// (including reused quarantines), Pending remain unfinished.
	Total, Reused, Ran, Quarantined, Pending int
	// Interrupted: the invocation was cancelled before finishing; the
	// directory resumes exactly where the journal left off.
	Interrupted bool
	// Merged: every manifest unit (all shards) reached a terminal state
	// and the merged outputs were (re)written.
	Merged bool
	// Counts aggregates the supervised run outcomes inside the units that
	// executed in this invocation: figure runs and sweep points.
	Counts supervise.Counts
}

// Start begins (or, when the directory already holds an identical spec,
// continues) a campaign in dir. A directory holding a different spec is
// refused — a campaign directory belongs to exactly one manifest.
func Start(ctx context.Context, dir string, spec Spec, opt Options) (*Summary, error) {
	m, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	existing, lerr := LoadManifest(dir)
	switch {
	case lerr == nil:
		if !specEqual(existing.Spec, m.Spec) {
			return nil, fmt.Errorf(
				"campaign: %s already holds a different campaign (use -resume to continue it, or a fresh directory)", dir)
		}
		m = existing
	case errors.Is(lerr, fs.ErrNotExist):
		if err := WriteManifest(dir, m); err != nil {
			return nil, err
		}
	default:
		return nil, lerr
	}
	return run(ctx, dir, m, opt)
}

// Resume continues an interrupted campaign from its manifest and journal:
// completed units are verified by digest and skipped, quarantined units
// stay quarantined, everything else re-runs. The spec comes from the
// manifest, never from the caller.
func Resume(ctx context.Context, dir string, opt Options) (*Summary, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("campaign: %s holds no campaign manifest (start one first)", dir)
		}
		return nil, err
	}
	return run(ctx, dir, m, opt)
}

func run(ctx context.Context, dir string, m *Manifest, opt Options) (*Summary, error) {
	if err := opt.Shard.validate(); err != nil {
		return nil, err
	}
	if opt.Retries == 0 {
		opt.Retries = DefaultRetries
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	execFn := opt.Exec
	if execFn == nil {
		execFn = dispatchUnit(m.Spec)
	}

	journal, recovery, err := OpenJournal(dir, opt.Shard, opt.SyncEvery)
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	if recovery.TornLines > 0 {
		logf("journal: discarded %d torn trailing line(s); the affected units re-run", recovery.TornLines)
	}

	sum := &Summary{}
	var pending []Unit
	for i, u := range m.Units {
		if !opt.Shard.owns(i) {
			continue
		}
		sum.Total++
		e, ok := recovery.Entries[u.ID()]
		if ok && e.Status == StatusQuarantined {
			sum.Reused++
			sum.Quarantined++
			continue
		}
		if ok && e.Status == StatusDone {
			if d, derr := digestDir(u.Dir(dir)); derr == nil && d == e.Digest {
				sum.Reused++
				continue
			}
			logf("unit %s: journaled digest no longer matches its artifacts; re-running", u.ID())
		}
		pending = append(pending, u)
	}
	logf("%d units total on this shard: %d reused from journal, %d to run",
		sum.Total, sum.Reused, len(pending))

	// runSup bounds and counts the simulation runs inside each unit, a
	// figure's runs and a sweep unit's points (Summary.Counts); unitSup
	// retries a unit whose file system hiccuped and quarantines one that
	// fails for good. The pool's own supervisor turns what escapes the
	// checkpoint step into a report that fails the invocation: a journal
	// that cannot be written cannot promise resumability.
	runSup := supervise.New(supervise.Budget{Wall: opt.Timeout})
	unitSup := supervise.New(supervise.Budget{})
	unitSup.Retries = opt.Retries
	var mu sync.Mutex // journal appends and summary updates
	_, reports := supervise.Map(ctx, supervise.New(supervise.Budget{}), opt.Workers, len(pending),
		func(i int) supervise.RunID { return pending[i].runID() },
		func(i int, _ *supervise.Watchdog) (struct{}, error) {
			u := pending[i]
			cfg := exp.Config{
				Seed: u.Seed, Scale: m.Spec.Scale, Reps: m.Spec.Reps,
				Workers: 1, Check: m.Spec.Check, Sup: runSup, Ctx: ctx,
				SampleInterval: opt.SampleInterval,
			}
			// A pinned axis value narrows the figure to this unit's slice; the
			// sentinel "all" (undeclared axis, or a manifest from before the
			// axis was declared) leaves the filter off.
			if u.Algorithm != "all" {
				cfg.Algorithm = u.Algorithm
			}
			if u.Scenario != "all" {
				cfg.Scenario = u.Scenario
			}
			if m.Spec.Records {
				cfg.OutDir = filepath.Join(u.Dir(dir), "records")
			}
			entry, cut, err := runUnit(ctx, unitSup, u, u.Dir(dir), cfg, execFn, logf)
			if cut || err != nil {
				return struct{}{}, err
			}
			mu.Lock()
			defer mu.Unlock()
			if err := journal.Append(entry); err != nil {
				return struct{}{}, fmt.Errorf("campaign: journal append: %w", err)
			}
			sum.Ran++
			if entry.Status == StatusQuarantined {
				sum.Quarantined++
				logf("unit %s quarantined: %s", u.ID(), entry.Note)
			} else {
				logf("unit %s done (%d events)", u.ID(), entry.Events)
			}
			if opt.OnUnitDone != nil {
				opt.OnUnitDone(u, entry)
			}
			return struct{}{}, nil
		})
	for _, rep := range reports {
		if rep.Outcome.Failed() {
			return nil, rep.Err
		}
	}
	if err := journal.Sync(); err != nil {
		return nil, fmt.Errorf("campaign: journal sync: %w", err)
	}
	sum.Pending = len(pending) - sum.Ran // never started, or cut short
	sum.Interrupted = sum.Pending > 0 || ctx.Err() != nil
	sum.Counts = runSup.Counts()

	// Merge when every unit across all shards is terminal; an incomplete
	// campaign (interrupted, or other shards still running) leaves the
	// previous merge untouched.
	if _, err := Merge(dir); err == nil {
		sum.Merged = true
	} else if !errors.Is(err, ErrIncomplete) {
		return nil, err
	}
	return sum, nil
}

// runID names the unit to a supervisor.
func (u Unit) runID() supervise.RunID {
	return supervise.RunID{Seed: u.Seed, Scenario: u.ID(), Phase: "campaign"}
}

// runUnit executes one unit under the unit supervisor and returns its journal
// entry: done with the digest of its artifacts, or quarantined with a note —
// its stanza in the merged results degrades to that note, mirroring how
// exp.Config.Sup drops a failed row inside a figure. cut reports a unit the
// cancellation stopped short of either (inside the executor, or waiting to
// retry): its artifacts are partial and it must not be checkpointed. The unit
// directory is wiped before each attempt so artifacts are exactly what this
// execution wrote — never a blend with a dead one.
func runUnit(ctx context.Context, sup *supervise.Supervisor, u Unit, udir string, cfg exp.Config,
	execFn func(context.Context, Unit, string, exp.Config) (UnitOutput, error), logf func(string, ...any),
) (entry Entry, cut bool, err error) {
	var out UnitOutput
	rep := sup.Run(ctx, u.runID(), func(*supervise.Watchdog) error {
		if err := os.RemoveAll(udir); err != nil {
			return supervise.Transient(err)
		}
		if err := os.MkdirAll(udir, 0o755); err != nil {
			return supervise.Transient(err)
		}
		var err error
		out, err = execFn(ctx, u, udir, cfg)
		return err
	})
	entry = Entry{ID: u.ID(), Attempts: rep.Attempts}
	switch {
	case rep.Outcome.Failed():
		entry.Status, entry.Note = StatusQuarantined, rep.Err.Msg
		if rep.Err.Stack != "" {
			// A panic: the journal keeps the one-line note, the log the
			// rest of what the supervisor recovered.
			entry.Note = "panic: " + rep.Err.Msg
			logf("unit %s %s, last observation %q, stack:\n%s", entry.ID, rep.Err.Kind, rep.Err.LastObsv, rep.Err.Stack)
		}
		return entry, false, nil
	case rep.Outcome == supervise.Skipped || out.Interrupted:
		return entry, true, nil
	}
	entry.Status, entry.Events = StatusDone, out.Events
	if entry.Digest, err = digestDir(udir); err != nil {
		return entry, false, fmt.Errorf("campaign: digesting %s: %w", udir, err)
	}
	return entry, false, nil
}

// execUnit is the production unit executor: it runs the unit's figure at
// the unit's seed and writes the rendered table as the unit's deterministic
// artifact (plus obsv records when cfg.OutDir is set).
func execUnit(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
	e, ok := exp.Lookup(u.Experiment)
	if !ok {
		// Expand validated the spec; reaching this means the manifest names
		// an experiment this build no longer has.
		return UnitOutput{}, fmt.Errorf("campaign: experiment %q unknown to this build", u.Experiment)
	}
	res := e.Run(cfg)
	if res.Interrupted {
		return UnitOutput{Interrupted: true}, nil
	}
	if err := os.WriteFile(filepath.Join(udir, "table.txt"), []byte(res.String()), 0o644); err != nil {
		return UnitOutput{}, supervise.Transient(err)
	}
	return UnitOutput{Events: res.Events}, nil
}

// digestDir hashes every regular file under dir (relative path, size and
// content, in sorted path order) into a stable identity for the unit's
// artifacts. The journal stores it at checkpoint; resume recomputes it so
// stale, truncated or hand-edited artifacts are re-run, not trusted.
func digestDir(dir string) (string, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				return rerr
			}
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		f, err := os.Open(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, cerr := io.Copy(h, f)
		f.Close()
		if cerr != nil {
			return "", cerr
		}
		h.Write([]byte{0})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
