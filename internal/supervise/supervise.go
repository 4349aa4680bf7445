// Package supervise keeps long simulation campaigns alive when individual
// runs misbehave. Every run executes under a Budget — a wall-clock
// deadline, an engine event cap and a simulated-time cap — enforced by a
// Watchdog attached to the run's engine. A panic or invariant trip inside
// the worker is caught and converted into a structured RunError (seed,
// scenario, phase, stack, last observation) and the run is quarantined
// instead of re-raised, so a campaign degrades gracefully to partial
// results. Transient failures are retried with capped exponential backoff
// and seed-derived jitter; every outcome (ok, retried, quarantined,
// timed-out, over-budget) is counted for the campaign summary.
// Classification happens in one place: an internal/check failure is
// recognised by its type, through every wrapper it crossed, and carries
// its first violated invariant's name; no message is parsed.
//
// The package owns the program's one fan-out (Map) and the process boundary
// (SignalContext, ExitCode, QuarantinedErr, InterruptedErr): it is the one
// place a unit of work is run, retried, classified and given an exit code.
// Map with a nil Supervisor is the fail-fast fan-out — a panic propagates —
// for callers with nothing to absorb; internal/runner is only Map's pool.
// ARCHITECTURE.md, "Run supervision", tabulates what can go wrong with a
// unit and where each case ends up.
//
// The package is deliberately engine-agnostic on the happy path: the
// supervisor never touches a run's engine itself, it only recovers what
// escapes the run closure and interrogates the Watchdog the closure
// attached. Determinism is preserved — supervision adds no randomness to
// the run (jitter only delays retries on the wall clock) and a given seed
// fails, retries or passes identically regardless of worker count.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"mptcpsim/internal/runner"
)

// Kind classifies why a run failed.
type Kind string

const (
	// KindPanic is an uncontrolled panic out of the run closure.
	KindPanic Kind = "panic"
	// KindInvariant is an internal/check invariant failure (either the
	// FailFast panic or a collected checker error), found by its type.
	KindInvariant Kind = "invariant"
	// KindTimeout is a wall-clock deadline trip.
	KindTimeout Kind = "timeout"
	// KindBudget is an engine event-budget or simulated-time-budget trip.
	KindBudget Kind = "budget"
	// KindError is a plain error returned by the run closure.
	KindError Kind = "error"
)

// Outcome is the terminal classification of one supervised run.
type Outcome int

const (
	// OK: the run succeeded on its first attempt.
	OK Outcome = iota
	// Retried: the run succeeded after at least one transient failure.
	Retried
	// Quarantined: the run failed permanently (panic, invariant trip, or
	// retry exhaustion) and was recorded instead of re-raised.
	Quarantined
	// TimedOut: the wall-clock deadline fired; not retried (a hang will
	// hang again, and retrying hangs multiplies the campaign's wall time).
	TimedOut
	// OverBudget: the event or simulated-time budget fired; not retried
	// (budgets are deterministic under a fixed seed).
	OverBudget
	// Skipped: the run reached no verdict because the context was cancelled
	// — before the pool started it, or while it waited out a retry backoff.
	// It is neither a success nor a failure and is not counted: the run is
	// safe to dispatch again, which is what a resumable campaign does.
	Skipped
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Retried:
		return "retried"
	case Quarantined:
		return "quarantined"
	case TimedOut:
		return "timed-out"
	case OverBudget:
		return "over-budget"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Failed reports whether the outcome denotes a failed run.
func (o Outcome) Failed() bool { return o == Quarantined || o == TimedOut || o == OverBudget }

// RunID names one run for reporting: the seed that reproduces it, the
// scenario it executed and the campaign phase (figure ID, "chaos", …) it
// belongs to.
type RunID struct {
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Phase    string `json:"phase"`
}

func (id RunID) String() string {
	return fmt.Sprintf("%s/%s seed=%d", id.Phase, id.Scenario, id.Seed)
}

// RunError is the structured record of a failed run: everything the
// quarantine corpus needs to triage and replay it. It is JSON-serializable
// so chaos artifacts can embed it verbatim.
type RunError struct {
	ID       RunID  `json:"id"`
	Kind     Kind   `json:"kind"`
	Msg      string `json:"msg"`
	Stack    string `json:"stack,omitempty"`
	Attempts int    `json:"attempts"`
	// Invariant names the first violated invariant of a KindInvariant
	// failure.
	Invariant string `json:"invariant,omitempty"`
	// LastObsv is the final observation before the failure: the engine
	// clock and event count the watchdog saw, plus the run's own sample
	// when it registered one (see Watchdog.SetSample).
	LastObsv string `json:"last_obsv,omitempty"`
}

func (e *RunError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.ID, e.Kind, e.Msg)
}

// Report is the terminal result of one supervised run.
type Report struct {
	Outcome  Outcome
	Attempts int       // attempts made: >= 1, or 0 for a run Skipped before it started
	Err      *RunError // nil for OK and Retried; for a Skipped run, the failure the cancellation cut short
}

// transientError marks an error as worth retrying.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient marks err as transient: the supervisor retries it (with capped
// exponential backoff) instead of quarantining immediately. Use it for
// failures outside the deterministic simulation — file systems, external
// processes — never for invariant trips, which reproduce under the same
// seed and would only burn the retry budget.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Counts aggregates run outcomes across a campaign.
type Counts struct {
	OK          int64 `json:"ok"`
	Retried     int64 `json:"retried"`
	Quarantined int64 `json:"quarantined"`
	TimedOut    int64 `json:"timed_out"`
	OverBudget  int64 `json:"over_budget"`
}

// Total is the number of supervised runs.
func (c Counts) Total() int64 {
	return c.OK + c.Retried + c.Quarantined + c.TimedOut + c.OverBudget
}

// Failed is the number of runs that did not end in success.
func (c Counts) Failed() int64 { return c.Quarantined + c.TimedOut + c.OverBudget }

func (c Counts) String() string {
	return fmt.Sprintf("ok=%d retried=%d quarantined=%d timed-out=%d over-budget=%d",
		c.OK, c.Retried, c.Quarantined, c.TimedOut, c.OverBudget)
}

// Supervisor runs closures under a shared Budget and retry policy and
// aggregates their outcomes. It is safe for concurrent use — one supervisor
// typically spans a whole campaign's worker pool.
type Supervisor struct {
	// Budget applies to every supervised run. The zero Budget enforces
	// nothing and the supervisor only provides panic quarantine.
	Budget Budget
	// Retries is how many times a transient failure is re-attempted before
	// quarantine (0 or less = never retry).
	Retries int

	// after and now are test seams for the backoff timer and the watchdog's
	// wall clock.
	after func(time.Duration) <-chan time.Time
	now   func() time.Time

	mu     sync.Mutex
	counts [Skipped]int64 // verdicts by Outcome
}

// New returns a supervisor with the given budget and no retries.
func New(b Budget) *Supervisor {
	return &Supervisor{Budget: b, after: time.After, now: time.Now}
}

// The retry backoff: the delay before the first retry, doubled by each
// further one up to the cap.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// backoffDelay computes the capped exponential backoff before retry
// attempt (1-based), with deterministic seed-derived jitter in
// [0, delay/2) so a batch of retrying runs does not thunder in lockstep.
func backoffDelay(seed int64, attempt int) time.Duration {
	d := backoffBase << (attempt - 1)
	if d > backoffCap || d <= 0 { // d <= 0 guards shift overflow
		d = backoffCap
	}
	rng := rand.New(rand.NewSource(seed + int64(attempt)*0x9E3779B9))
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// Run executes fn under the supervisor's budget and retry policy. fn
// receives a Watchdog it must Attach to the run's engine for deadline and
// budget enforcement (a nil-safe no-op when the caller has no engine).
// Every failure mode — a returned error, a panic, a watchdog trip — ends in
// a Report instead of propagating, so callers on a worker pool can always
// collect partial results. ctx cuts a retry backoff short (the run returns
// Skipped at once); stopping an attempt that is executing is fn's business,
// and an attempt that fails with ctx's own error is Skipped, not a verdict.
//
// A nil Supervisor is fail-fast: fn runs once with a nil watchdog, a panic
// propagates, an error ends the run Quarantined, and nothing is counted.
func (s *Supervisor) Run(ctx context.Context, id RunID, fn func(wd *Watchdog) error) Report {
	if s == nil {
		if err := fn(nil); err != nil {
			return Report{Outcome: Quarantined, Attempts: 1, Err: classify(id, nil, err, 1)}
		}
		return Report{Outcome: OK, Attempts: 1}
	}
	for attempt := 1; ; attempt++ {
		wd := &Watchdog{budget: s.Budget, now: s.now}
		err := runAttempt(wd, fn)
		if err == nil {
			if attempt > 1 {
				return s.verdict(Report{Outcome: Retried, Attempts: attempt})
			}
			return s.verdict(Report{Outcome: OK, Attempts: attempt})
		}
		rep := Report{Outcome: Quarantined, Attempts: attempt, Err: classify(id, wd, err, attempt)}
		switch {
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			rep.Outcome = Skipped
			return rep
		case rep.Err.Kind == KindTimeout:
			rep.Outcome = TimedOut
		case rep.Err.Kind == KindBudget:
			rep.Outcome = OverBudget
		case IsTransient(err) && attempt <= s.Retries:
			select {
			case <-s.after(backoffDelay(id.Seed, attempt)):
				continue
			case <-ctx.Done():
				rep.Outcome = Skipped
				return rep
			}
		}
		return s.verdict(rep)
	}
}

// verdict counts a finished run.
func (s *Supervisor) verdict(rep Report) Report {
	s.mu.Lock()
	s.counts[rep.Outcome]++
	s.mu.Unlock()
	return rep
}

// runAttempt executes fn once, converting panics (including watchdog
// trips, which travel as panics out of the engine loop) into errors. The
// pool's recover only keeps a worker alive; this one, inside the retry
// loop, is what classifies, with the attempt's watchdog and stack in hand.
func runAttempt(wd *Watchdog, fn func(*Watchdog) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*Trip); ok {
				err = t
				return
			}
			err = &panicked{value: r, stack: debug.Stack()}
		}
	}()
	return fn(wd)
}

// panicked carries a recovered panic payload and stack as an error.
type panicked struct {
	value any
	stack []byte
}

func (p *panicked) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// Unwrap exposes a panic value that is itself an error — a FailFast
// checker's failure — to errors.As.
func (p *panicked) Unwrap() error {
	err, _ := p.value.(error)
	return err
}

// invariantFailure is what an internal/check failure satisfies, in both its
// shapes: the FailFast panic value and the collected checker error.
type invariantFailure interface {
	error
	Invariant() string
}

// classify builds the structured RunError for a failed attempt.
func classify(id RunID, wd *Watchdog, err error, attempt int) *RunError {
	re := &RunError{ID: id, Attempts: attempt, LastObsv: wd.lastObsv()}
	var t *Trip
	var p *panicked
	switch {
	case errors.As(err, &t):
		re.Kind = t.Kind
		re.Msg = t.Msg
	case errors.As(err, &p):
		re.Kind = KindPanic
		re.Msg = fmt.Sprint(p.value)
		re.Stack = string(p.stack)
	default:
		re.Kind = KindError
		re.Msg = err.Error()
	}
	var inv invariantFailure
	if t == nil && errors.As(err, &inv) { // a watchdog trip keeps its own kind
		re.Kind, re.Invariant = KindInvariant, inv.Invariant()
	}
	return re
}

// Counts snapshots the outcome counters.
func (s *Supervisor) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counts{
		OK:          s.counts[OK],
		Retried:     s.counts[Retried],
		Quarantined: s.counts[Quarantined],
		TimedOut:    s.counts[TimedOut],
		OverBudget:  s.counts[OverBudget],
	}
}

// Map is the program's one fan-out: fn(0) … fn(n-1) on internal/runner's
// pool (workers <= 0: one per CPU; 1: inline), results and reports by index
// at every width. Each index runs under s.Run as id(i) and ends in one
// Report: a failed one yields the zero T, one the pool never started because
// ctx was cancelled is Skipped with no attempts. With a nil s, the first
// panic by index is re-raised with its own value once the pool drains.
func Map[T any](ctx context.Context, s *Supervisor, workers, n int,
	id func(i int) RunID, fn func(i int, wd *Watchdog) (T, error)) ([]T, []Report) {
	reports := make([]Report, n)
	out, errs := runner.MapErrCtx(ctx, workers, n, func(i int) (T, error) {
		var v T // set by the attempt that succeeds, if one does
		reports[i] = s.Run(ctx, id(i), func(wd *Watchdog) error {
			r, err := fn(i, wd)
			if err == nil {
				v = r
			}
			return err
		})
		return v, nil
	})
	for _, err := range errs { // in index order; only a nil s lets a panic reach the pool
		if pe, ok := err.(*runner.PanicError); ok {
			panic(pe.Value)
		}
	}
	for i := range reports {
		if reports[i].Attempts == 0 { // the pool never reached it
			reports[i].Outcome = Skipped
		}
	}
	return out, reports
}

// ExitCodeError carries a specific process exit code through an error
// return, so a CLI can distinguish "campaign completed with quarantined
// runs" (partial results, exit 3) from hard usage errors (exit 1).
type ExitCodeError struct {
	Code int
	Msg  string
}

func (e *ExitCodeError) Error() string { return e.Msg }

// QuarantinedErr is the error a CLI returns to exit with ExitQuarantined.
func QuarantinedErr(format string, args ...any) error {
	return &ExitCodeError{Code: ExitQuarantined, Msg: fmt.Sprintf(format, args...)}
}

// InterruptedErr is the error a CLI returns to exit with ExitInterrupted.
func InterruptedErr(format string, args ...any) error {
	return &ExitCodeError{Code: ExitInterrupted, Msg: fmt.Sprintf(format, args...)}
}

// ExitCode is the process exit status for the error a CLI's run returned:
// 0 for nil, the code an ExitCodeError in the chain carries, else 1.
func ExitCode(err error) int {
	var ec *ExitCodeError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ec):
		return ec.Code
	}
	return 1
}

// SignalContext is the context a CLI's main runs under: it cancels on the
// first SIGINT/SIGTERM so in-flight work drains; the AfterFunc restores
// default signal dispositions the moment the context dies, so a second
// signal kills the process immediately instead of waiting out the drain.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() { stop() })
	return ctx, stop
}

// Process exit codes shared by both CLIs (0 is success, 1 a usage or hard
// error). They are distinct so wrappers — CI, the resume smoke test, shard
// drivers — can branch on the kind of non-success without parsing output.
const (
	// ExitQuarantined: the campaign finished but quarantined at least one
	// run; the printed tables are valid partial results.
	ExitQuarantined = 3
	// ExitInterrupted: a SIGINT/SIGTERM stopped the invocation early.
	// In-flight runs were drained and every open writer (obsv records,
	// campaign journal) was flushed, so a campaign directory is resumable
	// with -resume exactly as it stands.
	ExitInterrupted = 4
)
