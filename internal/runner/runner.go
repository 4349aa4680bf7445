// Package runner fans independent simulation runs out across CPU cores.
//
// Parallelism in this codebase lives at the run level, never inside a run:
// each sim.Engine is single-threaded and owns its whole scenario, so a
// worker executes one engine start to finish with no locks on the hot path.
// Determinism is preserved by construction — every run derives its seed from
// its own identity (figure parameters, repetition index), never from the
// worker that happens to execute it, and results are collected by submission
// index so output is byte-identical for any worker count. It is
// supervise.Map's pool; outside that, only the benchmark calls it.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrSkipped marks an index that was never started because the context was
// cancelled before the pool reached it. Callers distinguish "this run
// failed" from "this run never happened and is safe to re-dispatch later"
// with errors.Is(err, ErrSkipped) — the distinction resumable campaigns
// are built on.
var ErrSkipped = errors.New("runner: skipped after cancellation")

// PanicError is a panic recovered by MapErrCtx, carrying the failing index,
// the panic payload and the goroutine stack at the point of the panic.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: fn(%d) panicked: %v", e.Index, e.Value)
}

// Unwrap exposes a panic value that is itself an error to errors.As.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// MapErrCtx runs fn(0) … fn(n-1) across at most workers goroutines and
// returns the results and errors both ordered by index (errs[i] is nil for
// indices that succeeded, and errs is nil when every index did). fn must be
// safe to call concurrently with itself on distinct indices (for simulation
// runs: build your own engine, share nothing). workers <= 0 means one per
// CPU (GOMAXPROCS); workers == 1 runs inline on the calling goroutine in
// index order, which is the reference execution the determinism tests
// compare against.
//
// Runs fail individually: a panic in fn is captured as a *PanicError in
// every mode, and the remaining indices still run after a failure, so a
// campaign degrades to partial results instead of losing the whole batch to
// one bad run.
//
// Cancellation is cooperative: once ctx is cancelled no new index is
// dispatched — indices already running finish and keep their results and
// errors, and every index that never started gets errs[i] satisfying
// errors.Is(err, ErrSkipped). A skipped index is not a failed run: it is
// safe to re-dispatch on a later attempt, which is how a resumable campaign
// drains in-flight work on SIGINT without losing it.
func MapErrCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, []error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	var (
		errsMu sync.Mutex
		errs   []error
	)
	setErr := func(i int, err error) {
		errsMu.Lock()
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
		errsMu.Unlock()
	}
	one := func(i int) {
		if ctx.Err() != nil {
			setErr(i, fmt.Errorf("%w: %w", ErrSkipped, context.Cause(ctx)))
			return
		}
		defer func() {
			if r := recover(); r != nil {
				setErr(i, &PanicError{Index: i, Value: r, Stack: debug.Stack()})
			}
		}()
		v, err := fn(i)
		out[i] = v
		if err != nil {
			setErr(i, err)
		}
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			one(i)
		}
		return out, errs
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// FirstErr returns the first non-nil error of a MapErrCtx error slice, or nil.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
