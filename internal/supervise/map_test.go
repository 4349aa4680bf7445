package supervise

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testID(i int) RunID {
	return RunID{Seed: int64(i), Scenario: fmt.Sprintf("u[%d]", i), Phase: "test"}
}

// TestMapDeterministicAcrossWorkers: every index ends in one report, and
// values and reports are the same at any pool width — with a panicking, an
// erroring and a transient-then-ok index in the batch. The retries wait on
// the supervisor's timer seam, not the wall clock.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	const n = 12
	run := func(workers int) ([]int, []Report, Counts, []time.Duration) {
		s := New(Budget{})
		s.Retries = 2
		var delays *[]time.Duration
		delays, s.after = noSleep()
		var flaky atomic.Int64
		vals, reps := Map(context.Background(), s, workers, n, testID, func(i int, wd *Watchdog) (int, error) {
			switch i {
			case 3:
				panic("kaboom")
			case 5:
				return 99, errors.New("deterministic failure")
			case 7:
				if flaky.Add(1) < 3 {
					return 99, Transient(errors.New("io hiccup"))
				}
			}
			return i * i, nil
		})
		for i := range reps {
			if reps[i].Err != nil {
				reps[i].Err.Stack = "" // goroutine ids and pool frames differ by width
			}
		}
		return vals, reps, s.Counts(), *delays
	}
	vals, reps, counts, delays := run(1)
	for i, rep := range reps {
		want, wantVal := Report{Outcome: OK, Attempts: 1}, i*i
		switch i {
		case 3:
			want = Report{Outcome: Quarantined, Attempts: 1, Err: &RunError{ID: testID(3), Kind: KindPanic, Msg: "kaboom", Attempts: 1}}
			wantVal = 0
		case 5:
			want = Report{Outcome: Quarantined, Attempts: 1, Err: &RunError{ID: testID(5), Kind: KindError, Msg: "deterministic failure", Attempts: 1}}
			wantVal = 0 // a failed index yields the zero T, not what fn returned beside its error
		case 7:
			want = Report{Outcome: Retried, Attempts: 3}
		}
		if !reflect.DeepEqual(rep, want) || vals[i] != wantVal {
			t.Errorf("index %d: value %d report %+v (err %+v), want %d %+v", i, vals[i], rep, rep.Err, wantVal, want)
		}
	}
	if want := (Counts{OK: n - 3, Retried: 1, Quarantined: 2}); counts != want {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if want := []time.Duration{backoffDelay(7, 1), backoffDelay(7, 2)}; !reflect.DeepEqual(delays, want) {
		t.Errorf("retries under Map waited %v on the seam, want %v", delays, want)
	}
	vals8, reps8, counts8, _ := run(8)
	if !reflect.DeepEqual(vals8, vals) || !reflect.DeepEqual(reps8, reps) || counts8 != counts {
		t.Errorf("workers=8 differs from workers=1:\n %v %+v %v\n %v %+v %v", vals8, reps8, counts8, vals, reps, counts)
	}
}

// TestMapCancelledBeforeStart: nothing runs, nothing is counted, and every
// index says so.
func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Budget{})
	vals, reps := Map(ctx, s, 4, 6, testID, func(i int, wd *Watchdog) (int, error) {
		t.Errorf("index %d ran under a cancelled context", i)
		return 1, nil
	})
	for i, rep := range reps {
		if rep != (Report{Outcome: Skipped}) || vals[i] != 0 {
			t.Errorf("index %d: value %d report %+v, want the zero value and Skipped", i, vals[i], rep)
		}
		if rep.Outcome.Failed() {
			t.Errorf("Skipped counts as failed")
		}
	}
	if c := s.Counts(); c.Total() != 0 {
		t.Errorf("skipped runs were counted: %v", c)
	}
}

// TestMapCancelledMidPool: the indices already started drain and keep their
// reports; the rest are Skipped. Indices after the cancelling one wait for
// the cancel, so no worker can run through the whole batch before it lands.
func TestMapCancelledMidPool(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		s := New(Budget{})
		var mu sync.Mutex
		started := map[int]bool{}
		vals, reps := Map(ctx, s, workers, 40, testID, func(i int, wd *Watchdog) (int, error) {
			mu.Lock()
			started[i] = true
			mu.Unlock()
			switch {
			case i == 2:
				cancel()
			case i > 2:
				<-ctx.Done()
			}
			return i + 1, nil
		})
		cancel()
		for i, rep := range reps {
			want, wantVal := Report{Outcome: Skipped}, 0
			if started[i] {
				want, wantVal = Report{Outcome: OK, Attempts: 1}, i+1
			}
			if rep != want || vals[i] != wantVal {
				t.Errorf("workers=%d index %d (started=%v): value %d report %+v", workers, i, started[i], vals[i], rep)
			}
		}
		if len(started) < 3 || len(started) == 40 || s.Counts().Total() != int64(len(started)) {
			t.Errorf("workers=%d: %d of 40 started, counts %v", workers, len(started), s.Counts())
		}
		if workers == 1 && len(started) != 3 {
			t.Errorf("the inline pool started %d indices after a cancel inside the third, want 3", len(started))
		}
	}
}

// TestMapNilSupervisorFailsFast: without a supervisor every index runs once
// with a nil watchdog and an error ends its index Quarantined; after the
// pool drains, the first panic by index — not the first in time — is
// re-raised with its own value, at any pool width.
func TestMapNilSupervisorFailsFast(t *testing.T) {
	for _, workers := range []int{1, 8} {
		vals, reps := Map(context.Background(), nil, workers, 6, testID, func(i int, wd *Watchdog) (int, error) {
			if wd != nil {
				t.Errorf("workers=%d index %d: a nil supervisor handed out a watchdog", workers, i)
			}
			if i == 2 {
				return 99, errors.New("boom")
			}
			return i * i, nil
		})
		for i, rep := range reps {
			want, wantVal := Report{Outcome: OK, Attempts: 1}, i*i
			if i == 2 {
				want = Report{Outcome: Quarantined, Attempts: 1, Err: &RunError{ID: testID(2), Kind: KindError, Msg: "boom", Attempts: 1}}
				wantVal = 0
			}
			if !reflect.DeepEqual(rep, want) || vals[i] != wantVal {
				t.Errorf("workers=%d index %d: value %d report %+v, want %d %+v", workers, i, vals[i], rep, wantVal, want)
			}
		}

		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			Map(context.Background(), nil, workers, 12, testID, func(i int, _ *Watchdog) (int, error) {
				ran.Add(1)
				if i == 3 || i == 9 {
					panic(fmt.Sprintf("injected %d", i))
				}
				return i, nil
			})
			return nil
		}()
		if got != "injected 3" || ran.Load() != 12 {
			t.Errorf("workers=%d: recovered %v after %d of 12 indices ran, want the panic of index 3 after all of them", workers, got, ran.Load())
		}
	}
}

// TestMapNilSupervisorSkipsUnstarted: without a supervisor, the indices the
// pool never started after a cancellation are Skipped too.
func TestMapNilSupervisorSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, reps := Map(ctx, nil, 1, 6, testID, func(i int, _ *Watchdog) (int, error) {
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	for i, rep := range reps {
		want := Report{Outcome: OK, Attempts: 1}
		if i > 2 {
			want = Report{Outcome: Skipped}
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("index %d: report %+v, want %+v", i, rep, want)
		}
	}
}

// TestRunCancelledMidBackoff: a cancellation that lands while a run waits to
// retry ends the wait at once — no further attempt, no verdict, nothing
// counted. The fake timer never fires, so only the context can end the wait.
func TestRunCancelledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(Budget{})
	s.Retries = 5
	var asked []time.Duration
	s.after = func(d time.Duration) <-chan time.Time {
		asked = append(asked, d)
		cancel() // the signal arrives mid-backoff
		return make(chan time.Time)
	}
	calls := 0
	rep := s.Run(ctx, testID(11), func(wd *Watchdog) error {
		calls++
		return Transient(errors.New("still flaky"))
	})
	if rep.Outcome != Skipped || rep.Attempts != 1 || calls != 1 {
		t.Fatalf("report %+v after %d calls, want Skipped after the one attempt", rep, calls)
	}
	if rep.Err == nil || rep.Err.Msg != "still flaky" {
		t.Errorf("the failure being retried was dropped: %+v", rep.Err)
	}
	if len(asked) != 1 || asked[0] != backoffDelay(11, 1) {
		t.Errorf("waited %v, want one wait of %v", asked, backoffDelay(11, 1))
	}
	if c := s.Counts(); c.Total() != 0 {
		t.Errorf("an interrupted retry was counted: %v", c)
	}
}

// TestRunCutByCancellation: an attempt that returns the cancelled context's
// own error (a packet sweep point stopped mid-run) reached no verdict: it is
// Skipped and not counted. Any other error after a cancel is still one.
func TestRunCutByCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Budget{})
	rep := s.Run(ctx, testID(1), func(*Watchdog) error { return fmt.Errorf("point: %w", ctx.Err()) })
	if rep.Outcome != Skipped || rep.Attempts != 1 || s.Counts().Total() != 0 {
		t.Errorf("cut attempt: report %+v, counts %v; want Skipped, uncounted", rep, s.Counts())
	}
	rep = s.Run(ctx, testID(2), func(*Watchdog) error { return errors.New("starved") })
	if rep.Outcome != Quarantined || s.Counts().Quarantined != 1 {
		t.Errorf("plain failure after a cancel: report %+v, counts %v; want Quarantined", rep, s.Counts())
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("usage"), 1},
		{&RunError{ID: testID(1), Kind: KindPanic, Msg: "x"}, 1},
		{QuarantinedErr("%d of %d runs quarantined", 1, 3), ExitQuarantined},
		{InterruptedErr("interrupted"), ExitInterrupted},
		{fmt.Errorf("campaign: %w", InterruptedErr("interrupted")), ExitInterrupted},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	if msg := QuarantinedErr("%d of %d runs quarantined", 1, 3).Error(); msg != "1 of 3 runs quarantined" {
		t.Errorf("message = %q", msg)
	}
}
