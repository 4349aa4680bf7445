package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// mapAll is MapErrCtx for an fn that cannot fail, under a live context.
func mapAll[T any](t *testing.T, workers, n int, fn func(i int) T) []T {
	t.Helper()
	out, errs := MapErrCtx(context.Background(), workers, n, func(i int) (T, error) { return fn(i), nil })
	if errs != nil {
		t.Fatalf("workers=%d: errs = %v, want nil on a clean batch", workers, errs)
	}
	return out
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got := mapAll(t, workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := mapAll(t, 4, 0, func(int) int { return 1 }); got != nil {
		t.Errorf("MapErrCtx with n=0 returned %v, want nil", got)
	}
}

func TestMapRunsEveryIndexExactlyOnce(t *testing.T) {
	var calls [257]atomic.Int32
	mapAll(t, 7, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times, want 1", i, n)
		}
	}
}

func TestMapCapsWorkersAtN(t *testing.T) {
	// More workers than items must still execute every item once; the
	// easiest observable contract is correct output.
	got := mapAll(t, 64, 3, func(i int) int { return i })
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("got %v, want [0 1 2]", got)
	}
}

func TestMapErrCollectsPerIndexErrors(t *testing.T) {
	sentinel := errors.New("bad index")
	for _, workers := range []int{1, 4} {
		out, errs := MapErrCtx(context.Background(), workers, 10, func(i int) (int, error) {
			if i%3 == 1 {
				return 0, sentinel
			}
			return i * 2, nil
		})
		if errs == nil {
			t.Fatalf("workers=%d: errs is nil despite failures", workers)
		}
		for i := 0; i < 10; i++ {
			if i%3 == 1 {
				if !errors.Is(errs[i], sentinel) {
					t.Errorf("workers=%d: errs[%d] = %v, want sentinel", workers, i, errs[i])
				}
			} else {
				if errs[i] != nil {
					t.Errorf("workers=%d: errs[%d] = %v, want nil", workers, i, errs[i])
				}
				if out[i] != i*2 {
					t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*2)
				}
			}
		}
	}
}

func TestMapErrNilWhenClean(t *testing.T) {
	_, errs := MapErrCtx(context.Background(), 4, 32, func(i int) (int, error) { return i, nil })
	if errs != nil {
		t.Errorf("errs = %v, want nil on a clean batch", errs)
	}
}

func TestMapErrCapturesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, errs := MapErrCtx(context.Background(), workers, 8, func(i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(errs[3], &pe) {
			t.Fatalf("workers=%d: errs[3] = %v, want *PanicError", workers, errs[3])
		}
		if pe.Index != 3 || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = {%d %v stack:%d}, want index 3, value boom, a stack",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
		// Every other index still ran: failures must not abort the batch.
		for i := 0; i < 8; i++ {
			if i == 3 {
				continue
			}
			if errs[i] != nil || out[i] != i {
				t.Errorf("workers=%d: index %d = (%d, %v), want (%d, nil)", workers, i, out[i], errs[i], i)
			}
		}
	}
}

func TestMapErrDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]int, []error) {
		return MapErrCtx(context.Background(), workers, 64, func(i int) (int, error) {
			if i == 17 {
				panic(i)
			}
			if i%11 == 5 {
				return 0, errors.New("e")
			}
			return i * i, nil
		})
	}
	out1, errs1 := run(1)
	out8, errs8 := run(8)
	for i := range out1 {
		if out1[i] != out8[i] {
			t.Errorf("out[%d]: j=1 %d vs j=8 %d", i, out1[i], out8[i])
		}
		if (errs1[i] == nil) != (errs8[i] == nil) {
			t.Errorf("errs[%d]: j=1 %v vs j=8 %v", i, errs1[i], errs8[i])
		}
	}
}

func TestFirstErr(t *testing.T) {
	if err := FirstErr(nil); err != nil {
		t.Errorf("FirstErr(nil) = %v", err)
	}
	sentinel := errors.New("x")
	if err := FirstErr([]error{nil, sentinel, errors.New("y")}); err != sentinel {
		t.Errorf("FirstErr = %v, want the first non-nil error", err)
	}
}

func TestMapErrCtxSkipsAfterCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 64
		var started atomic.Int32
		// Cancel once a handful of indices have started; every index that
		// never ran must come back as ErrSkipped, and every started index
		// must keep its real result.
		out, errs := MapErrCtx(ctx, workers, n, func(i int) (int, error) {
			if started.Add(1) == int32(workers) {
				cancel()
			}
			return i + 1, nil
		})
		cancel()
		var ran, skipped int
		for i := 0; i < n; i++ {
			if errs != nil && errs[i] != nil {
				if !errors.Is(errs[i], ErrSkipped) {
					t.Fatalf("workers=%d: errs[%d] = %v, want ErrSkipped", workers, i, errs[i])
				}
				if !errors.Is(errs[i], context.Canceled) {
					t.Fatalf("workers=%d: errs[%d] does not wrap the cancellation cause", workers, i)
				}
				if out[i] != 0 {
					t.Fatalf("workers=%d: skipped index %d has result %d", workers, i, out[i])
				}
				skipped++
				continue
			}
			if out[i] != i+1 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i+1)
			}
			ran++
		}
		if skipped == 0 {
			t.Fatalf("workers=%d: cancellation skipped nothing (ran=%d)", workers, ran)
		}
		if int(started.Load()) != ran {
			t.Fatalf("workers=%d: %d fns started but %d results kept", workers, started.Load(), ran)
		}
	}
}

func TestMapErrCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, errs := MapErrCtx(ctx, 4, 8, func(i int) (int, error) {
		t.Errorf("fn(%d) ran under a cancelled context", i)
		return 0, nil
	})
	if len(out) != 8 || errs == nil {
		t.Fatalf("got %d results, errs=%v", len(out), errs)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrSkipped) {
			t.Fatalf("errs[%d] = %v, want ErrSkipped", i, err)
		}
	}
}
