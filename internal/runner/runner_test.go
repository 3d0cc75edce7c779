package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSizing: ForEach runs exactly the resolved number of bodies at
// once. The first `want` bodies wait until all of them have started, so
// a smaller pool deadlocks into the timeout, and the peak concurrency
// over 2×want items must not exceed want.
func TestPoolSizing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		want    int
	}{
		{"default", 0, runtime.GOMAXPROCS(0)},
		{"negative", -4, runtime.GOMAXPROCS(0)},
		{"one", 1, 1},
		{"explicit", 7, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var started, active, peak atomic.Int32
			all := make(chan struct{})
			err := ForEach(context.Background(), tc.workers, 2*tc.want, func(i int) error {
				n := active.Add(1)
				defer active.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if started.Add(1) == int32(tc.want) {
					close(all)
				}
				if i >= tc.want {
					return nil
				}
				select {
				case <-all:
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("body %d: only %d of %d bodies started", i, started.Load(), tc.want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got != int32(tc.want) {
				t.Fatalf("peak concurrency = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestErrorPropagation: every index runs even when some fail, and the
// reported failure is the lowest-index one regardless of pool timing.
func TestErrorPropagation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := ForEach(context.Background(), workers, 32, func(i int) error {
			ran.Add(1)
			switch i {
			case 5:
				return errors.New("bad-early")
			case 20:
				return errors.New("bad-late")
			}
			return nil
		})
		if err == nil || err.Error() != "bad-early" {
			t.Fatalf("workers=%d: err = %v, want the earliest failure", workers, err)
		}
		if got := ran.Load(); got != 32 {
			t.Fatalf("workers=%d: %d of 32 indices ran", workers, got)
		}
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 40)
	if err := ForEach(context.Background(), 8, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	sentinel := errors.New("boom")
	err := ForEach(context.Background(), 4, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("slot %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "slot 3") {
		t.Fatalf("ForEach must surface the lowest-index error, got %v", err)
	}
}

// TestForEachZeroItems: an empty range is a no-op that returns at once,
// and a non-empty one runs every index exactly once.
func TestForEachZeroItems(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- ForEach(context.Background(), 4, 0, func(i int) error {
			return fmt.Errorf("fn called for empty range (i=%d)", i)
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach over zero items did not return")
	}
	const n = 64
	calls := make([]atomic.Int32, n)
	if err := ForEach(context.Background(), 5, n, func(i int) error {
		calls[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
