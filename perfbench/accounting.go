package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrHang reports an operation that did not return within its bound.
var ErrHang = errors.New("did not return within its bound")

// Tally counts attempted and failed operations of one run and keeps
// the reason of every failure. fail_frac is Failed/Attempted. A failure
// is an operation that returned an error, hung past its bound, or
// produced output that failed a correctness check. Safe for concurrent
// use.
type Tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
	// checksFailed counts correctness-check failures (a subset of
	// failed); any makes the run's output incorrect.
	checksFailed int
}

// maxReasons bounds the failure reasons kept for the report.
const maxReasons = 20

// Op records one attempted operation and its outcome.
func (t *Tally) Op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err.Error())
	}
}

// Check records a correctness check of an already counted operation:
// a failed check turns that operation into a failure. Report every
// failed check of one operation through a single Check call.
func (t *Tally) Check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	t.checksFailed++
	t.note("check failed: " + fmt.Sprintf(format, args...))
}

func (t *Tally) note(reason string) {
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// Counts returns attempted, failed and the kept reasons.
func (t *Tally) Counts() (attempted, failed int, reasons []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.reasons...)
}

// FailFrac is failed over attempted (0 when nothing was attempted).
func (t *Tally) FailFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// Correct reports whether no correctness check failed.
func (t *Tally) Correct() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checksFailed == 0
}

// Bounded runs op with a context that expires after bound and counts it
// on t. An op that has not returned by then is counted as hung and
// abandoned: Bounded returns ErrHang without waiting for it, so a
// deadlocked call cannot stall the benchmark. The op should still
// return once its context is done; it runs on its own goroutine.
func (t *Tally) Bounded(ctx context.Context, bound time.Duration, name string, op func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- op(ctx) }()
	var err error
	select {
	case err = <-done:
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	case <-ctx.Done():
		// Give an op that honours its context a moment to unwind so
		// its own error (more precise than ours) is reported.
		select {
		case err = <-done:
			if err == nil {
				err = fmt.Errorf("%s: %w", name, ErrHang)
			} else {
				err = fmt.Errorf("%s: %w (%v)", name, ErrHang, err)
			}
		case <-time.After(hangGrace):
			err = fmt.Errorf("%s: %w (%v)", name, ErrHang, bound)
		}
	}
	t.Op(err)
	return err
}

// hangGrace is how long Bounded waits, after an op's bound, for it to
// return on its own before abandoning it.
const hangGrace = 2 * time.Second
