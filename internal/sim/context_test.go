package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
)

// tinySpec is a fast spec for cancellation tests.
func tinySpec() RunSpec {
	return RunSpec{
		Benchmark: "noop",
		Config:    cpu.SkiaConfig(),
		Warmup:    20_000,
		Measure:   100_000,
		Label:     "skia",
	}
}

// TestRunContextCanceledBeforeStart: a context canceled up front fails
// immediately without booking a run.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx, tinySpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Runs != 0 {
		t.Errorf("canceled run was booked: %+v", st)
	}
}

// TestRunContextDeadlineAborts: a run much longer than its deadline is
// cut off at a chunk boundary and reports DeadlineExceeded, long
// before the full window would have finished.
func TestRunContextDeadlineAborts(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	spec := tinySpec()
	// ~100M instructions is tens of seconds of simulation; the 50ms
	// deadline must abort it at the next ctxCheckChunk boundary.
	spec.Warmup = 100_000_000
	start := time.Now()
	_, err := r.RunContext(ctx, spec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("abort took %v; cancellation is not being polled", elapsed)
	}
	if st := r.Stats(); st.Runs != 0 {
		t.Errorf("aborted run was booked: %+v", st)
	}
}

// TestRunContextChunkingExact pins that chunked execution (the
// cancellation poll granularity) is bit-identical to the unchunked
// Run path: same cycles, same IPC, same front-end counters.
func TestRunContextChunkingExact(t *testing.T) {
	spec := RunSpec{
		Benchmark: "voter",
		Config:    cpu.SkiaConfig(),
		// Windows deliberately not multiples of ctxCheckChunk.
		Warmup:  ctxCheckChunk + 12_345,
		Measure: 2*ctxCheckChunk + 6_789,
		Label:   "skia",
	}
	a, err := NewRunner().RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: simulate the same windows in single Run calls.
	b := func() Result {
		r := NewRunner()
		w, err := r.Workload(spec.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.New(spec.Config, w)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(spec.Warmup)
		c.ResetStats()
		c.Run(spec.Measure)
		return Result{Result: c.Result(spec.Benchmark), Label: spec.Label}
	}()
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Errorf("chunked run diverged: cycles %d vs %d, IPC %v vs %v",
			a.Cycles, b.Cycles, a.IPC, b.IPC)
	}
	if a.FE != b.FE {
		t.Errorf("front-end stats diverged:\n%+v\n!=\n%+v", a.FE, b.FE)
	}
}

// TestRunAllContextCancelSkipsQueued: once the context dies, queued
// specs fail fast with the context error instead of simulating.
func TestRunAllContextCancelSkipsQueued(t *testing.T) {
	r := NewRunner()
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []RunSpec{tinySpec(), tinySpec(), tinySpec()}
	_, err := r.RunAllContext(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Runs != 0 {
		t.Errorf("specs ran under a dead context: %+v", st)
	}
}

// TestRunAllContextCancelMidFlight is the regression test for the
// ctxwait finding fixed in this file's sibling sim.go: the worker
// semaphore acquisition used to be a bare send, so specs queued behind
// a full worker pool could only proceed once an in-flight spec handed
// its slot over. Acquisition now selects on ctx.Done, so cancellation
// mid-run must (a) return promptly and (b) deliver a context error for
// every spec — the in-flight one aborted at a chunk boundary, the
// queued ones either failing at acquisition or immediately after it.
func TestRunAllContextCancelMidFlight(t *testing.T) {
	r := NewRunner()
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := []RunSpec{tinySpec(), tinySpec(), tinySpec()}
	for i := range specs {
		// Long enough that cancel lands while spec 0 is mid-simulation
		// and specs 1-2 are parked on the semaphore.
		specs[i].Warmup = 200_000_000
		specs[i].Label = []string{"first", "second", "third"}[i]
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.RunAllContext(ctx, specs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("RunAllContext took %v after cancel; queued specs are not observing cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, label := range []string{"first", "second", "third"} {
		if !strings.Contains(err.Error(), label) {
			t.Errorf("spec %q missing from joined error: %v", label, err)
		}
	}
}
