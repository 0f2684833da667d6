// Package sim runs simulations: it generates (and caches) workloads,
// executes warmup + measurement windows, and fans suites of runs out
// over worker goroutines. Every experiment harness in
// internal/experiments sits on top of this package.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/attrib"
	"repro/internal/btb"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Default simulation window sizes. The paper warms 10M and measures
// 100M instructions on gem5; this simulator is pure Go and the
// synthetic workloads reach steady state much sooner, so the defaults
// are sized for laptop-scale turnaround. Scale them up with the cmd
// flags for tighter confidence.
const (
	DefaultWarmup  = 1_000_000
	DefaultMeasure = 3_000_000
)

// RunSpec describes one simulation.
type RunSpec struct {
	// Benchmark names a registered workload profile.
	Benchmark string
	// Config is the core configuration.
	Config cpu.Config
	// Warmup and Measure are instruction counts for the two phases;
	// zero selects the defaults.
	Warmup, Measure uint64
	// Label annotates the result (e.g. "skia", "btb+state").
	Label string
	// Interval enables interval metrics collection over the
	// measurement window, one row per this many retired instructions
	// (0 disables).
	Interval uint64
	// Tracer, when non-nil, receives front-end events during the
	// measurement window. Each spec needs its own tracer: cores are
	// not safe for concurrent use and RunAll runs specs in parallel.
	Tracer metrics.Tracer
	// Attrib enables miss attribution over the measurement window.
	// Each run gets a private attrib.Engine, so RunAll stays race-free.
	Attrib bool
	// Sample, when non-nil, switches this spec to sampled simulation
	// (see SamplePlan); nil means exact simulation.
	Sample *SamplePlan
	// SampleEcho, when set on an exact (non-sampled) spec, makes the run
	// publish a sampling summary too: exact metric values with zero
	// confidence intervals. It exists so a CI job can diff a sampled
	// sweep against an exact one with skiacmp -sample-ci over identical
	// keys.
	SampleEcho bool
}

// Result pairs a cpu.Result with its spec label.
type Result struct {
	cpu.Result
	Label string
	// Intervals holds the per-interval timeseries rows when the spec
	// enabled interval collection; nil otherwise.
	Intervals []metrics.Interval
	// Attribution holds the miss-attribution summary when the spec
	// enabled it; nil otherwise.
	Attribution *attrib.Summary
	// Sampling holds the sampled-simulation summary (per-metric
	// confidence intervals, conservation counters) when the run was
	// sampled, or an exact echo when RunSpec.SampleEcho was set; nil
	// otherwise.
	Sampling *SampleSummary
}

// SpecIntervals pairs one spec's interval summary with its identity,
// for embedding in report envelopes.
type SpecIntervals struct {
	Benchmark string          `json:"benchmark"`
	Label     string          `json:"label,omitempty"`
	Summary   metrics.Summary `json:"summary"`
}

// SpecAttribution pairs one spec's miss-attribution summary with its
// identity, for embedding in report envelopes (schema v3+).
type SpecAttribution struct {
	Benchmark string         `json:"benchmark"`
	Label     string         `json:"label,omitempty"`
	Summary   attrib.Summary `json:"summary"`
}

// SpecTiming records the wall time and instruction volume of one
// completed simulation, for the throughput envelope experiment reports
// carry.
type SpecTiming struct {
	Benchmark string `json:"benchmark"`
	Label     string `json:"label,omitempty"`
	// Instructions is the simulated volume, warmup plus measurement.
	Instructions uint64  `json:"instructions"`
	Seconds      float64 `json:"seconds"`
}

// RunnerStats aggregates per-spec timing and throughput over every
// successful Run a Runner has executed.
type RunnerStats struct {
	// Runs counts completed simulations.
	Runs int `json:"runs"`
	// Instructions is the total simulated volume (warmup + measure).
	Instructions uint64 `json:"instructions"`
	// WallSeconds spans the first run's start to the last run's end,
	// so it reflects concurrency; CPUSeconds sums per-run times.
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	// InstructionsPerSec is Instructions / WallSeconds.
	InstructionsPerSec float64 `json:"instructions_per_sec"`
	// Specs holds per-run timings, sorted by benchmark then label.
	Specs []SpecTiming `json:"specs,omitempty"`
}

// Runner generates and caches workloads so that every configuration of
// a benchmark simulates the same program bytes. Workloads are immutable
// after generation, so the cache is safe to share across goroutines.
// A RunSpec says what a run computes; the Runner only says how specs
// execute (worker count, warmup checkpoints), so no Runner setting
// changes a result.
type Runner struct {
	mu    sync.Mutex
	cache map[string]*workload.Workload
	// Workers bounds concurrent simulations in RunAll (default:
	// GOMAXPROCS).
	Workers int
	// Checkpoint enables warmup checkpointing: one warmed master core
	// is kept per (benchmark, config, warmup) and every run starts from
	// a clone, so specs sharing a warmup prefix pay it once. Exact
	// results are bit-identical with or without checkpointing (clones
	// are exact state copies).
	Checkpoint bool
	// Checkpoints, when non-nil (and Checkpoint is set), is the store
	// warmed masters live in. Sharing one CheckpointCache across
	// runners extends warmup reuse beyond a single sweep — e.g. an
	// exact reference pass followed by a sampled pass pays each
	// (benchmark, config, warmup) cell once. nil keeps a runner-local
	// store.
	Checkpoints *CheckpointCache
	// The timing counters below are guarded by mu: Run is called from
	// RunAll's worker goroutines, and record() books each finished run.
	timings    []SpecTiming
	totalInsts uint64
	cpuSeconds float64
	firstStart time.Time
	lastEnd    time.Time
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{cache: make(map[string]*workload.Workload)}
}

// Workload returns the cached workload for a registered benchmark,
// generating it on first use.
func (r *Runner) Workload(name string) (*workload.Workload, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.cache[name]; ok {
		return w, nil
	}
	prof, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(prof)
	if err != nil {
		return nil, err
	}
	r.cache[name] = w
	return w, nil
}

// record books one successful simulation into the runner's timing
// counters.
func (r *Runner) record(spec RunSpec, insts uint64, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timings = append(r.timings, SpecTiming{
		Benchmark:    spec.Benchmark,
		Label:        spec.Label,
		Instructions: insts,
		Seconds:      end.Sub(start).Seconds(),
	})
	r.totalInsts += insts
	r.cpuSeconds += end.Sub(start).Seconds()
	if r.firstStart.IsZero() || start.Before(r.firstStart) {
		r.firstStart = start
	}
	if end.After(r.lastEnd) {
		r.lastEnd = end
	}
}

// Stats returns a snapshot of the runner's timing and throughput
// counters across all successful runs so far. Wall time spans the
// first run's start to the last run's end (and so accounts for
// concurrency); per-spec timings include first-use workload
// generation and are sorted by benchmark then label.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunnerStats{
		Runs:         len(r.timings),
		Instructions: r.totalInsts,
		CPUSeconds:   r.cpuSeconds,
		Specs:        append([]SpecTiming(nil), r.timings...),
	}
	sort.SliceStable(st.Specs, func(i, j int) bool {
		if st.Specs[i].Benchmark != st.Specs[j].Benchmark {
			return st.Specs[i].Benchmark < st.Specs[j].Benchmark
		}
		return st.Specs[i].Label < st.Specs[j].Label
	})
	if !r.firstStart.IsZero() {
		st.WallSeconds = r.lastEnd.Sub(r.firstStart).Seconds()
	}
	if st.WallSeconds > 0 {
		st.InstructionsPerSec = float64(st.Instructions) / st.WallSeconds
	}
	return st
}

// ctxCheckChunk is the instruction granularity at which RunContext
// polls for cancellation. Chunking the cpu.Core.Run window is exact:
// the core's loop only depends on the cumulative retire target, so N
// chunked calls retire the same instructions in the same cycles as one
// call (pinned by TestRunContextChunkingExact).
const ctxCheckChunk = 262_144

// runWindow advances the core by n instructions in ctxCheckChunk
// slices, aborting between slices once ctx is done. It stops early if
// the workload ends (the core refuses to retire more). Slices aim at
// an absolute retired-instruction target: cpu.Core.Run may overshoot
// each call by up to the retire width, so per-slice deltas would
// compound into extra instructions, while re-deriving the remainder
// from the absolute target keeps chunked execution bit-identical to a
// single Run call.
func (r *Runner) runWindow(ctx context.Context, c *cpu.Core, n uint64) error {
	target := c.Retired() + n
	for c.Retired() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := target - c.Retired()
		if step > ctxCheckChunk {
			step = ctxCheckChunk
		}
		if c.Run(step) == 0 {
			break // workload exhausted
		}
	}
	return ctx.Err()
}

// windows resolves the spec's warmup and measurement instruction
// counts against the package defaults.
func (s RunSpec) windows() (warm, meas uint64) {
	warm, meas = s.Warmup, s.Measure
	if warm == 0 {
		warm = DefaultWarmup
	}
	if meas == 0 {
		meas = DefaultMeasure
	}
	return warm, meas
}

// Run executes one simulation: build core, warm up, reset statistics,
// measure. It is RunContext under context.Background().
func (r *Runner) Run(spec RunSpec) (Result, error) {
	return r.RunContext(context.Background(), spec)
}

// RunContext executes one simulation under ctx: build core, warm up,
// reset statistics, measure. A spec the run could not honour (a
// sampling plan whose intervals overflow the window, sampling combined
// with tracing or attribution) fails before warmup. Cancellation is
// polled every ctxCheckChunk simulated instructions; an aborted run
// returns an error wrapping ctx.Err() (test with errors.Is against
// context.Canceled / context.DeadlineExceeded) and books nothing into
// the runner's timing counters.
func (r *Runner) RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	//skia:nondet-ok wall-clock brackets the run for throughput reporting; no simulated state depends on it
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", spec.Benchmark, err)
	}
	warm, meas := spec.windows()
	var plan SamplePlan
	if spec.Sample != nil {
		plan = spec.Sample.Normalized(meas)
		if err := spec.checkSampled(plan, meas); err != nil {
			return Result{}, fmt.Errorf("sim: %s: %w", spec.Benchmark, err)
		}
	}
	w, err := r.Workload(spec.Benchmark)
	if err != nil {
		return Result{}, err
	}
	c, err := r.warmCore(ctx, spec, w, warm)
	if err != nil {
		return Result{}, err
	}
	if spec.Sample != nil {
		out, detail, err := r.runSampled(ctx, spec, c, plan, meas)
		if err != nil {
			return Result{}, err
		}
		//skia:nondet-ok wall-clock closes the throughput window opened above; no simulated state depends on it
		r.record(spec, warm+detail, start, time.Now())
		return out, nil
	}
	c.ResetStats()
	// Observability attaches at the warmup boundary so intervals and
	// traces cover exactly the measurement window the statistics do.
	// The collector is private to this call — RunAll's workers never
	// share one — so capture stays race-free; only record() touches
	// runner state, under the mutex.
	var col *metrics.Collector
	if spec.Interval > 0 {
		col = metrics.NewCollector(spec.Interval)
		c.AttachCollector(col)
	}
	if spec.Tracer != nil {
		c.SetTracer(spec.Tracer)
	}
	var eng *attrib.Engine
	if spec.Attrib {
		eng = attrib.NewEngine()
		c.AttachAttribution(eng)
	}
	if err := r.runWindow(ctx, c, meas); err != nil {
		return Result{}, fmt.Errorf("sim: %s: measurement aborted: %w", spec.Benchmark, err)
	}
	if err := c.Frontend().Err(); err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", spec.Benchmark, err)
	}
	res := c.Result(spec.Benchmark)
	if res.FE.ForcedResyncs > 0 {
		return Result{}, fmt.Errorf("sim: %s: %d forced resyncs indicate a front-end modeling bug",
			spec.Benchmark, res.FE.ForcedResyncs)
	}
	out := Result{Result: res, Label: spec.Label}
	if col != nil {
		col.Finish(c.Sample())
		out.Intervals = col.Intervals()
	}
	if eng != nil {
		s := eng.Summary()
		out.Attribution = &s
	}
	if spec.SampleEcho {
		out.Sampling = exactEcho(&res, meas)
	}
	//skia:nondet-ok wall-clock closes the throughput window opened above; no simulated state depends on it
	r.record(spec, warm+meas, start, time.Now())
	return out, nil
}

// RunAll executes the specs concurrently (bounded by Workers) and
// returns results in spec order. Every spec runs to completion even
// when siblings fail; the returned error joins one entry per failed
// spec (benchmark and label named), and the result slice still carries
// the successful entries (failed slots are zero-valued). It is
// RunAllContext under context.Background().
func (r *Runner) RunAll(specs []RunSpec) ([]Result, error) {
	return r.RunAllContext(context.Background(), specs)
}

// RunAllContext is RunAll under an explicit context. Once ctx is done,
// in-flight specs abort at their next chunk boundary and queued specs
// fail immediately without simulating; each affected slot's error
// wraps ctx.Err().
func (r *Runner) RunAllContext(ctx context.Context, specs []RunSpec) ([]Result, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A bare semaphore send would park every queued spec forever
			// if the context died while the in-flight ones held all the
			// slots; a cancelled spec must fail without waiting its turn.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = fmt.Errorf("aborted before start: %w", ctx.Err())
				return
			}
			defer func() { <-sem }()
			results[i], errs[i] = r.RunContext(ctx, specs[i])
		}(i)
	}
	wg.Wait()
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("spec %s/%s: %w", specs[i].Benchmark, specs[i].Label, err))
		}
	}
	if len(failed) > 0 {
		return results, errors.Join(failed...)
	}
	return results, nil
}

// BTBWithEntries returns the baseline BTB config resized to n entries.
func BTBWithEntries(n int) btb.Config {
	cfg := btb.DefaultConfig()
	cfg.Entries = n
	return cfg
}

// AugmentedBTB grows base by approximately extraBits of storage — the
// iso-hardware-budget competitor from Figure 3 (giving the BTB the
// SBB's budget instead). BTB geometry is quantized (power-of-two sets),
// so the added capacity is rounded to the nearest whole way; the caller
// can compare StorageBits before and after for the exact grant.
func AugmentedBTB(base btb.Config, extraBits int) btb.Config {
	if base.Infinite || base.Entries <= 0 {
		return base
	}
	sets := base.Entries / base.Ways
	perEntry := base.TagBits + 1 + 1 + 2 + 64
	extraEntries := extraBits / perEntry
	extraWays := (extraEntries + sets/2) / sets // nearest
	if extraWays < 1 && extraEntries > 0 {
		extraWays = 1 // never grant less than one way
	}
	out := base
	out.Ways += extraWays
	out.Entries = sets * out.Ways
	return out
}
