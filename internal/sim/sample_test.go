package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
)

// sampleSpec is the shared window for sampling tests: large enough for
// the workloads to leave transients, small enough to keep the suite
// fast.
func sampleSpec(bench string, skia bool) RunSpec {
	cfg := cpu.DefaultConfig()
	label := "base"
	if skia {
		cfg = cpu.SkiaConfig()
		label = "skia"
	}
	return RunSpec{
		Benchmark: bench,
		Config:    cfg,
		Warmup:    100_000,
		Measure:   1_000_000,
		Label:     bench + "/" + label,
	}
}

// TestSampledWithinCIOfExact is the headline accuracy contract: for
// every registered metric, the sampled point estimate must land within
// its own stated 95% confidence interval (plus a small tolerance floor
// for zero-variance metrics) of the exact value. This is the same gate
// skiacmp -sample-ci applies between report files in CI.
func TestSampledWithinCIOfExact(t *testing.T) {
	for _, bench := range []string{"voter", "noop"} {
		for _, skia := range []bool{false, true} {
			spec := sampleSpec(bench, skia)
			t.Run(spec.Label, func(t *testing.T) {
				r := NewRunner()
				exact, err := r.Run(spec)
				if err != nil {
					t.Fatal(err)
				}

				sspec := spec
				sspec.Sample = &SamplePlan{Intervals: 10}
				sampled, err := r.Run(sspec)
				if err != nil {
					t.Fatal(err)
				}
				if sampled.Sampling == nil {
					t.Fatal("sampled run published no sampling summary")
				}

				exactVals := map[string]float64{}
				for _, m := range exactEcho(&exact.Result, 0).Metrics {
					exactVals[m.Name] = m.Mean
				}
				for _, m := range sampled.Sampling.Metrics {
					want := exactVals[m.Name]
					tol := m.CI + 0.01 + 0.05*math.Abs(want)
					if d := math.Abs(m.Mean - want); d > tol {
						t.Errorf("%s: sampled %.6g vs exact %.6g: |Δ|=%.6g exceeds CI+tol %.6g",
							m.Name, m.Mean, want, d, tol)
					}
				}
			})
		}
	}
}

// TestSampledShardCountInvariant: the same plan run serially and across
// shards must produce DeepEqual results — the whole Result, including
// the sampling summary, spliced intervals, and every counter. This is
// the sharding determinism contract the CI sampling job gates.
func TestSampledShardCountInvariant(t *testing.T) {
	base := sampleSpec("voter", true)
	base.Interval = 50_000

	var results []Result
	for _, shards := range []int{1, 4, 16} {
		spec := base
		spec.Sample = &SamplePlan{Intervals: 8, Shards: shards}
		r := NewRunner()
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("sharded run %d differs from serial run:\n  serial:  %+v\n  sharded: %+v",
				i, results[0], results[i])
		}
	}
}

// TestSampledRepeatable: two identical sampled runs are DeepEqual.
func TestSampledRepeatable(t *testing.T) {
	spec := sampleSpec("voter", true)
	spec.Sample = &SamplePlan{Intervals: 6, Shards: 3}
	a, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run not repeatable:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestSampleConservation checks the instruction accounting of a sampled
// run: the three phase counters partition the advanced total exactly,
// the planned window is echoed, and each phase is within its structural
// bounds (measured ≈ K·L up to retire-width overshoot per interval;
// skipped + micro-warmup equals the sum of interval start positions).
func TestSampleConservation(t *testing.T) {
	spec := sampleSpec("voter", true)
	plan := SamplePlan{Intervals: 8, Shards: 2}
	spec.Sample = &plan
	res, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampling
	if s == nil {
		t.Fatal("no sampling summary")
	}
	c := s.Counters
	if got := c.SkippedInstructions + c.MicroWarmupInstructions + c.MeasuredInstructions; got != c.AdvancedInstructions {
		t.Errorf("conservation violated: skipped %d + micro-warmup %d + measured %d = %d, advanced %d",
			c.SkippedInstructions, c.MicroWarmupInstructions, c.MeasuredInstructions, got, c.AdvancedInstructions)
	}
	_, meas := spec.windows()
	if c.PlannedWindow != meas {
		t.Errorf("planned window %d, want %d", c.PlannedWindow, meas)
	}

	np := plan.Normalized(meas)
	// Every interval measures at least IntervalInsts and overshoots by
	// less than the retire width.
	K := uint64(np.Intervals)
	minMeasured := K * np.IntervalInsts
	slack := K * uint64(spec.Config.RetireWidth)
	if c.MeasuredInstructions < minMeasured || c.MeasuredInstructions >= minMeasured+slack {
		t.Errorf("measured %d outside [%d, %d)", c.MeasuredInstructions, minMeasured, minMeasured+slack)
	}
	// The skip pass is chained: one cursor walks the window once, so
	// the total skipped distance is the last interval's start minus its
	// micro-warmup — and in particular strictly less than the window,
	// never the Σ start_i a per-interval re-skip would pay.
	last := np.intervalStart(np.Intervals-1, meas)
	mw := np.MicroWarmup
	if mw > last {
		mw = last
	}
	if want := last - mw; c.SkippedInstructions != want {
		t.Errorf("skipped %d, want chained cursor distance %d", c.SkippedInstructions, want)
	}
	if c.SkippedInstructions >= meas {
		t.Errorf("skipped %d >= window %d: skip pass is not chained", c.SkippedInstructions, meas)
	}
	// The aggregate result's instruction count is the measured total.
	if res.Instructions != c.MeasuredInstructions {
		t.Errorf("aggregate instructions %d != measured %d", res.Instructions, c.MeasuredInstructions)
	}
}

// TestSampledIntervalSplice: interval rows from a sampled run are
// renumbered sequentially and rebased onto the measurement window's
// instruction axis — indices strictly increasing, instruction spans
// inside [0, meas), cycle spans monotonic.
func TestSampledIntervalSplice(t *testing.T) {
	spec := sampleSpec("voter", true)
	spec.Interval = 25_000
	spec.Sample = &SamplePlan{Intervals: 5}
	res, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no interval rows collected")
	}
	_, meas := spec.windows()
	var prevCycle uint64
	for i, row := range res.Intervals {
		if row.Index != i {
			t.Fatalf("row %d has index %d", i, row.Index)
		}
		if row.EndInstruction <= row.StartInstruction {
			t.Fatalf("row %d: empty instruction span [%d, %d]", i, row.StartInstruction, row.EndInstruction)
		}
		if row.EndInstruction > meas+uint64(spec.Config.RetireWidth) {
			t.Fatalf("row %d: end instruction %d beyond window %d", i, row.EndInstruction, meas)
		}
		if row.StartCycle < prevCycle {
			t.Fatalf("row %d: cycle axis not monotonic: start %d < previous end %d", i, row.StartCycle, prevCycle)
		}
		if row.EndCycle < row.StartCycle {
			t.Fatalf("row %d: negative cycle span", i)
		}
		prevCycle = row.EndCycle
	}
}

// TestCheckpointExactBitIdentical: enabling warmup checkpointing must
// not change exact results at all — the clone is an exact state copy,
// so byte-identical JSON is required, for both fresh builds (the first
// run populating a cell) and checkpoint hits (subsequent runs cloning
// it).
func TestCheckpointExactBitIdentical(t *testing.T) {
	specs := []RunSpec{
		sampleSpec("voter", false),
		sampleSpec("voter", true),
		sampleSpec("noop", true),
	}
	plain := NewRunner()
	ckpt := NewRunner()
	ckpt.Checkpoint = true
	for _, spec := range specs {
		want, err := plain.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: first run builds the checkpoint, second hits it.
		for pass := 0; pass < 2; pass++ {
			got, err := ckpt.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			jw, _ := json.Marshal(want)
			jg, _ := json.Marshal(got)
			if string(jw) != string(jg) {
				t.Errorf("%s pass %d: checkpointed run not byte-identical:\n  want %s\n  got  %s",
					spec.Label, pass, jw, jg)
			}
		}
	}
}

// TestCheckpointCacheSharedAcrossRunners: a CheckpointCache handed to
// two runners must let the second reuse the first's warmed master —
// observable as identical results plus the warmed instruction volume
// being booked against the first runner only once per cell.
func TestCheckpointCacheSharedAcrossRunners(t *testing.T) {
	spec := sampleSpec("voter", false)
	cache := NewCheckpointCache()
	a := NewRunner()
	a.Checkpoint = true
	a.Checkpoints = cache
	b := NewRunner()
	b.Checkpoint = true
	b.Checkpoints = cache
	want, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		t.Errorf("shared-cache run not byte-identical:\n  want %s\n  got  %s", jw, jg)
	}
	warm, _ := spec.windows()
	key, err := checkpointKey(spec, warm)
	if err != nil {
		t.Fatal(err)
	}
	cell := cache.cell(key)
	if cell.core == nil {
		t.Fatalf("shared cache has no warmed master under %q after two runs", key)
	}
	// A fresh runner on the same cache must hit, not re-warm: runs
	// continue on clones, so the parked master's retire count (warmup,
	// give or take the final cycle's retire width) never moves.
	parked := cell.core.Retired()
	if parked < warm {
		t.Fatalf("warmed master retired %d < warmup %d", parked, warm)
	}
	c := NewRunner()
	c.Checkpoint = true
	c.Checkpoints = cache
	if _, err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	if got := cell.core.Retired(); got != parked {
		t.Errorf("warmed master advanced from %d to %d retired; clones must leave it parked", parked, got)
	}
}

// TestCheckpointKeySeparatesConfigs: different configs, warmups, or
// benchmarks must never share a checkpoint cell.
func TestCheckpointKeySeparatesConfigs(t *testing.T) {
	a := sampleSpec("voter", false)
	b := sampleSpec("voter", true)
	c := a
	c.Warmup = 200_000
	d := sampleSpec("noop", false)
	keys := map[string]string{}
	for _, spec := range []RunSpec{a, b, c, d} {
		warm, _ := spec.windows()
		k, err := checkpointKey(spec, warm)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("specs %s and %s share checkpoint key %q", prev, spec.Label, k)
		}
		keys[k] = spec.Label
	}
	// Label and sampling plan must NOT affect the key: they cannot
	// change warmed state.
	e := a
	e.Label = "other"
	e.Sample = &SamplePlan{Intervals: 4}
	warm, _ := a.windows()
	ka, _ := checkpointKey(a, warm)
	ke, _ := checkpointKey(e, warm)
	if ka != ke {
		t.Errorf("label/sampling changed checkpoint key: %q vs %q", ka, ke)
	}
}

// TestSampleEchoPublishesExactRow: with SampleEcho set, an exact run
// carries a sampling summary marked Exact whose means are the exact
// metric values with zero confidence intervals.
func TestSampleEchoPublishesExactRow(t *testing.T) {
	spec := sampleSpec("voter", true)
	spec.SampleEcho = true
	res, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampling
	if s == nil {
		t.Fatal("SampleEcho produced no sampling summary")
	}
	if !s.Exact {
		t.Error("echo row not marked exact")
	}
	if len(s.Metrics) != len(sampleMetrics) {
		t.Fatalf("echo has %d metrics, want %d", len(s.Metrics), len(sampleMetrics))
	}
	for i, m := range s.Metrics {
		if m.CI != 0 {
			t.Errorf("%s: exact echo has nonzero CI %g", m.Name, m.CI)
		}
		if want := sampleMetrics[i].get(&res.Result); m.Mean != want {
			t.Errorf("%s: echo mean %g, exact value %g", m.Name, m.Mean, want)
		}
	}
}

// TestSamplingRejectsTracerAndAttrib: the spliced stream has no single
// cycle axis and attribution summaries cannot be merged, so sampling
// must refuse both with a clear error rather than mis-report.
func TestSamplingRejectsTracerAndAttrib(t *testing.T) {
	spec := sampleSpec("voter", true)
	spec.Sample = &SamplePlan{Intervals: 2}
	spec.Tracer = metrics.NewRingTracer(16)
	if _, err := NewRunner().Run(spec); err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("tracer + sampling: got %v, want tracing error", err)
	}
	spec.Tracer = nil
	spec.Attrib = true
	if _, err := NewRunner().Run(spec); err == nil || !strings.Contains(err.Error(), "attribution") {
		t.Errorf("attrib + sampling: got %v, want attribution error", err)
	}
}

// TestSamplePlanNormalization pins the plan defaulting rules.
func TestSamplePlanNormalization(t *testing.T) {
	np := SamplePlan{}.Normalized(1_000_000)
	if np.Intervals != DefaultSampleIntervals {
		t.Errorf("default intervals %d, want %d", np.Intervals, DefaultSampleIntervals)
	}
	if want := uint64(1_000_000) / uint64(np.Intervals) / 10; np.IntervalInsts != want {
		t.Errorf("default interval insts %d, want %d", np.IntervalInsts, want)
	}
	if np.MicroWarmup != np.IntervalInsts/2 {
		t.Errorf("default micro-warmup %d, want %d", np.MicroWarmup, np.IntervalInsts/2)
	}
	if np.Shards != 1 {
		t.Errorf("default shards %d, want 1", np.Shards)
	}
	// Tiny windows still produce a positive detail length.
	if np := (SamplePlan{Intervals: 4}).Normalized(8); np.IntervalInsts == 0 {
		t.Error("tiny window normalized to zero interval length")
	}
}

// TestSamplePlanMustFitWindow: a plan whose normalized interval length
// exceeds its share of the measurement window (meas/K) would overlap
// intervals and measure past the window's end, so the run must fail
// before warmup. Plans that fit, including the exact fit L == meas/K,
// the default plan and the plans the benchmark and pinned reports use,
// must pass the same check.
func TestSamplePlanMustFitWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan SamplePlan
		meas uint64
		ok   bool
	}{
		{"overlapping intervals", SamplePlan{Intervals: 4, IntervalInsts: 50_000}, 100_000, false},
		{"more intervals than instructions", SamplePlan{Intervals: 9}, 8, false},
		{"exact fit", SamplePlan{Intervals: 4, IntervalInsts: 25_000}, 100_000, true},
		{"default plan", SamplePlan{}, DefaultMeasure, true},
		{"benchmark plan", SamplePlan{Intervals: 4, IntervalInsts: 10_000, MicroWarmup: 5_000, Shards: 1}, 250_000, true},
		{"benchmark smoke plan", SamplePlan{Intervals: 2, IntervalInsts: 2_000, MicroWarmup: 1_000, Shards: 1}, 40_000, true},
		{"pinned plan", SamplePlan{Intervals: 4, IntervalInsts: 20_000, MicroWarmup: 10_000}, 400_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := RunSpec{Benchmark: "noop", Config: cpu.SkiaConfig(), Warmup: 20_000, Measure: tc.meas}
			err := spec.checkSampled(tc.plan.Normalized(tc.meas), tc.meas)
			if tc.ok != (err == nil) {
				t.Fatalf("checkSampled = %v, want ok=%v", err, tc.ok)
			}
			if tc.meas > 400_000 {
				return // the check above is the whole contract; skip the long run
			}
			spec.Sample = &tc.plan
			r := NewRunner()
			res, err := r.Run(spec)
			if !tc.ok {
				// The run refuses before simulating anything.
				if err == nil || !strings.Contains(err.Error(), "sampling plan") {
					t.Fatalf("Run = %v, want a sampling plan error", err)
				}
				if st := r.Stats(); st.Runs != 0 {
					t.Errorf("rejected run booked %d runs", st.Runs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Intervals stay inside the window, up to the retire-width
			// overshoot each interval may add.
			c := res.Sampling.Counters
			if slack := uint64(tc.plan.Intervals * spec.Config.RetireWidth); c.MeasuredInstructions > tc.meas+slack {
				t.Errorf("measured %d instructions for a %d-instruction window", c.MeasuredInstructions, tc.meas)
			}
		})
	}
}

// TestSampledShardsShareShadowTable runs a 2-shard sampled sweep whose
// two specs (both decoders, head only) share one workload and
// therefore one shadow-decode table, which their interval cores fill
// concurrently. Every result must be DeepEqual to a serial run of the
// same spec on a runner of its own.
func TestSampledShardsShareShadowTable(t *testing.T) {
	both := sampleSpec("voter", true)
	both.Measure = 400_000
	headOnly := both
	headOnly.Config.Frontend.SBD.Tail = false
	headOnly.Label = "voter/head"
	var specs []RunSpec
	for _, s := range []RunSpec{both, headOnly} {
		s.Sample = &SamplePlan{Intervals: 4, Shards: 2}
		specs = append(specs, s)
	}

	r := NewRunner()
	r.Workers = 2
	shared, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		serial := s
		serial.Sample = &SamplePlan{Intervals: 4, Shards: 1}
		want, err := NewRunner().Run(serial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, shared[i]) {
			t.Errorf("%s: sharded run on a shared table differs from a serial run:\n  serial:  %+v\n  sharded: %+v",
				s.Label, want, shared[i])
		}
	}
}
