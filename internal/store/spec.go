package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec is the normalized, simulation-affecting identity of a run: the
// experiment plus every option that changes the result table, with
// defaults resolved so "default windows" and "windows spelled out
// explicitly" hash identically. Knobs that cannot change the result
// (worker count, timeouts) are deliberately absent.
//
// Field order is the canonical JSON order; the hash is SHA-256 over
// encoding/json's marshal of this struct, which is deterministic
// because struct fields marshal in declaration order.
type Spec struct {
	// Experiment is the catalog ID ("fig14", "table1", …).
	Experiment string `json:"experiment"`
	// WarmupInstructions and MeasureInstructions are the effective
	// per-run windows, defaults resolved (never zero).
	WarmupInstructions  uint64 `json:"warmup_instructions"`
	MeasureInstructions uint64 `json:"measure_instructions"`
	// Benchmarks lists the workloads simulated with their registry
	// seeds, in run order (the suite default resolved).
	Benchmarks []experiments.BenchmarkRef `json:"benchmarks,omitempty"`
	// IntervalInstructions is the interval-metrics window (0 = off).
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// Attrib records whether BTB-miss attribution was collected.
	Attrib bool `json:"attrib,omitempty"`
	// SampleIntervals, SampleIntervalInstructions, and
	// SampleMicroWarmupInstructions are the normalized sampled-simulation
	// plan, all zero for exact runs. These change the simulated numbers, so they key the archive. Knobs
	// that provably do not change results — shard count, warmup
	// checkpointing, worker count — are deliberately absent: a sharded
	// and a serial run of the same plan share one trajectory.
	SampleIntervals               int    `json:"sample_intervals,omitempty"`
	SampleIntervalInstructions    uint64 `json:"sample_interval_instructions,omitempty"`
	SampleMicroWarmupInstructions uint64 `json:"sample_micro_warmup_instructions,omitempty"`
	// SampleEcho records whether an exact run published reference
	// sampling rows; like Attrib it changes the report's content (the
	// `sampling` section), so the two must not share a trajectory.
	SampleEcho bool `json:"sample_echo,omitempty"`
}

// NewSpec normalizes harness options into a Spec, resolving the
// default instruction windows and the default benchmark suite (with
// registry seeds) so equivalent option spellings produce one hash.
func NewSpec(experiment string, o experiments.Options) Spec {
	s := Spec{
		Experiment:           experiment,
		WarmupInstructions:   o.Warmup,
		MeasureInstructions:  o.Measure,
		IntervalInstructions: o.Interval,
		Attrib:               o.Attrib,
	}
	if s.WarmupInstructions == 0 {
		s.WarmupInstructions = sim.DefaultWarmup
	}
	if s.MeasureInstructions == 0 {
		s.MeasureInstructions = sim.DefaultMeasure
	}
	if o.Sample != nil {
		p := o.Sample.Normalized(s.MeasureInstructions)
		s.SampleIntervals = p.Intervals
		s.SampleIntervalInstructions = p.IntervalInsts
		s.SampleMicroWarmupInstructions = p.MicroWarmup
	} else {
		s.SampleEcho = o.SampleEcho
	}
	names := o.Benchmarks
	if len(names) == 0 {
		names = workload.SuiteNames()
	}
	for _, n := range names {
		ref := experiments.BenchmarkRef{Name: n}
		if p, err := workload.ByName(n); err == nil {
			ref.Seed = p.Seed
		}
		s.Benchmarks = append(s.Benchmarks, ref)
	}
	return s
}

// SpecOfReport recovers the spec from a report envelope's metadata.
// Schema v5 envelopes carry everything (the interval window and the
// sample plan included); older envelopes normalize with those features
// off. The
// recovered spec hashes identically to the NewSpec the producer would
// have built, so `skiaboard put` imports join the same trajectory as
// `skiaexp -archive` runs.
func SpecOfReport(rep *experiments.Report) Spec {
	s := Spec{
		Experiment:           rep.ID,
		WarmupInstructions:   rep.Meta.WarmupInstructions,
		MeasureInstructions:  rep.Meta.MeasureInstructions,
		Benchmarks:           rep.Meta.Benchmarks,
		IntervalInstructions: rep.Meta.IntervalInstructions,
		Attrib:               len(rep.Attribution) > 0,

		SampleIntervals:               rep.Meta.SampleIntervals,
		SampleIntervalInstructions:    rep.Meta.SampleIntervalInstructions,
		SampleMicroWarmupInstructions: rep.Meta.SampleMicroWarmupInstructions,
	}
	for _, row := range rep.Sampling {
		if row.Summary.Exact {
			s.SampleEcho = true
			break
		}
	}
	if s.WarmupInstructions == 0 {
		s.WarmupInstructions = sim.DefaultWarmup
	}
	if s.MeasureInstructions == 0 {
		s.MeasureInstructions = sim.DefaultMeasure
	}
	if len(s.Benchmarks) == 0 {
		// Static-table reports don't stamp benchmarks; normalize to the
		// default suite so they hash like the NewSpec a live producer
		// builds.
		for _, n := range workload.SuiteNames() {
			ref := experiments.BenchmarkRef{Name: n}
			if p, err := workload.ByName(n); err == nil {
				ref.Seed = p.Seed
			}
			s.Benchmarks = append(s.Benchmarks, ref)
		}
	}
	return s
}

// Hash is the spec's canonical-JSON SHA-256, hex-encoded: the key the
// archive and skiaboard's trajectory grouping share.
func (s Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data (strings, integers, bool); Marshal cannot
		// fail on it.
		panic("store: spec marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
