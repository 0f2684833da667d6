package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"syscall"

	"repro/internal/sim"
)

// layerNames are the repository modules the profile is summed over.
var layerNames = []string{"workload", "isa", "emu", "tage", "ittage", "btb", "cache", "core", "frontend", "cpu", "sim"}

// runTraced measures def's layers and reports the per-layer metrics:
//
//   - an untraced cold sweep, then the same sweep with spans around its
//     layer calls and a CPU profile; their sim_mips give the tracing
//     overhead, and the traced sweep's results the simulated work counts;
//   - a cold sweep over a fresh checkpoint cache (the traced sweep itself
//     when def is sampled) and a warm re-run over the same cache, whose
//     difference is the checkpoint fill;
//   - sharded against serial sampling of one spec, which must agree;
//   - cpu probes and layer replays on the replay programs.
func runTraced(rep *report, def *workloadDef, sz sizes, seed int64, outDir string, log io.Writer) error {
	specs := def.specs(sz, warmupOffset(seed))
	nBench := len(sz.suite())
	freshCache := func() *sim.CheckpointCache {
		if def.sampled {
			return sim.NewCheckpointCache()
		}
		return nil
	}

	untraced, err := runSweep(specs, workers(), freshCache(), nil)
	if err != nil {
		return err
	}
	bookSweep(rep, def, untraced, nBench, nil)
	untraced.results = nil

	rec := newSpanRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cache := freshCache()
	traced, err := runSweep(specs, workers(), cache, rec)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	bookSweep(rep, def, traced, nBench, []*sweep{untraced})
	sweeps := []*sweep{untraced, traced}

	cold := traced
	if !def.sampled {
		cache = sim.NewCheckpointCache()
		if cold, err = runSweep(specs, workers(), cache, rec); err != nil {
			return err
		}
		bookSweep(rep, def, cold, nBench, sweeps)
		sweeps = append(sweeps, cold)
	}
	warm, err := runSweep(specs, workers(), cache, rec)
	if err != nil {
		return err
	}
	bookSweep(rep, def, warm, nBench, sweeps)
	sweeps = append(sweeps, warm)

	end := rec.begin("sharded-vs-serial")
	rep.check(shardsAgree(specs, sz), "%s: sharded and serial sampling of %s differ", def.name, specs[len(specs)-1].Benchmark)
	end()

	ws, err := replayWorkloads(seed, rec)
	if err != nil {
		return err
	}
	probe, err := probeCores(ws, sz, rec)
	if err != nil {
		return err
	}
	var ts []traffic
	for _, w := range ws {
		end := rec.begin("emu.Emulator.Step record")
		t, err := record(w, sz.replaySteps)
		end()
		if err != nil {
			return err
		}
		ts = append(ts, t)
	}
	timings := replays(ts, sz.reps, rec)

	var gen, newCore []float64
	for _, sw := range sweeps {
		gen = append(gen, sw.gen)
		newCore = append(newCore, sw.newCore)
	}
	rep.set("workload.generate_ms", median(gen)*1e3, "ms")
	rep.set("cpu.new_ms", median(newCore)*1e3, "ms")
	rep.set("cpu.run.base_ns_per_inst", probe.baseNS, "ns")
	rep.set("cpu.run.skia_ns_per_inst", probe.skiaNS, "ns")
	rep.set("cpu.run.skia_base_ratio", probe.skiaNS/probe.baseNS, "ratio")
	rep.set("cpu.run.allocs_per_kinst", probe.allocsPerK, "count")
	rep.set("cpu.run.bytes_per_kinst", probe.bytesPerK, "B")
	rep.set("cpu.clone_us", probe.cloneUS, "us")
	rep.set("cpu.ffwd_warm_ns_per_inst", probe.ffwdNS, "ns")
	for _, name := range replayNames {
		t := timings[name]
		rep.set(name+"_ns", t.nsPerOp, "ns")
		rep.set(name+"_ops", float64(t.ops), "count")
	}
	workCounts(rep, traced.results)
	samplingMetrics(rep, traced, workers())
	rep.set("sim.checkpoint_fill_s", cold.wall-warm.wall, "s")

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := profileShares(samples)
	for _, l := range layerNames {
		rep.set("self."+l+"_frac", shares[l], "frac")
	}
	rep.set("self.runtime.copy_frac", shares["runtime.copy"], "frac")
	rep.set("self.runtime.gc_frac", shares["runtime.gc"], "frac")

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.set("rss_peak_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
	rep.set("trace.overhead_frac", 1-traced.mips()/untraced.mips(), "frac")
	fmt.Fprintf(log, "traced sweep %.4f MIPS, untraced %.4f MIPS; %d profile samples\n",
		traced.mips(), untraced.mips(), len(samples))

	spans := rec.spans
	fillSelfTimes(spans)
	self := selfByName(spans)
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(log, "span self %-34s %10.4f s\n", name, self[name])
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", def.name, seed))
	if err := writeSpans(path, fmt.Sprintf("%s-seed%d", def.name, seed), spans); err != nil {
		return err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(log, "result_digest %s seed=%d %s\n", def.name, seed, traced.digest)
	return nil
}

// replayNames are the layer replays, in report order.
var replayNames = []string{
	"isa.trydecode", "isa.lengthat", "emu.step",
	"tage.predict_update", "ittage.predict_update",
	"btb.lookup", "btb.insert", "cache.demand",
	"core.sbd.head", "core.sbd.tail", "core.sbb.insert", "core.sbb.lookup",
}

// workCounts reports the simulated work of a sweep per kilo-instruction
// and as fractions, from the counters each layer's Stats() accessor
// fills. A change meant only to speed up the simulator leaves all of
// them identical.
func workCounts(rep *report, res []sim.Result) {
	var insts, cycles, idle, misses, covered, headRegions, headDiscarded, tailRegions, l1iFills, tageMiss uint64
	for _, r := range res {
		insts += r.Instructions
		cycles += r.Cycles
		idle += r.FE.DecodeIdleCycles
		misses += r.FE.BTBMissTotal()
		covered += r.FE.SBBCoveredTotal()
		headRegions += r.SBD.HeadRegions
		headDiscarded += r.SBD.HeadDiscarded
		tailRegions += r.SBD.TailRegions
		l1iFills += r.L1I.PrefetchFills
		tageMiss += r.TAGE.Mispredicts
	}
	pki := func(n uint64) float64 { return ratio(n*1000, insts) }
	rep.set("frontend.btb_miss_pki", pki(misses), "pki")
	rep.set("frontend.sbb_cover_frac", ratio(covered, misses), "frac")
	rep.set("frontend.decode_idle_frac", ratio(idle, cycles), "frac")
	rep.set("core.sbd.head_regions_pki", pki(headRegions), "pki")
	rep.set("core.sbd.tail_regions_pki", pki(tailRegions), "pki")
	rep.set("core.sbd.head_discard_frac", ratio(headDiscarded, headRegions), "frac")
	rep.set("cache.l1i_mpki", pki(l1iFills), "pki")
	rep.set("tage.mispredict_pki", pki(tageMiss), "pki")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// samplingMetrics reports how a sweep's measured windows were covered
// (an exact sweep simulates all of them in detail), the mean relative
// IPC confidence half-width, and how busy the sweep kept its workers.
func samplingMetrics(rep *report, sw *sweep, workers int) {
	var detail, skipped, advanced uint64
	var ci float64
	for _, r := range sw.results {
		s := r.Sampling
		if s == nil {
			detail += r.Instructions
			advanced += r.Instructions
			continue
		}
		c := s.Counters
		detail += c.MicroWarmupInstructions + c.MeasuredInstructions
		skipped += c.SkippedInstructions
		advanced += c.AdvancedInstructions
		for _, m := range s.Metrics {
			if m.Name == "ipc" && m.Mean > 0 {
				ci += m.CI / m.Mean * 100
			}
		}
	}
	rep.set("sim.detail_frac", ratio(detail, advanced), "frac")
	rep.set("sim.skipped_frac", ratio(skipped, advanced), "frac")
	rep.set("sim.ipc_ci_pct", ci/float64(max(len(sw.results), 1)), "pct")
	var busy float64
	for _, s := range sw.specSecs {
		busy += s
	}
	rep.set("sim.worker_busy_frac", busy/(sw.wall*float64(workers)), "frac")
}

// shardsAgree samples the last spec of specs (a Skia configuration)
// twice on fresh runners, with two shards and with one, and reports
// whether the results are deeply equal.
func shardsAgree(specs []sim.RunSpec, sz sizes) bool {
	spec := specs[len(specs)-1]
	spec.Warmup, spec.Measure = sz.sampWarm, sz.sampMeas
	var out [2]sim.Result
	for i, shards := range []int{2, 1} {
		plan := sz.plan
		plan.Shards = shards
		spec.Sample = &plan
		r := sim.NewRunner()
		r.Workers = 1
		res, err := r.Run(spec)
		if err != nil {
			return false
		}
		out[i] = res
	}
	return reflect.DeepEqual(out[0], out[1])
}
