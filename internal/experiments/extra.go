package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1 renders the processor configuration (paper Table 1) as
// actually instantiated by this simulator.
func Table1() *Report {
	cfg := cpu.SkiaConfig()
	fe := cfg.Frontend
	tb := stats.NewTable("field", "value")
	add := func(k, v string) { tb.AddRow(k, v) }
	add("ISA", "VLX (synthetic x86-like, 1-15 byte instructions)")
	add("L1-I cache", fmt.Sprintf("%dKB (%d-way, 64B lines)", fe.L1ISize/1024, fe.L1IWays))
	add("Cond. predictor", fmt.Sprintf("TAGE-SC-L, %d tagged tables, %.1fKB",
		fe.TAGE.NumTables, float64(fe.TAGE.StorageBits())/8/1024))
	add("Indirect predictor", fmt.Sprintf("ITTAGE, %d tagged tables, %.1fKB",
		fe.ITTAGE.NumTables, float64(fe.ITTAGE.StorageBits())/8/1024))
	add("BTB", fmt.Sprintf("%d entries, %d-way, %.1fKB",
		fe.BTB.Entries, fe.BTB.Ways, float64(fe.BTB.StorageBits())/8/1024))
	add("U-SBB", fmt.Sprintf("%d entries, %d-way", fe.SBB.UEntries, fe.SBB.UWays))
	add("R-SBB", fmt.Sprintf("%d entries, %d-way", fe.SBB.REntries, fe.SBB.RWays))
	add("SBB total", fmt.Sprintf("%.2fKB (paper: 12.25KB)", float64(fe.SBB.StorageBits())/8/1024))
	add("FTQ", fmt.Sprintf("%d entries", fe.FTQDepth))
	add("Decode / Retire", fmt.Sprintf("%d / %d wide", fe.DecodeWidth, cfg.RetireWidth))
	add("ROB", fmt.Sprintf("%d entries", cfg.ROBSize))
	add("RAS", fmt.Sprintf("%d entries", fe.RASDepth))
	add("Decode re-steer", fmt.Sprintf("%d cycles", fe.DecodeResteerPenalty))
	add("Execute re-steer", fmt.Sprintf("%d cycles", fe.ExecResteerPenalty))
	add("L1-I miss latency", fmt.Sprintf("%d cycles", fe.L1IMissLatency))
	return &Report{ID: "table1", Title: "Processor configuration", Table: tb}
}

// Table2 renders the benchmark registry (paper Table 2) together with
// each model's structural parameters.
func Table2() (*Report, error) {
	tb := stats.NewTable("benchmark", "suite", "hot_funcs", "cold_funcs", "cold_mix", "layout").
		SetUnits(stats.UnitNone, stats.UnitNone, stats.UnitCount, stats.UnitCount,
			stats.UnitNone, stats.UnitNone)
	for _, name := range workload.SuiteNames() {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		mix := fmt.Sprintf("%.0f%% call", p.PColdViaCall*100)
		layout := "interleaved"
		if p.BoltLayout {
			layout = "bolt"
		}
		tb.AddCells(cStr(p.Name), cStr(p.Suite), cInt(p.HotFuncs),
			cInt(p.ColdFuncs), cStr(mix), cStr(layout))
	}
	return &Report{ID: "table2", Title: "Benchmark suite", Table: tb}, nil
}

// Bolt reproduces Section 6.1.4: Skia's gain on pre-BOLT verilator
// versus the bolted binary (paper: 10.27% vs the bolted ~5%-class
// gain), showing the technique is robust to software layout
// optimization.
func Bolt(o Options) (*Report, error) {
	variants := []string{"verilator", "verilator-bolted"}
	var specs []sim.RunSpec
	for _, b := range variants {
		specs = append(specs, baselineSpec(b, o), skiaSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "baseline_ipc", "skia_ipc", "speedup", "baseline_btb_mpki").
		SetUnits(stats.UnitNone, stats.UnitIPC, stats.UnitIPC, stats.UnitSpeedup, stats.UnitMPKI)
	rep := &Report{ID: "bolt", Title: "Skia on pre-BOLT vs bolted verilator", Table: tb}
	var gains []float64
	for i, b := range variants {
		base, skia := results[2*i], results[2*i+1]
		gain := stats.Speedup(skia.IPC, base.IPC)
		gains = append(gains, gain)
		tb.AddCells(cStr(b), cF3(base.IPC), cF3(skia.IPC), cPct(gain), cF2(base.BTBMissMPKI))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper: pre-BOLT gains (10.27%%) exceed bolted gains; measured %s vs %s",
		pct(gains[0]), pct(gains[1])))
	return o.stamp(rep, r, results, variants), nil
}

// AblationIndexPolicy sweeps the Head decoder's start-index policy
// (paper Section 3.2.2: First beats Zero and Merge).
func AblationIndexPolicy(o Options) (*Report, error) {
	benches := o.benchmarks()
	policies := []core.IndexPolicy{core.FirstIndex, core.ZeroIndex, core.MergeIndex}
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, pol := range policies {
		cfg := cpu.SkiaConfig()
		cfg.Frontend.SBD.Policy = pol
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: pol.String()})
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	baseIPC := make([]float64, n)
	for i := range benches {
		baseIPC[i] = results[i].IPC
	}
	tb := stats.NewTable("policy", "geomean_speedup", "bogus_inserts").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount)
	rep := &Report{ID: "ablation-index", Title: "Head decode index policy (First/Zero/Merge)", Table: tb}
	idx := n
	for _, pol := range policies {
		ipcs := make([]float64, n)
		var bogus uint64
		for i := 0; i < n; i++ {
			ipcs[i] = results[idx].IPC
			bogus += results[idx].FE.SBDBogusInserts
			idx++
		}
		tb.AddCells(cStr(pol.String()), cPct(stats.GeomeanSpeedup(ipcs, baseIPC)), cInt(bogus))
	}
	return o.stamp(rep, r, results, benches), nil
}

// AblationPathCap sweeps the Head decoder's valid-path cap (paper
// uses 6).
func AblationPathCap(o Options, caps []int) (*Report, error) {
	if len(caps) == 0 {
		caps = []int{1, 2, 4, 6, 8, 12}
	}
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, c := range caps {
		cfg := cpu.SkiaConfig()
		cfg.Frontend.SBD.MaxValidPaths = c
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: fmt.Sprintf("cap%d", c)})
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	baseIPC := make([]float64, n)
	for i := range benches {
		baseIPC[i] = results[i].IPC
	}
	tb := stats.NewTable("max_valid_paths", "geomean_speedup", "head_discard_frac", "bogus_inserts").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitFrac, stats.UnitCount)
	rep := &Report{ID: "ablation-pathcap", Title: "Head decode valid-path cap", Table: tb}
	idx := n
	for _, c := range caps {
		ipcs := make([]float64, n)
		var disc, regions, bogus uint64
		for i := 0; i < n; i++ {
			ipcs[i] = results[idx].IPC
			disc += results[idx].SBD.HeadDiscarded
			regions += results[idx].SBD.HeadRegions
			bogus += results[idx].FE.SBDBogusInserts
			idx++
		}
		frac := 0.0
		if regions > 0 {
			frac = float64(disc) / float64(regions)
		}
		tb.AddCells(cStr(fmt.Sprintf("%d", c)), cPct(stats.GeomeanSpeedup(ipcs, baseIPC)),
			cPct(frac), cInt(bogus))
	}
	return o.stamp(rep, r, results, benches), nil
}

// AblationReplacement compares the SBB's retired-first eviction
// (Section 4.3) with plain LRU, and the insert filter that skips
// BTB-resident branches.
func AblationReplacement(o Options) (*Report, error) {
	benches := o.benchmarks()
	variants := []struct {
		name                 string
		retiredFirst, filter bool
	}{
		{"retired-first (paper)", true, false},
		{"plain LRU", false, false},
		{"retired-first + filter", true, true},
	}
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, v := range variants {
		cfg := cpu.SkiaConfig()
		cfg.Frontend.SBB.RetiredFirstEviction = v.retiredFirst
		cfg.Frontend.SBB.FilterBTBResident = v.filter
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: v.name})
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	baseIPC := make([]float64, n)
	for i := range benches {
		baseIPC[i] = results[i].IPC
	}
	tb := stats.NewTable("variant", "geomean_speedup", "sbb_covered", "bogus_used").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount, stats.UnitCount)
	rep := &Report{ID: "ablation-replacement", Title: "SBB replacement and insert-filter ablations", Table: tb}
	idx := n
	for _, v := range variants {
		ipcs := make([]float64, n)
		var cov, bogus uint64
		for i := 0; i < n; i++ {
			cov += results[idx].FE.SBBCoveredTotal()
			bogus += results[idx].FE.BogusSBBUsed
			ipcs[i] = results[idx].IPC
			idx++
		}
		tb.AddCells(cStr(v.name), cPct(stats.GeomeanSpeedup(ipcs, baseIPC)),
			cInt(cov), cInt(bogus))
	}
	return o.stamp(rep, r, results, benches), nil
}

// AblationInsertIntoBTB compares the paper's parallel SBB against
// inserting shadow branches straight into the BTB (the design the
// paper rejects in Section 4.2).
func AblationInsertIntoBTB(o Options) (*Report, error) {
	benches := o.benchmarks()
	sbbCfg := cpu.SkiaConfig()
	directCfg := cpu.SkiaConfig()
	directCfg.Frontend.SBDToBTB = true

	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, sim.RunSpec{Benchmark: b, Config: sbbCfg,
			Warmup: o.Warmup, Measure: o.Measure, Label: "sbb"})
	}
	for _, b := range benches {
		specs = append(specs, sim.RunSpec{Benchmark: b, Config: directCfg,
			Warmup: o.Warmup, Measure: o.Measure, Label: "direct-to-btb"})
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	baseIPC := make([]float64, n)
	for i := range benches {
		baseIPC[i] = results[i].IPC
	}
	sbbIPC := make([]float64, n)
	dirIPC := make([]float64, n)
	var dirPhantoms uint64
	for i := 0; i < n; i++ {
		sbbIPC[i] = results[n+i].IPC
		dirIPC[i] = results[2*n+i].IPC
		dirPhantoms += results[2*n+i].FE.PhantomBranches
	}
	tb := stats.NewTable("design", "geomean_speedup", "phantom_branches").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount)
	rep := &Report{ID: "ablation-sbdtobtb", Title: "Parallel SBB vs inserting shadow branches into the BTB", Table: tb}
	var sbbPhantoms uint64
	for i := 0; i < n; i++ {
		sbbPhantoms += results[n+i].FE.PhantomBranches
	}
	tb.AddCells(cStr("parallel SBB (paper)"), cPct(stats.GeomeanSpeedup(sbbIPC, baseIPC)), cInt(sbbPhantoms))
	tb.AddCells(cStr("direct to BTB"), cPct(stats.GeomeanSpeedup(dirIPC, baseIPC)), cInt(dirPhantoms))
	return o.stamp(rep, r, results, benches), nil
}

// AblationWrongPath disables wrong-path prefetching during execute
// re-steer windows by zeroing the window (resolution becomes
// instantaneous), quantifying how much of the loss FDIP's wrong-path
// pollution causes.
func AblationWrongPath(o Options) (*Report, error) {
	benches := o.benchmarks()
	noWP := cpu.DefaultConfig()
	noWP.Frontend.ExecResteerPenalty = 1
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, sim.RunSpec{Benchmark: b, Config: noWP,
			Warmup: o.Warmup, Measure: o.Measure, Label: "no-wrong-path"})
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	tb := stats.NewTable("benchmark", "wrongpath_blocks_frac", "pollution_evicted", "ipc", "ipc_instant_resolve").
		SetUnits(stats.UnitNone, stats.UnitFrac, stats.UnitCount, stats.UnitIPC, stats.UnitIPC)
	rep := &Report{ID: "ablation-wrongpath", Title: "Wrong-path fetch volume and cost", Table: tb}
	for i, b := range benches {
		base := results[i]
		inst := results[n+i]
		tot := base.FE.Blocks + base.FE.WrongPathBlocks
		frac := 0.0
		if tot > 0 {
			frac = float64(base.FE.WrongPathBlocks) / float64(tot)
		}
		tb.AddCells(cStr(b), cPct(frac), cInt(base.L1I.PollutionEvicted),
			cF3(base.IPC), cF3(inst.IPC))
	}
	return o.stamp(rep, r, results, benches), nil
}

// ExtensionShadowConds evaluates the beyond-paper extension: letting
// the U-SBB also hold shadow direct conditionals (their targets are
// PC-relative, so the SBD can decode them; the paper leaves them out
// because they need a direction prediction at use time). Compares
// paper-Skia against extended Skia.
func ExtensionShadowConds(o Options) (*Report, error) {
	benches := o.benchmarks()
	ext := cpu.SkiaConfig()
	ext.Frontend.SBD.IncludeConditionals = true

	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, skiaSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, sim.RunSpec{Benchmark: b, Config: ext,
			Warmup: o.Warmup, Measure: o.Measure, Label: "skia+conds"})
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	baseIPC := make([]float64, n)
	skiaIPC := make([]float64, n)
	extIPC := make([]float64, n)
	var skiaCov, extCov, extPhantom uint64
	for i := 0; i < n; i++ {
		baseIPC[i] = results[i].IPC
		skiaIPC[i] = results[n+i].IPC
		extIPC[i] = results[2*n+i].IPC
		skiaCov += results[n+i].FE.SBBCoveredTotal()
		extCov += results[2*n+i].FE.SBBCoveredTotal()
		extPhantom += results[2*n+i].FE.PhantomBranches
	}
	tb := stats.NewTable("design", "geomean_speedup", "sbb_covered").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount)
	rep := &Report{ID: "ext-conds", Title: "Extension: shadow conditionals in the U-SBB", Table: tb}
	tb.AddCells(cStr("skia (paper: U+R only)"), cPct(stats.GeomeanSpeedup(skiaIPC, baseIPC)), cInt(skiaCov))
	tb.AddCells(cStr("skia + shadow conds"), cPct(stats.GeomeanSpeedup(extIPC, baseIPC)), cInt(extCov))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"extension phantoms: %d; conditionals compete for U-SBB capacity with the jumps and calls", extPhantom))
	return o.stamp(rep, r, results, benches), nil
}
