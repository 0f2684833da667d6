package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultBTBSizes is the BTB entry sweep used by Figures 1 and 3.
var DefaultBTBSizes = []int{1024, 2048, 4096, 8192, 16384}

// Fig1 reproduces Figure 1: average BTB-miss MPKI across the suite for
// each BTB size, and the portion of those misses whose cache line was
// already L1-I resident — the shadow-branch opportunity.
func Fig1(o Options, sizes []int) (*Report, error) {
	if len(sizes) == 0 {
		sizes = DefaultBTBSizes
	}
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, size := range sizes {
		for _, b := range benches {
			spec := baselineSpec(b, o)
			spec.Config.Frontend.BTB = sim.BTBWithEntries(size)
			spec.Label = fmt.Sprintf("%d", size)
			specs = append(specs, spec)
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("btb_entries", "miss_mpki", "miss_l1i_hit_mpki", "l1i_hit_frac").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig1", Title: "BTB miss MPKI and fraction resident in L1-I vs BTB size", Table: tb}
	i := 0
	var frac8k float64
	for _, size := range sizes {
		var mpki, hitMpki []float64
		for range benches {
			res := results[i]
			i++
			mpki = append(mpki, res.BTBMissMPKI)
			hitMpki = append(hitMpki, stats.MPKI(res.FE.BTBMissL1IHit, res.Instructions))
		}
		m, h := stats.Mean(mpki), stats.Mean(hitMpki)
		frac := 0.0
		if m > 0 {
			frac = h / m
		}
		if size == 8192 {
			frac8k = frac
		}
		tb.AddCells(cStr(fmt.Sprintf("%d", size)), cF2(m), cF2(h), cPct(frac))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper: ~75%% of 8K-BTB misses are L1-I resident; measured %s", pct(frac8k)))
	return o.stamp(rep, r, results, benches), nil
}

// Fig3Sizes is the BTB sweep for the Figure 3 headline plot.
var Fig3Sizes = []int{4096, 8192, 16384, 32768}

// Fig3 reproduces Figure 3: geomean speedup (normalized to the 4K-entry
// baseline BTB) of four designs across BTB sizes: plain BTB, BTB grown
// by the SBB's budget, BTB+SBB (Skia), and an infinite BTB.
func Fig3(o Options, sizes []int) (*Report, error) {
	if len(sizes) == 0 {
		sizes = Fig3Sizes
	}
	benches := o.benchmarks()
	sbbBits := core.DefaultSBBConfig().StorageBits()

	type cfgGen struct {
		name string
		mk   func(size int) cpu.Config
	}
	gens := []cfgGen{
		{"btb", func(size int) cpu.Config {
			c := cpu.DefaultConfig()
			c.Frontend.BTB = sim.BTBWithEntries(size)
			return c
		}},
		{"btb+state", func(size int) cpu.Config {
			c := cpu.DefaultConfig()
			c.Frontend.BTB = sim.AugmentedBTB(sim.BTBWithEntries(size), sbbBits)
			return c
		}},
		{"btb+sbb", func(size int) cpu.Config {
			c := cpu.SkiaConfig()
			c.Frontend.BTB = sim.BTBWithEntries(size)
			return c
		}},
		{"infinite", func(int) cpu.Config {
			c := cpu.DefaultConfig()
			c.Frontend.BTB.Infinite = true
			return c
		}},
	}

	var specs []sim.RunSpec
	for _, size := range sizes {
		for _, g := range gens {
			for _, b := range benches {
				specs = append(specs, sim.RunSpec{
					Benchmark: b, Config: g.mk(size),
					Warmup: o.Warmup, Measure: o.Measure,
					Label: fmt.Sprintf("%s/%d", g.name, size),
				})
			}
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}

	// Per-benchmark baseline IPCs at the smallest size, plain BTB.
	ipc := map[string][]float64{} // label -> per-benchmark IPCs
	i := 0
	for _, size := range sizes {
		for _, g := range gens {
			key := fmt.Sprintf("%s/%d", g.name, size)
			for range benches {
				ipc[key] = append(ipc[key], results[i].IPC)
				i++
			}
		}
	}
	baseKey := fmt.Sprintf("btb/%d", sizes[0])
	base := ipc[baseKey]

	tb := stats.NewTable("btb_entries", "btb", "btb+state", "btb+sbb", "infinite").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup)
	rep := &Report{ID: "fig3", Title: "Geomean speedup vs 4K-entry BTB across designs", Table: tb}
	speedup := func(key string) float64 { return stats.GeomeanSpeedup(ipc[key], base) }
	for _, size := range sizes {
		tb.AddCells(cStr(fmt.Sprintf("%d", size)),
			cPct(speedup(fmt.Sprintf("btb/%d", size))),
			cPct(speedup(fmt.Sprintf("btb+state/%d", size))),
			cPct(speedup(fmt.Sprintf("btb+sbb/%d", size))),
			cPct(speedup(fmt.Sprintf("infinite/%d", sizes[0]))))
	}
	// Shape check at 8K: sbb > state > plain.
	s8, st8, p8 := speedup("btb+sbb/8192"), speedup("btb+state/8192"), speedup("btb/8192")
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"shape at 8K: skia %s vs btb+state %s vs btb %s (paper: skia beats equal-state BTB until saturation)",
		pct(s8), pct(st8), pct(p8)))
	return o.stamp(rep, r, results, benches), nil
}

// Fig6 reproduces Figure 6: BTB misses by branch type per benchmark at
// the 8K-entry baseline.
func Fig6(o Options) (*Report, error) {
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "total_mpki", "cond%", "uncond%", "call%", "return%", "indirect%").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitFrac, stats.UnitFrac,
			stats.UnitFrac, stats.UnitFrac, stats.UnitFrac)
	rep := &Report{ID: "fig6", Title: "BTB misses by branch type (8K BTB)", Table: tb}
	for i, b := range benches {
		fe := results[i].FE
		tot := float64(fe.BTBMissTotal())
		pc := func(v uint64) stats.Cell {
			if tot == 0 {
				return cPct(0)
			}
			return cPct(float64(v) / tot)
		}
		tb.AddCells(cStr(b), cF2(results[i].BTBMissMPKI),
			pc(fe.BTBMissCond), pc(fe.BTBMissUncond), pc(fe.BTBMissCall),
			pc(fe.BTBMissReturn), pc(fe.BTBMissIndirect))
	}
	rep.Notes = append(rep.Notes,
		"paper: indirect misses are a vanishing fraction everywhere; direct types dominate")
	return o.stamp(rep, r, results, benches), nil
}

// Fig13 reproduces Figure 13: simulated L1-I MPKI against the
// real-system MPKI the paper measured with VTune (stored per profile).
func Fig13(o Options) (*Report, error) {
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "target_mpki", "simulated_mpki", "diff").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig13", Title: "L1-I MPKI: reference target vs simulation", Table: tb}
	var totT, totS float64
	for i, b := range benches {
		w, err := r.Workload(b)
		if err != nil {
			return nil, err
		}
		target := w.Profile.L1IMPKITarget
		got := results[i].L1IMPKI
		totT += target
		totS += got
		diff := 0.0
		if target > 0 {
			diff = (got - target) / target
		}
		tb.AddCells(cStr(b), cF2(target), cF2(got), cPct(diff))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"aggregate difference %s (paper reports <18%% between real system and gem5)",
		pct(math.Abs(totS-totT)/totT)))
	return o.stamp(rep, r, results, benches), nil
}

// Fig14 reproduces Figure 14: per-benchmark IPC gain over the 8K-BTB
// baseline for head-only, tail-only, and combined shadow decoding, with
// the geomean row the paper quotes (5.64% combined; 3.68% head; 4.39%
// tail).
func Fig14(o Options) (*Report, error) {
	benches := o.benchmarks()
	variants := []struct {
		name       string
		head, tail bool
		skia       bool
	}{
		{"baseline", false, false, false},
		{"head", true, false, true},
		{"tail", false, true, true},
		{"both", true, true, true},
	}
	var specs []sim.RunSpec
	for _, v := range variants {
		for _, b := range benches {
			var cfg cpu.Config
			if v.skia {
				cfg = cpu.SkiaConfig()
				cfg.Frontend.SBD.Head = v.head
				cfg.Frontend.SBD.Tail = v.tail
			} else {
				cfg = cpu.DefaultConfig()
			}
			specs = append(specs, sim.RunSpec{
				Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: v.name,
			})
		}
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	ipcs := map[string][]float64{}
	i := 0
	for _, v := range variants {
		for range benches {
			ipcs[v.name] = append(ipcs[v.name], results[i].IPC)
			i++
		}
	}
	tb := stats.NewTable("benchmark", "head", "tail", "both").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup)
	rep := &Report{ID: "fig14", Title: "IPC gain over 8K-BTB baseline by shadow-decode variant", Table: tb}
	for bi, b := range benches {
		base := ipcs["baseline"][bi]
		tb.AddCells(cStr(b),
			cPct(stats.Speedup(ipcs["head"][bi], base)),
			cPct(stats.Speedup(ipcs["tail"][bi], base)),
			cPct(stats.Speedup(ipcs["both"][bi], base)))
	}
	gh := stats.GeomeanSpeedup(ipcs["head"], ipcs["baseline"])
	gt := stats.GeomeanSpeedup(ipcs["tail"], ipcs["baseline"])
	gb := stats.GeomeanSpeedup(ipcs["both"], ipcs["baseline"])
	tb.AddCells(cStr("GEOMEAN"), cPct(gh), cPct(gt), cPct(gb))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper geomeans: head +3.68%%, tail +4.39%%, both +5.64%%; measured head %s, tail %s, both %s",
		pct(gh), pct(gt), pct(gb)))
	return o.stamp(rep, r, results, benches), nil
}

// Fig15 reproduces Figure 15: per-benchmark BTB-miss MPKI split by
// whether the missing branch's line was L1-I resident.
func Fig15(o Options) (*Report, error) {
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "miss_l1i_hit_mpki", "miss_l1i_miss_mpki", "hit_frac").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig15", Title: "BTB misses with L1-I hit vs miss (8K BTB)", Table: tb}
	for i, b := range benches {
		res := results[i]
		hit := stats.MPKI(res.FE.BTBMissL1IHit, res.Instructions)
		miss := res.BTBMissMPKI - hit
		tb.AddCells(cStr(b), cF2(hit), cF2(miss), cPct(res.BTBMissL1IHitFrac))
	}
	return o.stamp(rep, r, results, benches), nil
}

// Fig16 reproduces Figure 16: BTB miss MPKI for the baseline, for a BTB
// grown by the SBB budget, and for Skia (misses still unserved after
// the SBB).
func Fig16(o Options) (*Report, error) {
	benches := o.benchmarks()
	sbbBits := core.DefaultSBBConfig().StorageBits()
	augmented := cpu.DefaultConfig()
	augmented.Frontend.BTB = sim.AugmentedBTB(augmented.Frontend.BTB, sbbBits)

	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, sim.RunSpec{Benchmark: b, Config: augmented,
			Warmup: o.Warmup, Measure: o.Measure, Label: "btb+state"})
	}
	for _, b := range benches {
		specs = append(specs, skiaSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	tb := stats.NewTable("benchmark", "baseline_mpki", "btb+state_mpki", "skia_effective_mpki").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitMPKI)
	rep := &Report{ID: "fig16", Title: "BTB miss MPKI: baseline vs equal-state BTB vs Skia", Table: tb}
	var redState, redSkia []float64
	for i, b := range benches {
		base := results[i].BTBMissMPKI
		state := results[i+n].BTBMissMPKI
		skia := results[i+2*n].EffectiveMissMPKI
		tb.AddCells(cStr(b), cF2(base), cF2(state), cF2(skia))
		if base > 0 {
			redState = append(redState, (base-state)/base)
			redSkia = append(redSkia, (base-skia)/base)
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean reduction: btb+state %s, skia %s (paper: Skia reduces far more than equal-state BTB)",
		pct(stats.Mean(redState)), pct(stats.Mean(redSkia))))
	return o.stamp(rep, r, results, benches), nil
}

// Fig17Splits are the U-SBB budget fractions swept by the Figure 17
// top chart.
var Fig17Splits = []float64{0, 0.25, 0.5, 0.62, 0.75, 1.0}

// Fig17Scales are the total-budget multipliers swept by the Figure 17
// bottom chart.
var Fig17Scales = []float64{0.25, 0.5, 1, 2, 4}

// Fig17 reproduces Figure 17: top, performance across U/R budget splits
// at the constant 12.25KB-class budget; bottom, scaling the total
// budget at the paper's 768:2024 entry ratio.
func Fig17(o Options) (*Report, error) {
	benches := o.benchmarks()
	def := core.DefaultSBBConfig()
	budget := def.StorageBits()
	const uBits, rBits = 82, 19

	mkSplit := func(frac float64) core.SBBConfig {
		cfg := def
		cfg.UEntries = int(frac*float64(budget)/uBits) / cfg.UWays * cfg.UWays
		cfg.REntries = int((1-frac)*float64(budget)/rBits) / cfg.RWays * cfg.RWays
		return cfg
	}
	mkScale := func(scale float64) core.SBBConfig {
		cfg := def
		cfg.UEntries = int(scale*float64(def.UEntries)) / cfg.UWays * cfg.UWays
		cfg.REntries = int(scale*float64(def.REntries)) / cfg.RWays * cfg.RWays
		return cfg
	}

	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, frac := range Fig17Splits {
		cfg := cpu.SkiaConfig()
		cfg.Frontend.SBB = mkSplit(frac)
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: fmt.Sprintf("split %.2f", frac)})
		}
	}
	for _, scale := range Fig17Scales {
		cfg := cpu.SkiaConfig()
		cfg.Frontend.SBB = mkScale(scale)
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: fmt.Sprintf("scale %.2f", scale)})
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
	idx := n
	take := func() []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = results[idx].IPC
			idx++
		}
		return out
	}

	tb := stats.NewTable("sweep", "config", "u_entries", "r_entries", "size_kb", "geomean_speedup").
		SetUnits(stats.UnitNone, stats.UnitNone, stats.UnitCount, stats.UnitCount,
			stats.UnitKB, stats.UnitSpeedup)
	rep := &Report{ID: "fig17", Title: "SBB sensitivity: U/R split at fixed budget; total-size scaling", Table: tb}
	var bestSplit float64
	var bestSplitGain = math.Inf(-1)
	for _, frac := range Fig17Splits {
		cfg := mkSplit(frac)
		g := stats.GeomeanSpeedup(take(), baseIPC)
		if g > bestSplitGain {
			bestSplitGain, bestSplit = g, frac
		}
		tb.AddCells(cStr("split"), cStr(fmt.Sprintf("U=%.0f%%", frac*100)),
			cInt(cfg.UEntries), cInt(cfg.REntries),
			cF2(float64(cfg.StorageBits())/8/1024), cPct(g))
	}
	for _, scale := range Fig17Scales {
		cfg := mkScale(scale)
		g := stats.GeomeanSpeedup(take(), baseIPC)
		tb.AddCells(cStr("scale"), cStr(fmt.Sprintf("%.2fx", scale)),
			cInt(cfg.UEntries), cInt(cfg.REntries),
			cF2(float64(cfg.StorageBits())/8/1024), cPct(g))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"best split keeps both buffers populated (paper picks 768U/2024R); measured best U fraction %.0f%%",
		bestSplit*100))
	return o.stamp(rep, r, results, benches), nil
}

// Fig18 reproduces Figure 18: per-benchmark reduction in decoder idle
// cycles with Skia versus the baseline.
func Fig18(o Options) (*Report, error) {
	benches := o.benchmarks()
	var specs []sim.RunSpec
	for _, b := range benches {
		specs = append(specs, baselineSpec(b, o))
	}
	for _, b := range benches {
		specs = append(specs, skiaSpec(b, o))
	}
	r, results, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	tb := stats.NewTable("benchmark", "baseline_idle_frac", "skia_idle_frac", "idle_reduction").
		SetUnits(stats.UnitNone, stats.UnitFrac, stats.UnitFrac, stats.UnitSpeedup)
	rep := &Report{ID: "fig18", Title: "Decoder idle-cycle reduction with Skia (8K BTB)", Table: tb}
	var reds []float64
	for i, b := range benches {
		base := results[i]
		skia := results[i+n]
		// Compare idle cycles normalized per retired instruction so
		// the total-cycle change does not distort the comparison.
		bi := float64(base.FE.DecodeIdleCycles) / float64(base.Instructions)
		si := float64(skia.FE.DecodeIdleCycles) / float64(skia.Instructions)
		red := 0.0
		if bi > 0 {
			red = (bi - si) / bi
		}
		reds = append(reds, red)
		tb.AddCells(cStr(b), cF3(base.DecodeIdleFrac), cF3(skia.DecodeIdleFrac), cPct(red))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean idle reduction %s; paper: voter and sibench show the largest reductions",
		pct(stats.Mean(reds))))
	return o.stamp(rep, r, results, benches), nil
}
