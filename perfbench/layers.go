package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/ittage"
	"repro/internal/program"
	"repro/internal/tage"
	"repro/internal/workload"
)

// replayPrograms are the programs the layer probes and replays run:
// voter has a mid-size code footprint, dotty the largest.
var replayPrograms = []string{"voter", "dotty"}

// traffic is one program's recorded emulator stream.
type traffic struct {
	w     *workload.Workload
	steps []emu.Step
}

// replayWorkloads generates the replay programs with seed-derived
// generator seeds.
func replayWorkloads(seed int64, rec *spanRecorder) ([]*workload.Workload, error) {
	var out []*workload.Workload
	for _, name := range replayPrograms {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		prof.Seed = profileSeed(prof.Seed, seed)
		end := rec.begin("workload.Generate")
		w, err := workload.Generate(prof)
		end()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// record steps a fresh emulator n times.
func record(w *workload.Workload, n int) (traffic, error) {
	e := emu.New(w)
	t := traffic{w: w, steps: make([]emu.Step, 0, n)}
	for i := 0; i < n; i++ {
		st, err := e.Step()
		if err != nil {
			return t, fmt.Errorf("record %s: %w", w.Profile.Name, err)
		}
		t.steps = append(t.steps, st)
	}
	return t, nil
}

// timing is one replay's result: the median nanoseconds per operation
// over the repetitions, and the operations in one repetition.
type timing struct {
	nsPerOp float64
	ops     int
}

// timeReps runs pass reps times, each time over fresh state, and
// returns the median ns/op. pass returns the operations it made and
// the time they took.
func timeReps(reps int, pass func() (int, time.Duration)) timing {
	var ns []float64
	ops := 0
	for i := 0; i < reps; i++ {
		n, d := pass()
		ops = n
		if n > 0 {
			ns = append(ns, float64(d.Nanoseconds())/float64(n))
		}
	}
	return timing{median(ns), ops}
}

// stopwatch times one call.
func stopwatch(f func()) time.Duration {
	//skia:nondet-ok host timing of a layer call, reported by the benchmark
	t := time.Now()
	f()
	//skia:nondet-ok host timing of a layer call, reported by the benchmark
	return time.Since(t)
}

// minPredictorOps is the fewest predictions a predictor replay times.
const minPredictorOps = 50_000

// replayTimed times pass over steps, repeated until at least
// minPredictorOps steps have been replayed.
func replayTimed(steps []emu.Step, pass func([]emu.Step)) (int, time.Duration) {
	if len(steps) == 0 {
		return 0, 0
	}
	n := (minPredictorOps + len(steps) - 1) / len(steps)
	d := stopwatch(func() {
		for i := 0; i < n; i++ {
			pass(steps)
		}
	})
	return n * len(steps), d
}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink int

func isTaken(st emu.Step) bool { return st.Taken && st.Inst.Class.IsBranch() }

// replays drives each layer's public API with the recorded traffic of
// every program and returns the timings by metric prefix.
func replays(ts []traffic, reps int, rec *spanRecorder) map[string]timing {
	out := map[string]timing{}
	add := func(name string, pass func(t traffic) (int, time.Duration)) {
		end := rec.begin("replay " + name)
		defer end()
		out[name] = timeReps(reps, func() (int, time.Duration) {
			var n int
			var d time.Duration
			for _, t := range ts {
				tn, td := pass(t)
				n += tn
				d += td
			}
			return n, d
		})
	}

	add("isa.trydecode", func(t traffic) (int, time.Duration) {
		code := make([][]byte, len(t.steps))
		for i, st := range t.steps {
			code[i] = t.w.Prog.BytesAt(st.Inst.PC, isa.MaxInstLen)
		}
		d := stopwatch(func() {
			for i, st := range t.steps {
				if _, valid := isa.TryDecode(code[i], st.Inst.PC); valid {
					sink++
				}
			}
		})
		return len(code), d
	})
	add("isa.lengthat", func(t traffic) (int, time.Duration) {
		lines := make([][]byte, len(t.steps))
		for i, st := range t.steps {
			lines[i] = t.w.Prog.Line(st.Inst.PC)
		}
		d := stopwatch(func() {
			for i, st := range t.steps {
				sink += isa.LengthAt(lines[i], program.LineOffset(st.Inst.PC))
			}
		})
		return len(lines), d
	})
	add("emu.step", func(t traffic) (int, time.Duration) {
		e := emu.New(t.w)
		var err error
		d := stopwatch(func() {
			for range t.steps {
				if _, err = e.Step(); err != nil {
					return
				}
			}
		})
		return len(t.steps), d
	})
	// The predictors are timed in steady state: one untimed pass over a
	// program's branch stream trains them, then the stream is replayed
	// until at least minPredictorOps predictions have been timed.
	add("tage.predict_update", func(t traffic) (int, time.Duration) {
		var conds []emu.Step
		for _, st := range t.steps {
			if st.Inst.Class == isa.ClassDirectCond {
				conds = append(conds, st)
			}
		}
		p := tage.New(tage.DefaultConfig())
		pass := func(steps []emu.Step) {
			for _, st := range steps {
				pc := st.Inst.PC
				pred := p.Predict(pc)
				p.SpecPush(pred.Taken, pc)
				p.Update(pc, pred, st.Taken)
				p.ArchPush(st.Taken, pc)
				if pred.Taken != st.Taken {
					p.SyncSpec()
				}
			}
		}
		pass(conds)
		return replayTimed(conds, pass)
	})
	add("ittage.predict_update", func(t traffic) (int, time.Duration) {
		var inds []emu.Step
		for _, st := range t.steps {
			if c := st.Inst.Class; c == isa.ClassIndirect || c == isa.ClassIndirectCall {
				inds = append(inds, st)
			}
		}
		p := ittage.New(ittage.DefaultConfig())
		pass := func(steps []emu.Step) {
			for _, st := range steps {
				pc := st.Inst.PC
				pred := p.Predict(pc)
				p.Update(pc, pred, st.NextPC)
				p.ArchPush(pc, st.NextPC)
				p.SyncSpec()
			}
		}
		pass(inds)
		return replayTimed(inds, pass)
	})
	// The BTB insert pass fills a fresh BTB with every taken branch; the
	// lookup pass then probes the filled BTB with the same stream.
	filled := map[*workload.Workload]*btb.BTB{}
	add("btb.insert", func(t traffic) (int, time.Duration) {
		b := btb.MustNew(btb.DefaultConfig())
		filled[t.w] = b
		n := 0
		d := stopwatch(func() {
			for _, st := range t.steps {
				if isTaken(st) {
					b.Insert(st.Inst.PC, btb.Entry{Target: st.NextPC, FallThrough: st.Inst.NextPC(), Class: st.Inst.Class})
					n++
				}
			}
		})
		return n, d
	})
	add("btb.lookup", func(t traffic) (int, time.Duration) {
		b := filled[t.w]
		n := 0
		d := stopwatch(func() {
			for _, st := range t.steps {
				if isTaken(st) {
					b.Lookup(st.Inst.PC)
					n++
				}
			}
		})
		return n, d
	})
	add("cache.demand", func(t traffic) (int, time.Duration) {
		fe := frontend.DefaultConfig()
		c := cache.MustNew(fe.L1ISize, fe.L1IWays, program.LineSize)
		n := 0
		d := stopwatch(func() {
			last := ^uint64(0)
			for _, st := range t.steps {
				if line := program.LineAddr(st.Inst.PC); line != last {
					c.Demand(line)
					last = line
					n++
				}
			}
		})
		return n, d
	})
	// Head regions are the bytes before each taken branch's target in
	// its line; tail regions the bytes after each taken branch. Their
	// shadow branches feed the SBB replays.
	shadow := map[*workload.Workload][2][]core.ShadowBranch{}
	add("core.sbd.head", func(t traffic) (int, time.Duration) {
		sbd := core.NewSBD(core.DefaultSBDConfig())
		var dst []core.ShadowBranch
		n := 0
		d := stopwatch(func() {
			for _, st := range t.steps {
				if off := program.LineOffset(st.NextPC); isTaken(st) && off > 0 {
					dst = sbd.DecodeHead(t.w.Prog.Line(st.NextPC), program.LineAddr(st.NextPC), off, dst)
					n++
				}
			}
		})
		s := shadow[t.w]
		s[0] = dst
		shadow[t.w] = s
		return n, d
	})
	add("core.sbd.tail", func(t traffic) (int, time.Duration) {
		sbd := core.NewSBD(core.DefaultSBDConfig())
		var dst []core.ShadowBranch
		n := 0
		d := stopwatch(func() {
			for _, st := range t.steps {
				end := st.Inst.NextPC()
				if isTaken(st) && program.LineAddr(end) == program.LineAddr(st.Inst.PC) {
					dst = sbd.DecodeTail(t.w.Prog.Line(st.Inst.PC), program.LineAddr(end), program.LineOffset(end), dst)
					n++
				}
			}
		})
		s := shadow[t.w]
		s[1] = dst
		shadow[t.w] = s
		return n, d
	})
	sbbs := map[*workload.Workload]*core.SBB{}
	add("core.sbb.insert", func(t traffic) (int, time.Duration) {
		sbb := core.MustNewSBB(core.DefaultSBBConfig())
		sbbs[t.w] = sbb
		n := 0
		d := stopwatch(func() {
			for _, region := range shadow[t.w] {
				for _, sb := range region {
					sbb.Insert(sb, false)
					n++
				}
			}
		})
		return n, d
	})
	add("core.sbb.lookup", func(t traffic) (int, time.Duration) {
		sbb := sbbs[t.w]
		n := 0
		d := stopwatch(func() {
			for _, st := range t.steps {
				if c := st.Inst.Class; isTaken(st) && (c == isa.ClassDirectUncond || c == isa.ClassCall) {
					sbb.LookupU(st.Inst.PC)
					n++
				}
			}
		})
		return n, d
	})
	return out
}

// coreProbe is the cpu layer measured on the replay programs.
type coreProbe struct {
	baseNS, skiaNS, allocsPerK, bytesPerK, cloneUS, ffwdNS float64
}

// probeCores times Core.Run under the baseline and Skia configurations,
// Core.Clone and Core.FastForwardWarm on each program.
// Each timing is the median over reps; Run allocations come from
// runtime.MemStats deltas around the timed Run calls.
func probeCores(ws []*workload.Workload, sz sizes, rec *spanRecorder) (coreProbe, error) {
	var p coreProbe
	var baseNS, skiaNS, cloneUS, ffwdNS []float64
	var allocs, bytes, insts uint64
	for rep := 0; rep < sz.reps; rep++ {
		var baseD, skiaD, ffwdD time.Duration
		var baseN, skiaN, ffwdN uint64
		for _, w := range ws {
			c, err := cpu.New(cpu.SkiaConfig(), w)
			if err != nil {
				return p, err
			}
			base, err := cpu.New(cpu.DefaultConfig(), w)
			if err != nil {
				return p, err
			}
			for _, k := range []struct {
				c *cpu.Core
				d *time.Duration
				n *uint64
			}{{base, &baseD, &baseN}, {c, &skiaD, &skiaN}} {
				k.c.Run(sz.probeWarm)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				end := rec.begin("cpu.Core.Run")
				*k.d += stopwatch(func() { *k.n += k.c.Run(sz.probeInsts) })
				end()
				runtime.ReadMemStats(&after)
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			end := rec.begin("cpu.Core.Clone")
			cloneUS = append(cloneUS, float64(stopwatch(func() { c.Clone() }).Nanoseconds())/1e3)
			end()
			end = rec.begin("cpu.Core.FastForwardWarm")
			ffwdD += stopwatch(func() { ffwdN += c.FastForwardWarm(sz.probeInsts) })
			end()
		}
		insts += baseN + skiaN
		baseNS = append(baseNS, float64(baseD.Nanoseconds())/float64(baseN))
		skiaNS = append(skiaNS, float64(skiaD.Nanoseconds())/float64(skiaN))
		ffwdNS = append(ffwdNS, float64(ffwdD.Nanoseconds())/float64(ffwdN))
	}
	p.baseNS, p.skiaNS = median(baseNS), median(skiaNS)
	p.cloneUS, p.ffwdNS = median(cloneUS), median(ffwdNS)
	p.allocsPerK = float64(allocs) * 1000 / float64(insts)
	p.bytesPerK = float64(bytes) * 1000 / float64(insts)
	return p, nil
}
