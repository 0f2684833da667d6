package cpu

import (
	"encoding/json"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// cloneConfigs enumerates the structurally distinct front-end shapes a
// checkpoint must capture: baseline (no SBB/SBD), full Skia (SBB + SBD
// over the workload's shared decode table), Skia under a second decode
// configuration (its own table on the same workload), the SBD-into-BTB
// ablation (no SBB), and a BTB large enough to trigger the
// access-latency config adjustment New applies.
func cloneConfigs() map[string]Config {
	skia := SkiaConfig()
	merge := SkiaConfig()
	merge.Frontend.SBD.Policy = core.MergeIndex
	merge.Frontend.SBD.IncludeConditionals = true
	toBTB := SkiaConfig()
	toBTB.Frontend.SBDToBTB = true
	bigBTB := SkiaConfig()
	bigBTB.Frontend.BTB.Entries = 65536
	return map[string]Config{
		"baseline":         DefaultConfig(),
		"skia":             skia,
		"skia-merge-conds": merge,
		"sbd-to-btb":       toBTB,
		"big-btb":          bigBTB,
	}
}

func cloneWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// compareCores fails the test if the two cores' observable states
// diverge: the full result snapshot (which covers every component's
// statistics — front-end, L1I, L2, BTB, TAGE, ITTAGE, SBB, SBD), the
// interval sample, and the probe-candidate footprint. The comparison is byte-level on the marshaled result, the
// strongest equality the ISSUE's "byte-identical" criterion asks for.
func compareCores(t *testing.T, label string, a, b *Core) {
	t.Helper()
	ra, rb := a.Result("w"), b.Result("w")
	ja, err := json.Marshal(ra)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s: results not byte-identical:\n  a: %s\n  b: %s", label, ja, jb)
	}
	if !reflect.DeepEqual(a.Sample(), b.Sample()) {
		t.Errorf("%s: interval samples differ: %+v vs %+v", label, a.Sample(), b.Sample())
	}
	if a.Frontend().ExtraOffLines() != b.Frontend().ExtraOffLines() {
		t.Errorf("%s: probe-candidate footprints differ: %d vs %d",
			label, a.Frontend().ExtraOffLines(), b.Frontend().ExtraOffLines())
	}
}

// TestSnapshotRestoreRunIdentical is the checkpointing determinism
// contract: Snapshot (Clone) → continue the original → continue the
// restored copy must be indistinguishable from the uninterrupted run,
// for every front-end shape. Each clone is taken mid-run, both cores
// then advance the same distance, and every component statistic must
// stay byte-identical.
func TestSnapshotRestoreRunIdentical(t *testing.T) {
	w := cloneWorkload(t, "voter")
	for name, cfg := range cloneConfigs() {
		t.Run(name, func(t *testing.T) {
			orig, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			orig.Run(120_000)
			snap := orig.Clone()
			compareCores(t, "at snapshot", orig, snap)

			orig.Run(120_000)
			snap.Run(120_000)
			compareCores(t, "after continue", orig, snap)
		})
	}
}

// TestCloneIndependence checks a clone and its original never alias
// state: running one must not move the other.
func TestCloneIndependence(t *testing.T) {
	w := cloneWorkload(t, "voter")
	c, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(80_000)
	before := c.Sample()
	cl := c.Clone()
	cl.Run(200_000)
	if got := c.Sample(); !reflect.DeepEqual(before, got) {
		t.Fatalf("running a clone mutated the original: %+v -> %+v", before, got)
	}
	// And the other direction: running the original leaves the clone's
	// position where the snapshot put it.
	mid := cl.Sample()
	c.Run(200_000)
	if got := cl.Sample(); !reflect.DeepEqual(mid, got) {
		t.Fatalf("running the original mutated the clone: %+v -> %+v", mid, got)
	}
}

// TestCloneRandomizedSnapshotPoints is the property test over snapshot
// positions: clone at pseudo-random points along a run (deterministic
// LCG, so the test itself is reproducible) and verify each clone,
// advanced to a common horizon, matches the uninterrupted reference
// exactly.
func TestCloneRandomizedSnapshotPoints(t *testing.T) {
	w := cloneWorkload(t, "voter")
	const horizon = 400_000

	for _, cfgName := range []string{"skia"} {
		cfg := cloneConfigs()[cfgName]
		t.Run(cfgName, func(t *testing.T) {
			ref, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(horizon)
			want := ref.Result("w")

			c, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0x9E3779B97F4A7C15)
			var pos uint64
			for i := 0; i < 6; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				step := 10_000 + seed%90_000
				if pos+step > horizon {
					break
				}
				c.Run(step)
				pos = c.Retired()
				cl := c.Clone()
				cl.Run(horizon - pos)
				if got := cl.Result("w"); !reflect.DeepEqual(want, got) {
					t.Errorf("clone at %d instructions diverged from the uninterrupted run:\n  want %+v\n  got  %+v", pos, want, got)
				}
			}
		})
	}
}

// TestFastForwardResyncsToTruePath checks the functional-skip
// primitive: after FastForwardWarm the core must be positioned on the
// true path and able to continue simulating without forced resyncs or
// emulator errors.
func TestFastForwardResyncsToTruePath(t *testing.T) {
	w := cloneWorkload(t, "voter")
	c, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(50_000)
	skipped := c.FastForwardWarm(200_000)
	if skipped != 200_000 {
		t.Fatalf("FastForwardWarm skipped %d, want 200000", skipped)
	}
	c.ResetStats()
	if ran := c.Run(100_000); ran == 0 {
		t.Fatal("core would not run after FastForwardWarm")
	}
	if err := c.Frontend().Err(); err != nil {
		t.Fatal(err)
	}
	if fr := c.Result("w").FE.ForcedResyncs; fr != 0 {
		t.Fatalf("%d forced resyncs after FastForwardWarm", fr)
	}
}

// TestFastForwardMatchesDetailPosition checks FastForwardWarm lands on the
// same architectural point detail simulation reaches: a fast-forwarded
// core and a detail-run core, resynchronized at the same instruction
// position, must produce identical measurement windows... except that
// microarchitectural (cache/predictor) state legitimately differs.
// What must agree exactly is the functional position: PC-by-PC the two
// continue on the same true path, which this test asserts by checking
// the emulator cannot diverge (no errors, no forced resyncs) and both
// cores retire the full window.
func TestFastForwardMatchesDetailPosition(t *testing.T) {
	w := cloneWorkload(t, "noop")
	a, err := New(DefaultConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	a.Run(100_000) // detail
	b.FastForwardWarm(100_000)
	// Both cores continue; neither may error or force-resync.
	a.ResetStats()
	b.ResetStats()
	a.Run(50_000)
	b.Run(50_000)
	for name, c := range map[string]*Core{"detail": a, "fast-forward": b} {
		if err := c.Frontend().Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fr := c.Result("w").FE.ForcedResyncs; fr != 0 {
			t.Fatalf("%s: %d forced resyncs", name, fr)
		}
	}
}

// TestCoresShareShadowTableConcurrently steps two cores of one workload
// in parallel goroutines. Their decoders differ only in decode-
// irrelevant fields, so both read and fill the workload's single
// shadow-decode table at once; each result must equal a run of the
// same core alone on a fresh workload.
func TestCoresShareShadowTableConcurrently(t *testing.T) {
	both := SkiaConfig()
	headOnly := SkiaConfig()
	headOnly.Frontend.SBD.Tail = false
	cfgs := []Config{both, headOnly}
	const n = 150_000

	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		c, err := New(cfg, cloneWorkload(t, "voter"))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(n)
		want[i] = c.Result("w")
	}

	w := cloneWorkload(t, "voter")
	cores := make([]*Core, len(cfgs))
	for i, cfg := range cfgs {
		c, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range cores {
		wg.Add(1)
		go func(c *Core) {
			defer wg.Done()
			c.Run(n)
		}(c)
	}
	wg.Wait()
	for i, c := range cores {
		if got := c.Result("w"); !reflect.DeepEqual(want[i], got) {
			t.Errorf("core %d on the shared table diverged:\n  want %+v\n  got  %+v", i, want[i], got)
		}
	}
}

// fuzzWorkloads caches the shrunken workloads FuzzClone runs on, one
// per benchmark, so iterations pay for generation once per process.
var fuzzWorkloads sync.Map // benchmark name -> *workload.Workload

func fuzzWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	if w, ok := fuzzWorkloads.Load(name); ok {
		return w.(*workload.Workload)
	}
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.HotFuncs = 96
	p.ColdFuncs = 260
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	actual, _ := fuzzWorkloads.LoadOrStore(name, w)
	return actual.(*workload.Workload)
}

// FuzzClone checks that a clone taken at an arbitrary point stays
// equal to its original: benchmark, front-end shape and snapshot
// position are fuzzed, the snapshot is optionally steered to land
// mid-block (the block in decode holds a live FTQ slot the clone must
// re-point at its own ring) or with a re-steer pending, and then the
// original and the clone advance the same window and must agree.
func FuzzClone(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(30_000), uint8(0), uint8(0), uint16(20_000))
	f.Add(uint8(1), uint8(1), uint32(12_345), uint8(7), uint8(1), uint16(15_000))
	f.Add(uint8(2), uint8(2), uint32(40_000), uint8(3), uint8(2), uint16(25_000))
	names := workload.Names()
	cfgs := cloneConfigs()
	shapes := make([]string, 0, len(cfgs))
	for name := range cfgs {
		shapes = append(shapes, name)
	}
	sort.Strings(shapes)
	f.Fuzz(func(t *testing.T, bench, shape uint8, warm uint32, extra, steer uint8, window uint16) {
		w := fuzzWorkload(t, names[int(bench)%len(names)])
		cfg := cfgs[shapes[int(shape)%len(shapes)]]

		c, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(uint64(warm % 60_000))
		for i := 0; i < int(extra%32); i++ {
			c.Run(1)
		}
		// Steer the snapshot point: 1 = a block in decode, 2 = a
		// re-steer pending; give up after a bounded search.
		for i := 0; i < 4096 && !c.Frontend().Done(); i++ {
			inDecode, resteer := c.Frontend().InFlight()
			if steer%3 == 0 || (steer%3 == 1 && inDecode) || (steer%3 == 2 && resteer) {
				break
			}
			c.Run(1)
		}
		cl := c.Clone()
		compareCores(t, "at snapshot", c, cl)
		n := uint64(window%30_000) + 1
		c.Run(n)
		cl.Run(n)
		compareCores(t, "after window", c, cl)
	})
}
