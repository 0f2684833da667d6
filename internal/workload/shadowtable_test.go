package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/program"
)

// shadowConfigs are the decode configurations the differential test
// covers: the paper's default plus one variation of every
// decode-relevant SBDConfig field.
func shadowConfigs() map[string]core.SBDConfig {
	def := core.DefaultSBDConfig()
	zero, merge, conds, loose := def, def, def, def
	zero.Policy = core.ZeroIndex
	merge.Policy = core.MergeIndex
	conds.IncludeConditionals = true
	loose.RequireCorroboration = false
	return map[string]core.SBDConfig{
		"default": def, "zero-index": zero, "merge-index": merge,
		"conditionals": conds, "no-corroboration": loose,
	}
}

// regionDecode is what one decode of a region observably did: its
// branches, the SBD statistics it added, and the path-family count it
// reported through OnHeadPaths (-1 when the hook did not fire).
type regionDecode struct {
	branches []core.ShadowBranch
	stats    core.SBDStats
	families int
}

// recorder decodes regions with one SBD and records what each did.
type recorder struct {
	d        *core.SBD
	families int
}

func newRecorder(cfg core.SBDConfig, tab *core.ShadowTable) *recorder {
	r := &recorder{d: core.NewSBD(cfg)}
	r.d.AttachTable(tab)
	r.d.OnHeadPaths = func(n int) { r.families = n }
	return r
}

// decode runs one region, reusing into's branch storage.
func (r *recorder) decode(into *regionDecode, line []byte, lineAddr uint64, off int, head bool) {
	r.d.ResetStats()
	r.families = -1
	var sbs []core.ShadowBranch
	if head {
		sbs = r.d.Head(line, lineAddr, off)
	} else {
		sbs = r.d.Tail(line, lineAddr, off)
	}
	into.branches = append(into.branches[:0], sbs...)
	into.stats = r.d.Stats()
	into.families = r.families
}

func (a *regionDecode) equal(b *regionDecode) bool {
	if a.stats != b.stats || a.families != b.families || len(a.branches) != len(b.branches) {
		return false
	}
	for i := range a.branches {
		if a.branches[i] != b.branches[i] {
			return false
		}
	}
	return true
}

// variantLineStride thins the lines the non-default configurations are
// checked on: every region of every 8th line, which keeps the test's
// cost (two full head decodes per region) within a few seconds.
const variantLineStride = 8

// TestShadowTableDifferential compares every workload's shared
// shadow-decode table against fresh decodes at every head and tail
// offset of every line of every registered workload (the pre-BOLT
// verilator included) under the default configuration, and of every
// variantLineStride-th line under one variation of each
// decode-relevant field. Each region is checked when it fills the
// table and again when it is replayed after the rest of its line has
// been published.
func TestShadowTableDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes every region of 17 workloads under 5 configurations")
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w := MustGenerate(prof)
			for cname, cfg := range shadowConfigs() {
				tabled, fresh := newRecorder(cfg, w.ShadowTable(cfg)), newRecorder(cfg, nil)
				var want [2][program.LineSize + 1]regionDecode
				var got regionDecode
				stride := uint64(program.LineSize)
				if cname != "default" {
					stride *= variantLineStride
				}
				for la := program.LineAddr(w.Prog.Base); la < w.Prog.End(); la += stride {
					line := w.Prog.Line(la)
					for pass := 0; pass < 2; pass++ {
						for off := 0; off <= len(line); off++ {
							for k, head := range []bool{true, false} {
								if pass == 0 {
									fresh.decode(&want[k][off], line, la, off, head)
								}
								tabled.decode(&got, line, la, off, head)
								if !got.equal(&want[k][off]) {
									t.Fatalf("%s: line %#x head=%v +%d pass %d:\n  table %+v\n  fresh %+v",
										cname, la, head, off, pass, got, want[k][off])
								}
							}
						}
					}
				}
			}
			if n := len(w.shadow); n != len(shadowConfigs()) {
				t.Fatalf("%d tables for %d decode configurations", n, len(shadowConfigs()))
			}
		})
	}
}

// TestShadowTableShared checks cores that differ only in
// decode-irrelevant SBD fields get the same table, and that a
// decode-relevant difference gets a separate one.
func TestShadowTableShared(t *testing.T) {
	w := MustGenerate(smallProfile())
	both := core.DefaultSBDConfig()
	headOnly := both
	headOnly.Tail, headOnly.Latency = false, 1
	if w.ShadowTable(both) != w.ShadowTable(headOnly) {
		t.Error("head-only decoder got its own table")
	}
	merge := both
	merge.Policy = core.MergeIndex
	if w.ShadowTable(both) == w.ShadowTable(merge) {
		t.Error("Merge-index decoder shares the First-index table")
	}
}
