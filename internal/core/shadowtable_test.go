package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/program"
)

// randLine fills a line with a mix of plausible VLX bytes and noise so
// head decoding exercises valid, no-valid-path, and discarded regions.
func randLine(rng *rand.Rand) []byte {
	line := make([]byte, program.LineSize)
	rng.Read(line)
	// Seed stretches of decodable code so some paths validate: short
	// opcodes (nop, push/pop, ret) and rel8 jumps.
	common := []byte{0x90, 0x50, 0x58, 0xC3, 0xEB, 0x70, 0x40, 0xE9}
	for i := 0; i < len(line); i++ {
		if rng.Intn(2) == 0 {
			line[i] = common[rng.Intn(len(common))]
		}
	}
	return line
}

func sameBranches(a, b []ShadowBranch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShadowTableMatchesFreshDecodes is the property test: across
// randomized lines and offsets, a tabled SBD must produce branch
// sequences, statistics, and OnHeadPaths observations identical to an
// untabled SBD — on the first (fill) and every repeated (hit) decode.
func TestShadowTableMatchesFreshDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultSBDConfig()
	const base, nLines = 0x40_0000, 200
	code := make([]byte, 0, nLines*program.LineSize)
	for i := 0; i < nLines; i++ {
		code = append(code, randLine(rng)...)
	}

	tab := NewShadowTable(cfg, base, len(code))
	tabled := NewSBD(cfg)
	tabled.AttachTable(tab)
	fresh := NewSBD(cfg)

	var tabledFam, freshFam []int
	tabled.OnHeadPaths = func(n int) { tabledFam = append(tabledFam, n) }
	fresh.OnHeadPaths = func(n int) { freshFam = append(freshFam, n) }

	for trial := 0; trial < 400; trial++ {
		i := rng.Intn(nLines)
		line := code[i*program.LineSize : (i+1)*program.LineSize]
		lineAddr := uint64(base + i*program.LineSize)
		entryOff := 1 + rng.Intn(program.LineSize)
		startOff := rng.Intn(program.LineSize)

		for rep := 0; rep < 3; rep++ {
			gotH := tabled.Head(line, lineAddr, entryOff)
			wantH := fresh.DecodeHead(line, lineAddr, entryOff, nil)
			if !sameBranches(gotH, wantH) {
				t.Fatalf("trial %d rep %d: head mismatch: tabled %v fresh %v", trial, rep, gotH, wantH)
			}
			gotT := tabled.Tail(line, lineAddr, startOff)
			wantT := fresh.DecodeTail(line, lineAddr, startOff, nil)
			if !sameBranches(gotT, wantT) {
				t.Fatalf("trial %d rep %d: tail mismatch: tabled %v fresh %v", trial, rep, gotT, wantT)
			}
		}
		if _, ok := tab.lookup(lineAddr, entryOff, 0); !ok {
			t.Fatalf("trial %d: head region +%d of %#x was not published", trial, entryOff, lineAddr)
		}
		if tabled.Stats() != fresh.Stats() {
			t.Fatalf("trial %d: stats diverged: tabled %+v fresh %+v", trial, tabled.Stats(), fresh.Stats())
		}
	}
	if len(tabledFam) != len(freshFam) {
		t.Fatalf("OnHeadPaths call counts differ: %d vs %d", len(tabledFam), len(freshFam))
	}
	for i := range tabledFam {
		if tabledFam[i] != freshFam[i] {
			t.Fatalf("OnHeadPaths observation %d differs: %d vs %d", i, tabledFam[i], freshFam[i])
		}
	}
}

// TestShadowTableOutsideImage checks lines the table does not cover
// (below the base, past the end) still decode afresh, every time.
func TestShadowTableOutsideImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	line := randLine(rng)
	cfg := DefaultSBDConfig()
	tab := NewShadowTable(cfg, 0x1000, program.LineSize)
	d := NewSBD(cfg)
	d.AttachTable(tab)
	fresh := NewSBD(cfg)
	for _, la := range []uint64{0, 0x1000 - program.LineSize, 0x1000 + program.LineSize} {
		for off := 0; off < program.LineSize; off++ {
			if got, want := d.Tail(line, la, off), fresh.Tail(line, la, off); !sameBranches(got, want) {
				t.Fatalf("%#x+%d: tail %v, want %v", la, off, got, want)
			}
		}
		if tab.head(la) != nil {
			t.Fatalf("%#x: outside the image but has a slot", la)
		}
	}
}

// TestShadowTableLayout pins the compact record layout the table's
// heap footprint depends on.
func TestShadowTableLayout(t *testing.T) {
	if n := unsafe.Sizeof(ShadowBranch{}); n != 24 {
		t.Errorf("ShadowBranch is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(region{}); n > 16 {
		t.Errorf("region header is %d bytes, want <= 16", n)
	}
}

// TestAttachTableRejectsOtherKey checks a decoder cannot read a table
// built under a different decode configuration.
func TestAttachTableRejectsOtherKey(t *testing.T) {
	cfg := DefaultSBDConfig()
	other := cfg
	other.Policy = MergeIndex
	d := NewSBD(cfg)
	same := cfg
	same.Head, same.Latency = false, 9 // not decode-relevant
	d.AttachTable(NewShadowTable(same, 0, program.LineSize))
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a table of another decode configuration did not panic")
		}
	}()
	d.AttachTable(NewShadowTable(other, 0, program.LineSize))
}

// fuzzConfig maps one byte onto the decode-relevant SBD configuration
// space: index policy, corroboration, conditionals, and the path cap.
func fuzzConfig(bits uint8) SBDConfig {
	cfg := DefaultSBDConfig()
	cfg.Policy = IndexPolicy((bits & 3) % 3)
	cfg.RequireCorroboration = bits&4 != 0
	cfg.IncludeConditionals = bits&8 != 0
	cfg.MaxValidPaths = 1 + int(bits>>4)
	return cfg
}

// FuzzShadowTable checks the table against fresh headCore/tailCore
// results on arbitrary lines of up to 64 bytes — a short last line of
// an image included — at an arbitrary offset under an arbitrary decode
// configuration: branches, path-family count, and the no-valid-path
// and discarded outcomes must agree on the filling decode and on the
// replayed one. The seed corpus lives in testdata/fuzz.
func FuzzShadowTable(f *testing.F) {
	f.Add([]byte{0x90, 0x90, 0xC3, 0xEB, 0x02, 0x90}, uint8(3), uint8(0x64))
	f.Fuzz(func(t *testing.T, line []byte, off, bits uint8) {
		if len(line) > program.LineSize {
			line = line[:program.LineSize]
		}
		cfg := fuzzConfig(bits)
		const base = 0x40_0000
		tab := NewShadowTable(cfg, base, len(line))
		d := NewSBD(cfg)
		d.AttachTable(tab)
		ref := NewSBD(cfg)
		o := int(off) % (program.LineSize + 1)

		if o > 0 && o <= len(line) {
			want, nFam, noValid, discarded := ref.headCore(line, base, o, nil)
			for rep := 0; rep < 2; rep++ {
				got := d.Head(line, base, o)
				r, ok := tab.lookup(base, o, 0)
				if !ok {
					t.Fatalf("head +%d not published", o)
				}
				if !sameBranches(got, want) || !sameBranches(r.branches, want) {
					t.Fatalf("rep %d head +%d: got %v, table %v, fresh %v", rep, o, got, r.branches, want)
				}
				if r.nFamilies != nFam || r.noValid != noValid || r.discarded != discarded {
					t.Fatalf("rep %d head +%d: table (%d, %v, %v), fresh (%d, %v, %v)", rep, o,
						r.nFamilies, r.noValid, r.discarded, nFam, noValid, discarded)
				}
			}
		} else if got := d.Head(line, base, o); got != nil {
			t.Fatalf("head +%d outside (0, %d] decoded %v", o, len(line), got)
		}

		if o < len(line) {
			want := ref.tailCore(line, base, o, nil)
			for rep := 0; rep < 2; rep++ {
				got := d.Tail(line, base, o)
				r, ok := tab.lookup(base, o, regionTail)
				if !ok {
					t.Fatalf("tail +%d not published", o)
				}
				if !sameBranches(got, want) || !sameBranches(r.branches, want) {
					t.Fatalf("rep %d tail +%d: got %v, table %v, fresh %v", rep, o, got, r.branches, want)
				}
			}
		} else if got := d.Tail(line, base, o); got != nil {
			t.Fatalf("tail +%d outside [0, %d) decoded %v", o, len(line), got)
		}
	})
}
