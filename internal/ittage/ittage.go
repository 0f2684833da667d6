// Package ittage implements an ITTAGE-style indirect branch target
// predictor (Seznec, CBP-2011), used by the paper's baseline BPU
// (Table 1). Like TAGE it combines a tagless base table with
// partially-tagged tables indexed by geometrically longer global path
// history; entries store full targets plus a confidence counter.
//
// The front-end pushes two path-history bits per taken branch, so the
// predictor can distinguish target rotations by the control-flow path
// (and by its own previous targets, whose bits enter the same history):
// SpecPush at prediction time with the predicted target, ArchPush at
// decode with the true one. Wrong-path lookups use Predict only.
package ittage

import (
	"fmt"
	"math"
)

// Config sizes the predictor.
type Config struct {
	// NumTables is the number of tagged tables.
	NumTables int
	// LogBase is log2 of base-table entries.
	LogBase int
	// LogTagged is log2 of entries per tagged table.
	LogTagged int
	// TagBits is the partial tag width.
	TagBits int
	// MinHist and MaxHist bound the geometric history lengths.
	MinHist, MaxHist int
}

// maxTables bounds Config.NumTables, and maxIndexBits bounds
// Config.LogTagged and Config.TagBits: a Prediction records one table
// index and one tag per tagged table in fixed [maxTables]uint16 arrays.
const (
	maxTables    = 16
	maxIndexBits = 16
)

// Validate reports geometry the compact Prediction metadata cannot hold.
func (c Config) Validate() error {
	switch {
	case c.NumTables > maxTables:
		return fmt.Errorf("ittage: NumTables %d exceeds %d", c.NumTables, maxTables)
	case c.LogTagged > maxIndexBits:
		return fmt.Errorf("ittage: LogTagged %d exceeds %d bits", c.LogTagged, maxIndexBits)
	case c.TagBits > maxIndexBits:
		return fmt.Errorf("ittage: TagBits %d exceeds %d bits", c.TagBits, maxIndexBits)
	}
	return nil
}

// DefaultConfig approximates the paper's 64KB ITTAGE budget.
func DefaultConfig() Config {
	return Config{
		NumTables: 6,
		LogBase:   11,
		LogTagged: 9,
		TagBits:   11,
		MinHist:   4,
		MaxHist:   120,
	}
}

// StorageBits returns the approximate hardware budget in bits.
func (c Config) StorageBits() int {
	bits := (1 << c.LogBase) * (64 + 2)
	perEntry := 64 + 2 + c.TagBits + 2
	bits += c.NumTables * (1 << c.LogTagged) * perEntry
	return bits
}

// Stats counts prediction events.
type Stats struct {
	Predicts     uint64
	Mispredicts  uint64
	NoPrediction uint64
	Allocations  uint64
}

type baseEntry struct {
	target uint64
	ctr    int8
	valid  bool
}

type taggedEntry struct {
	tag    uint32
	target uint64
	ctr    int8 // 2-bit confidence [-2,1]
	u      uint8
	valid  bool
}

type folded struct {
	comp     uint64
	compLen  uint
	outPoint uint
}

func newFolded(origLen, compLen int) folded {
	return folded{compLen: uint(compLen), outPoint: uint(origLen % compLen)}
}

func (f *folded) update(youngest, oldest uint64) {
	f.comp = (f.comp << 1) | youngest
	f.comp ^= oldest << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

type history struct {
	bits []uint64
	ptr  int
	mask int
}

func newHistory(n int) *history {
	words := 1
	for words*64 < n {
		words *= 2
	}
	return &history{bits: make([]uint64, words), mask: words*64 - 1}
}

func (h *history) bit(k int) uint64 {
	idx := (h.ptr - k) & h.mask
	return (h.bits[idx/64] >> (uint(idx) % 64)) & 1
}

func (h *history) push(b uint64) {
	h.ptr = (h.ptr + 1) & h.mask
	word, off := h.ptr/64, uint(h.ptr)%64
	h.bits[word] = (h.bits[word] &^ (1 << off)) | (b << off)
}

type table struct {
	entries []taggedEntry
	histLen int
}

// histState is one complete path-history state (bits plus per-table
// folded registers). The predictor keeps a speculative state advanced
// with predicted targets at prediction time and an architectural state
// advanced with true targets at decode; SyncSpec repairs the former
// from the latter after a re-steer.
type histState struct {
	ghist *history
	folds [][2]folded // per table: index, tag
}

func (h *histState) push(b uint64, tables []table) {
	for i := range tables {
		oldest := h.ghist.bit(tables[i].histLen - 1)
		h.folds[i][0].update(b, oldest)
		h.folds[i][1].update(b, oldest)
	}
	h.ghist.push(b)
}

func (h *histState) copyFrom(src *histState) {
	copy(h.ghist.bits, src.ghist.bits)
	h.ghist.ptr = src.ghist.ptr
	copy(h.folds, src.folds)
}

// Prediction carries provider bookkeeping from Predict to Update.
// Indices and tags are stored in 16 bits (Config.Validate bounds both
// widths), which keeps a Prediction at 96 bytes: the front-end carries
// one in every FTQ block.
type Prediction struct {
	// Target is the predicted target, 0 when no prediction exists.
	Target uint64
	// Valid reports whether any component supplied a target.
	Valid bool

	provider int // -1 = base
	indices  [maxTables]uint16
	tags     [maxTables]uint16
	baseIdx  uint32
}

// Predictor is an ITTAGE target predictor. Not safe for concurrent use.
type Predictor struct {
	cfg    Config
	base   []baseEntry
	tables []table
	spec   histState
	arch   histState
	stats  Stats
}

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:  cfg,
		base: make([]baseEntry, 1<<cfg.LogBase),
	}
	p.tables = make([]table, cfg.NumTables)
	p.spec = histState{ghist: newHistory(cfg.MaxHist + 64), folds: make([][2]folded, cfg.NumTables)}
	p.arch = histState{ghist: newHistory(cfg.MaxHist + 64), folds: make([][2]folded, cfg.NumTables)}
	for i := range p.tables {
		var l int
		if cfg.NumTables == 1 {
			l = cfg.MinHist
		} else {
			ratio := float64(cfg.MaxHist) / float64(cfg.MinHist)
			l = int(float64(cfg.MinHist)*math.Pow(ratio, float64(i)/float64(cfg.NumTables-1)) + 0.5)
		}
		p.tables[i] = table{
			entries: make([]taggedEntry, 1<<cfg.LogTagged),
			histLen: l,
		}
		fs := [2]folded{newFolded(l, cfg.LogTagged), newFolded(l, cfg.TagBits)}
		p.spec.folds[i] = fs
		p.arch.folds[i] = fs
	}
	return p
}

// clone returns an independent deep copy of one history state.
func (h *histState) clone() histState {
	c := histState{}
	if h.ghist != nil {
		c.ghist = &history{
			bits: make([]uint64, len(h.ghist.bits)),
			ptr:  h.ghist.ptr,
			mask: h.ghist.mask,
		}
		copy(c.ghist.bits, h.ghist.bits)
	}
	if h.folds != nil {
		c.folds = make([][2]folded, len(h.folds))
		copy(c.folds, h.folds)
	}
	return c
}

// Clone returns an independent deep copy of the predictor: same table
// contents, both history states, and statistics.
func (p *Predictor) Clone() *Predictor {
	n := &Predictor{
		cfg:    p.cfg,
		base:   make([]baseEntry, len(p.base)),
		tables: make([]table, len(p.tables)),
		spec:   p.spec.clone(),
		arch:   p.arch.clone(),
		stats:  p.stats,
	}
	copy(n.base, p.base)
	for i, t := range p.tables {
		n.tables[i] = table{entries: make([]taggedEntry, len(t.entries)), histLen: t.histLen}
		copy(n.tables[i].entries, t.entries)
	}
	return n
}

func (p *Predictor) index(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.LogTagged) - 1
	return (uint32(pc) ^ uint32(pc>>uint(p.cfg.LogTagged)) ^ uint32(p.spec.folds[i][0].comp)) & mask
}

func (p *Predictor) tag(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.TagBits) - 1
	return (uint32(pc>>2) ^ uint32(p.spec.folds[i][1].comp)) & mask
}

// Predict returns the target prediction for the indirect branch at pc
// without mutating state.
func (p *Predictor) Predict(pc uint64) Prediction {
	pr := Prediction{provider: -1}
	pr.baseIdx = uint32(pc>>1) & (uint32(1<<p.cfg.LogBase) - 1)
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		pr.indices[i] = uint16(p.index(i, pc))
		pr.tags[i] = uint16(p.tag(i, pc))
	}
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		e := &p.tables[i].entries[pr.indices[i]]
		if e.valid && e.tag == uint32(pr.tags[i]) {
			pr.provider = i
			pr.Target = e.target
			pr.Valid = true
			return pr
		}
	}
	be := &p.base[pr.baseIdx]
	if be.valid {
		pr.Target = be.target
		pr.Valid = true
	}
	return pr
}

// Update trains the predictor with the actual target and pushes nothing
// into history (the front-end pushes history for every taken branch via
// SpecPush and ArchPush, keeping one global ordering).
func (p *Predictor) Update(pc uint64, pred Prediction, actual uint64) {
	p.stats.Predicts++
	correct := pred.Valid && pred.Target == actual
	if !pred.Valid {
		p.stats.NoPrediction++
	}
	if !correct {
		p.stats.Mispredicts++
	}

	if pred.provider >= 0 {
		e := &p.tables[pred.provider].entries[pred.indices[pred.provider]]
		if e.target == actual {
			if e.ctr < 1 {
				e.ctr++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			if e.ctr > -2 {
				e.ctr--
			}
			if e.ctr <= -2 {
				// Low confidence: replace the target in place.
				e.target = actual
				e.ctr = 0
			}
			if e.u > 0 {
				e.u--
			}
		}
	} else {
		be := &p.base[pred.baseIdx]
		if !be.valid || be.ctr <= -2 {
			*be = baseEntry{target: actual, valid: true}
		} else if be.target == actual {
			if be.ctr < 1 {
				be.ctr++
			}
		} else {
			be.ctr--
		}
	}

	// Allocate a longer-history entry on misprediction.
	if !correct && pred.provider < p.cfg.NumTables-1 {
		for i := pred.provider + 1; i < p.cfg.NumTables; i++ {
			e := &p.tables[i].entries[pred.indices[i]]
			if !e.valid || e.u == 0 {
				*e = taggedEntry{tag: uint32(pred.tags[i]), target: actual, ctr: 0, valid: true}
				p.stats.Allocations++
				return
			}
		}
		for i := pred.provider + 1; i < p.cfg.NumTables; i++ {
			e := &p.tables[i].entries[pred.indices[i]]
			if e.u > 0 {
				e.u--
			}
		}
	}
}

// pathBits derives the two history bits one taken branch contributes,
// as in Seznec's ITTAGE: target bits carry the information needed to
// tell apart rotation states of a polymorphic site reached along an
// otherwise identical path.
func pathBits(pc, target uint64) (uint64, uint64) {
	b1 := ((pc >> 2) ^ (target >> 4) ^ (target >> 9)) & 1
	b2 := ((target >> 5) ^ (target >> 12)) & 1
	return b1, b2
}

// SpecPush records a *predicted* taken branch (any class) into the
// speculative path history at prediction time.
func (p *Predictor) SpecPush(pc, target uint64) {
	b1, b2 := pathBits(pc, target)
	p.spec.push(b1, p.tables)
	p.spec.push(b2, p.tables)
}

// ArchPush records a *true* taken branch into the architectural path
// history at decode.
func (p *Predictor) ArchPush(pc, target uint64) {
	b1, b2 := pathBits(pc, target)
	p.arch.push(b1, p.tables)
	p.arch.push(b2, p.tables)
}

// SyncSpec repairs the speculative history from the architectural one
// after a re-steer.
func (p *Predictor) SyncSpec() { p.spec.copyFrom(&p.arch) }

// Stats returns accumulated counts.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes statistics without forgetting learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }
