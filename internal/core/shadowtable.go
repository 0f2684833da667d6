// The shadow-decode table: every head and tail decode of one program
// image, computed at most once and shared read-only by every core that
// simulates the image. The paper keeps the SBD off the processor's
// critical path because length-decoding a resident line again is
// redundant (Section 3.2); the simulator would otherwise pay that cost
// in software each time a line re-enters the FTQ. A region's decode is a
// pure function of the immutable program bytes and the decode-relevant
// SBDConfig fields (DecodeKey), so the table never invalidates or
// evicts: it is bounded by the program size.
//
// Each record stores the full observable side effect of a decode — the
// branches plus the path-family count and the no-valid-path/discarded
// outcome — so SBD.Head and SBD.Tail replay exactly the statistics and
// OnHeadPaths observation a fresh decode would have produced.
//
// Lines fill lazily and readers never lock. A region is appended to the
// table's region arena and its branches to the branch arena, then the
// line's head index is raised to it; entries are immutable once a head
// index reaches them. Publishers serialize on the table's mutex. Two
// goroutines racing on one region compute identical bytes, and the
// second adopts the first's entry. Both arenas grow in fixed-size
// chunks, so filling a table costs a few hundred allocations and no
// per-region slack.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/program"
)

// DecodeKey is the part of an SBDConfig that determines what a region
// decodes to. Head, Tail and Latency only decide whether and when a
// region is decoded, so cores that differ only in them share a table.
type DecodeKey struct {
	MaxValidPaths        int
	Policy               IndexPolicy
	RequireCorroboration bool
	IncludeConditionals  bool
}

// DecodeKey returns the decode-relevant fields of c, with MaxValidPaths
// normalized the way NewSBD normalizes it.
func (c SBDConfig) DecodeKey() DecodeKey {
	if c.MaxValidPaths <= 0 {
		c.MaxValidPaths = defaultMaxValidPaths
	}
	return DecodeKey{
		MaxValidPaths:        c.MaxValidPaths,
		Policy:               c.Policy,
		RequireCorroboration: c.RequireCorroboration,
		IncludeConditionals:  c.IncludeConditionals,
	}
}

// Region flags.
const (
	regionTail      uint8 = 1 << iota // tail region (head otherwise)
	regionNoValid                     // head outcome: zero valid paths
	regionDiscarded                   // head outcome: over the MaxValidPaths cap
)

// region is one memoized decode, 12 bytes. Its branches are the branch
// arena's entries [start, start+n); next links the line's previously
// published region (index+1, 0 ends the list).
type region struct {
	off       uint8
	flags     uint8
	nFamilies uint8
	n         uint8
	next      uint32
	start     uint32
}

// decoded is a head or tail decode result. branches is read-only: it
// aliases the table's branch arena or the decoder's scratch buffer.
type decoded struct {
	branches  []ShadowBranch
	nFamilies int
	noValid   bool
	discarded bool
}

// arenaChunk is the number of entries per arena chunk.
const arenaChunk = 256

// arena is an append-only array stored in fixed-size chunks. Readers
// index published entries without locking; alloc must be serialized.
type arena[T any] struct {
	chunks atomic.Pointer[[]*[arenaChunk]T]
	n      uint32 // entries allocated; under the table's mutex
}

// dir returns the current chunk directory. Entries a reader reached
// through a published index are always within it.
func (a *arena[T]) dir() []*[arenaChunk]T {
	if p := a.chunks.Load(); p != nil {
		return *p
	}
	return nil
}

// slice returns entries [i, i+n), which never straddle a chunk.
func (a *arena[T]) slice(i uint32, n int) []T {
	if n == 0 {
		return nil
	}
	o := int(i % arenaChunk)
	return a.dir()[i/arenaChunk][o : o+n : o+n]
}

// alloc reserves n (1..arenaChunk) contiguous entries within one chunk
// and returns the index of the first.
func (a *arena[T]) alloc(n int) uint32 {
	if o := int(a.n % arenaChunk); o+n > arenaChunk {
		a.n += uint32(arenaChunk - o) // leave the chunk's tail unused
	}
	dir := a.dir()
	if int((a.n+uint32(n)-1)/arenaChunk) >= len(dir) {
		// Copy the directory: readers may hold the old one.
		grown := append(dir[:len(dir):len(dir)], new([arenaChunk]T))
		a.chunks.Store(&grown)
	}
	i := a.n
	a.n += uint32(n)
	return i
}

// ShadowTable memoizes the head and tail decodes of one program image
// under one DecodeKey. It is safe for concurrent use.
type ShadowTable struct {
	key   DecodeKey
	base  uint64          // address of the first line
	heads []atomic.Uint32 // per line: index+1 of its newest region, 0 if none

	mu       sync.Mutex // serializes publish
	regions  arena[region]
	branches arena[ShadowBranch]
}

// NewShadowTable builds an empty table for the image of codeLen bytes
// loaded at base, decoding under cfg's decode-relevant fields.
func NewShadowTable(cfg SBDConfig, base uint64, codeLen int) *ShadowTable {
	t := &ShadowTable{key: cfg.DecodeKey(), base: program.LineAddr(base)}
	if codeLen > 0 {
		last := program.LineAddr(base + uint64(codeLen) - 1)
		t.heads = make([]atomic.Uint32, (last-t.base)/program.LineSize+1)
	}
	return t
}

// head returns lineAddr's region-list head, or nil outside the image.
func (t *ShadowTable) head(lineAddr uint64) *atomic.Uint32 {
	i := (lineAddr - t.base) / program.LineSize
	if lineAddr < t.base || i >= uint64(len(t.heads)) {
		return nil
	}
	return &t.heads[i]
}

// lookup returns the published decode of (lineAddr, off, kind).
//
//skia:noalloc
func (t *ShadowTable) lookup(lineAddr uint64, off int, kind uint8) (decoded, bool) {
	h := t.head(lineAddr)
	if h == nil {
		return decoded{}, false
	}
	i := h.Load()
	regions := t.regions.dir() // after h: i's chunk must be in it
	for i != 0 {
		g := &regions[(i-1)/arenaChunk][(i-1)%arenaChunk]
		if int(g.off) == off && g.flags&regionTail == kind {
			return decoded{
				branches:  t.branches.slice(g.start, int(g.n)),
				nFamilies: int(g.nFamilies),
				noValid:   g.flags&regionNoValid != 0,
				discarded: g.flags&regionDiscarded != 0,
			}, true
		}
		i = g.next
	}
	return decoded{}, false
}

// publish records a fresh decode and returns the table's copy, whose
// branches stay valid for the table's lifetime. Outside the image it
// returns d unchanged.
func (t *ShadowTable) publish(lineAddr uint64, off int, kind uint8, d decoded) decoded {
	h := t.head(lineAddr)
	if h == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if got, ok := t.lookup(lineAddr, off, kind); ok {
		return got // another core published the same decode first
	}
	g := region{off: uint8(off), flags: kind, nFamilies: uint8(d.nFamilies),
		n: uint8(len(d.branches)), next: h.Load()}
	if d.noValid {
		g.flags |= regionNoValid
	}
	if d.discarded {
		g.flags |= regionDiscarded
	}
	if g.n > 0 {
		g.start = t.branches.alloc(int(g.n))
		copy(t.branches.slice(g.start, int(g.n)), d.branches)
	}
	i := t.regions.alloc(1)
	t.regions.slice(i, 1)[0] = g
	h.Store(i + 1)
	d.branches = t.branches.slice(g.start, int(g.n))
	return d
}
