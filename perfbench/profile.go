package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile the traced run takes is read back here with a
// minimal decoder for the pprof protobuf format (profile.proto), which
// keeps the benchmark on the standard library. Only the fields needed
// to attribute samples to functions are decoded.

// profSample is one profile sample: its CPU time and its stack of
// function names, leaf first (inlined frames expanded).
type profSample struct {
	value int64
	stack []string
}

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type, and for
// length-delimited fields its payload.
func (p *pbReader) next() (field int, wire int, payload []byte, val uint64, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, 0, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, 0, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		n, err2 := p.varint()
		if err2 != nil {
			return 0, 0, nil, 0, err2
		}
		if uint64(len(p.b)) < n {
			return 0, 0, nil, 0, errTruncated
		}
		payload, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, 0, errTruncated
		}
		p.b = p.b[4:]
	default:
		return 0, 0, nil, 0, fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, payload, val, err
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, payload []byte, val uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile into samples valued by
// their last sample type (CPU nanoseconds for a Go CPU profile).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	top := pbReader{raw}
	for len(top.b) > 0 {
		field, _, payload, _, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			r := pbReader{payload}
			for len(r.b) > 0 {
				f, w, pl, v, err := r.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = appendInts(s.locs, w, pl, v)
				case 2:
					s.vals, err = appendInts(s.vals, w, pl, v)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := pbReader{payload}
			for len(r.b) > 0 {
				f, _, pl, v, err := r.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lr := pbReader{pl}
					for len(lr.b) > 0 {
						lf, _, _, lv, err := lr.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			r := pbReader{payload}
			for len(r.b) > 0 {
				f, _, _, v, err := r.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					name = strs[idx]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/frontend.(*FrontEnd).Step" or "runtime.memmove".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package to the benchmark's layer name, or "" for a
// package outside the named layers. program is part of the workload
// layer; ftq and ras are front-end structures only the front-end drives.
func layerOf(pkg string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		return ""
	}
	switch p := strings.TrimPrefix(pkg, prefix); p {
	case "program":
		return "workload"
	case "ftq", "ras":
		return "frontend"
	case "workload", "isa", "emu", "tage", "ittage", "btb", "cache", "core", "frontend", "cpu", "sim":
		return p
	}
	return ""
}

// copyFuncs are the runtime's bulk-copy routines, where large by-value
// struct copies land.
var copyFuncs = map[string]bool{
	"runtime.duffcopy":     true,
	"runtime.memmove":      true,
	"runtime.typedmemmove": true,
}

// gcRoots are runtime frames under which every sample is garbage
// collection work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.GC":             true,
}

// profileShares sums flat (leaf) samples per layer and returns each
// layer's share of all sampled CPU time, plus the runtime's copy and
// GC shares. GC work is classified by stack, ahead of its leaf.
func profileShares(samples []profSample) map[string]float64 {
	out := map[string]float64{"runtime.copy": 0, "runtime.gc": 0}
	for _, l := range layerNames {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		v := float64(s.value)
		total += v
		if len(s.stack) == 0 {
			continue
		}
		gc := false
		for _, fn := range s.stack {
			if gcRoots[fn] {
				gc = true
				break
			}
		}
		leaf := s.stack[0]
		switch {
		case gc:
			out["runtime.gc"] += v
		case copyFuncs[leaf]:
			out["runtime.copy"] += v
		default:
			if l := layerOf(funcPackage(leaf)); l != "" {
				out[l] += v
			}
		}
	}
	if total > 0 {
		for _, k := range sortedKeys(out) {
			out[k] /= total
		}
	}
	return out
}
