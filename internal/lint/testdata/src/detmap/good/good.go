// Package good holds detmap passing cases: every map-range exemption
// the analyzer grants without annotation, plus the directive escape.
package good

import "sort"

// diffRows is the fixed compare.diffReport shape: collect, sort, emit.
func diffRows(newRows map[string]int, seen map[string]bool) []string {
	var keys []string
	for key := range newRows {
		if !seen[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, "row "+k+" only in new results")
	}
	return out
}

// reset writes the ranged map at the range key: order-independent.
func reset(m map[string]int) {
	for k := range m {
		m[k] = 0
	}
}

// relabel writes another map at a key derived from the range key:
// distinct keys commute.
func relabel(src, dst map[string]int) {
	for k, v := range src {
		dst["x."+k] = v
	}
}

// clearAll deletes the range key from the ranged map.
func clearAll(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// evictOne is a memo-cache eviction pattern: arbitrary selection
// justified by a directive because it cannot reach simulation output.
func evictOne(m map[string]int) {
	//skia:detmap-ok arbitrary victim is result-identical here, order reaches throughput only
	for k := range m {
		delete(m, k)
		return
	}
}
