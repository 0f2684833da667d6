//go:build skiainvariants

package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestInvariantFiresOnCorruptedSBB corrupts the buffer's geometry the
// way only a bug could (an extra way appended to a set) and asserts
// the tagged build's occupancy assertion trips on the next insert.
func TestInvariantFiresOnCorruptedSBB(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("tagged build must enable invariants")
	}
	s := tinySBB()
	s.uSets[0] = append(s.uSets[0], uWay{valid: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted U-SBB set geometry did not trip the invariant")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "skiainvariants") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	s.Insert(ShadowBranch{PC: 0x1000, Class: isa.ClassDirectUncond, Target: 0x2000, Len: 2}, false)
}
