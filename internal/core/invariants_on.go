//go:build skiainvariants

package core

import "fmt"

// invariantsEnabled reports that this build compiled in the cheap
// runtime assertions gated by the skiainvariants build tag. CI runs
// the test suite and a reduced figure sweep with the tag on; default
// builds compile the checks out entirely (the checker symbols are
// absent from the linked binary, see TestInvariantSymbolPresence).
const invariantsEnabled = true

// sbbCheckInvariants panics if the buffer's geometry or occupancy
// drifted from its configuration: every set must hold exactly the
// configured way count, and the valid-entry population can never
// exceed the configured capacity. Marked noinline so the tagged build
// carries a findable symbol proving the assertions are present.
//
//go:noinline
func sbbCheckInvariants(s *SBB) {
	valid := 0
	for i := range s.uSets {
		if len(s.uSets[i]) != s.cfg.UWays {
			panic(fmt.Sprintf("skiainvariants: U-SBB set %d has %d ways, configured %d", i, len(s.uSets[i]), s.cfg.UWays))
		}
		for j := range s.uSets[i] {
			if s.uSets[i][j].valid {
				valid++
			}
		}
	}
	if valid > s.cfg.UEntries {
		panic(fmt.Sprintf("skiainvariants: U-SBB holds %d valid entries, capacity %d", valid, s.cfg.UEntries))
	}
	valid = 0
	for i := range s.rSets {
		if len(s.rSets[i]) != s.cfg.RWays {
			panic(fmt.Sprintf("skiainvariants: R-SBB set %d has %d ways, configured %d", i, len(s.rSets[i]), s.cfg.RWays))
		}
		for j := range s.rSets[i] {
			if s.rSets[i][j].valid {
				valid++
			}
		}
	}
	if valid > s.cfg.REntries {
		panic(fmt.Sprintf("skiainvariants: R-SBB holds %d valid entries, capacity %d", valid, s.cfg.REntries))
	}
}
