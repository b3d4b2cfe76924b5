//go:build !race

package manager

// chaosSteps bounds TestIncrementalBitIdenticalUnderChaos. The plain test
// binary runs the full ≥10k-step property (the acceptance bar for the
// incremental scheduler); the race-instrumented build (see the _race
// variant) trims it, since every step costs ~10× under the detector and
// the interleaving coverage it adds doesn't need the full trace length.
func chaosSteps() int { return 10_100 }
