//go:build race

package manager

// chaosSteps under the race detector: a shorter run that still crosses
// several recovery events. See chaos_steps_test.go.
func chaosSteps() int { return 2_400 }
