// Package testkit holds helpers for end-to-end tests that exercise the
// real command binaries: building them once per test process, generating
// deterministic datasets, and running (or killing) them while capturing
// their step-by-step output.
//
// The crash harness (RunKillAfterSteps) SIGKILLs a binary after a given
// number of STEP lines; StepMap and DiffStepMaps then compare the %.17g
// fitness trajectories of crashed-and-recovered runs against uninterrupted
// baselines bit for bit — the acceptance check for both the durable
// pipeline and the networked scoring fabric.
package testkit
