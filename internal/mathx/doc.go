// Package mathx provides the hand-rolled numerical routines the rest of the
// project builds on: vector and dense-matrix operations, linear system
// solving, ordinary least squares, descriptive statistics, online moments,
// quantiles, and a two-dimensional Gaussian mixture fitted by expectation
// maximization.
//
// The project is restricted to the standard library, so everything here is
// implemented from first principles. The routines favour clarity and
// numerical robustness (partial pivoting, Welford accumulation, log-space
// likelihoods) over raw speed; the sizes involved in correlation modeling
// (2-D points, grids of at most a few hundred cells) are small.
//
// Online (Welford) accumulators expose their internal state for exact
// persistence: State/Restore round-trips reproduce the running mean and
// variance bit for bit, which the checkpointing layers rely on.
package mathx
