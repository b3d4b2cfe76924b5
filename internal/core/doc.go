// Package core implements the paper's contribution: a grid-based transition
// probability model for the pairwise correlation of two system measurements.
//
// The two-dimensional measurement space is partitioned into a Grid of
// rectangular cells adapted to the data density (a MAFIA-style merge of
// fine-grained units, §4.1 of the paper). A TransitionMatrix over the cells
// models P(c_i → c_j) with a spatial-closeness prior updated by Bayesian
// multiplicative (log-additive) updates on every observed transition
// (§4.2). A Model ties the two together and produces, for every new
// observation, the transition probability and the rank-based fitness score
// Q = 1 − (π(c_h) − 1)/s used for problem determination (§5).
//
// The matrix stores a row only for a cell a transition has been observed
// out of — about 30 % of them for a correlated pair — and reproduces every
// other row on demand, bit for bit, by replaying the prior through the
// grid's growth history; Model.Save writes the stored rows and that
// history, nothing else (see TransitionMatrix).
//
// Model.Step is deterministic: the same training history and observation
// sequence always produces bit-identical fitness values, which is what the
// crash-recovery and sharding layers build their exactness guarantees on.
// TimeConditioned extends the model with one transition matrix per
// time-of-day bucket over a shared grid.
package core
