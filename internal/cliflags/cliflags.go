// Package cliflags declares, once, the two flag families mcdetect and
// mccollect both take: streaming discovery (-pair-budget, -discover-*) and
// durability (-data-dir, -fsync, -checkpoint-every). Each function
// registers its family and returns the value the binaries branch on plus
// the resolver into the library's config; what differs between the
// binaries — a default, the wording of a help line — is an argument. Flags
// whose meaning differs (-tenant, -incident, -pace) stay in the binaries.
package cliflags

import (
	"flag"

	"mcorr"
)

// Discovery registers the discovery family on fs; whose graph -pair-budget
// bounds ("the", "each tenant's") completes its help line. It returns the
// raw -pair-budget value — empty means discovery is off — and the family
// resolved against a fleet of l measurements.
func Discovery(fs *flag.FlagSet, whose string) (*string, func(l int) (mcorr.DiscoveryConfig, error)) {
	var (
		pairBudget = fs.String("pair-budget", "", "bound "+whose+" modeled pair graph and enable streaming discovery: \"full\", \"N%\" of l(l-1)/2, or an absolute pair count (empty = full graph, discovery off)")
		topK       = fs.Int("discover-top-k", 8, "discovery: admission prefers up to this many pairs per measurement")
		evict      = fs.Float64("discover-evict-below", 0.15, "discovery: evict an admitted pair whose |correlation| stays below this across rounds")
		round      = fs.Int("discover-round", 120, "discovery: rows per probe round (graph changes apply at round boundaries)")
		lags       = fs.Int("discover-lags", 4, "discovery: scan correlation lags in [-L, L] sample steps (0 = lag 0 only)")
	)
	return pairBudget, func(l int) (mcorr.DiscoveryConfig, error) {
		budget, err := mcorr.ParsePairBudget(*pairBudget, l)
		if err != nil {
			return mcorr.DiscoveryConfig{}, err
		}
		cfg := mcorr.DiscoveryConfig{Budget: budget, TopK: *topK, EvictBelow: *evict, RoundRows: *round, Lags: *lags}
		if cfg.Lags <= 0 {
			cfg.Lags = -1 // discover.Config treats 0 as "default"; negative means lag 0 only
		}
		return cfg, nil
	}
}

// Durability registers the durability family on fs with the binary's help
// lines for -data-dir and -checkpoint-every and its default cadence. It
// returns the raw -data-dir value — empty means in memory — and the family
// resolved for a pipeline kept in dir. A bad -fsync is reported with the
// rest of the config filled in, for the modes that never open a WAL.
func Durability(fs *flag.FlagSet, dataDirHelp string, every int, everyHelp string) (*string, func(dir string) (mcorr.DurabilityConfig, error)) {
	var (
		dataDir   = fs.String("data-dir", "", dataDirHelp)
		ckptEvery = fs.Int("checkpoint-every", every, everyHelp)
		fsync     = fs.String("fsync", "batch", "durable mode: WAL fsync policy (always, batch, none)")
	)
	return dataDir, func(dir string) (mcorr.DurabilityConfig, error) {
		policy, err := mcorr.ParseSyncPolicy(*fsync)
		return mcorr.DurabilityConfig{DataDir: dir, CheckpointEvery: *ckptEvery, Fsync: policy}, err
	}
}
