package obs

import (
	"runtime"
	"strconv"
	"sync"
)

// RegisterBuildInfo publishes the mcorr_build_info identity gauge on the
// process-wide registry: a constant 1 labeled with the binary's version,
// the Go runtime version, and the shard count — the number of networked
// shard workers, 1 when scoring stays in this process. Both binaries call
// it once at startup; calling it again replaces the previous child so
// exactly one series is exposed.
func RegisterBuildInfo(version string, shards int) {
	if version == "" {
		version = "dev"
	}
	vec := Default().GaugeVec("mcorr_build_info",
		"Build identity: constant 1 with version, Go runtime and shard count labels.",
		"version", "goversion", "shards")
	buildInfoMu.Lock()
	defer buildInfoMu.Unlock()
	if buildInfoLabels != nil {
		vec.Delete(buildInfoLabels...)
	}
	buildInfoLabels = []string{version, runtime.Version(), strconv.Itoa(shards)}
	vec.With(buildInfoLabels...).Set(1)
}

var (
	buildInfoMu     sync.Mutex
	buildInfoLabels []string
)
