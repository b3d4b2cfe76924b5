#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The build
# cache and the binary stay inside the checkout (.bench_build/), so a run
# reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
# Results are stamped with the commit when the checkout is a repository.
# The build itself does not ask git: a checkout inside someone else's
# repository would fail the build's own VCS query.
MCBENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export MCBENCH_COMMIT
(cd "$here" && go build -buildvcs=false -o "$build/mcbench" .)
cd "$root"
exec "$build/mcbench" "$@"
