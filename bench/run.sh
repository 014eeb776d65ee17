#!/usr/bin/env bash
# Builds tapsbench from the checkout this script sits in and runs it from
# the checkout's root. Everything the build writes (compiler cache, binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here/tapsbench"
	GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/tapsbench" .
)
cd "$root"
exec "$build/tapsbench" "$@"
