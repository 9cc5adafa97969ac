#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload rack-micro --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind stays under $CARGO_TARGET_DIR (default .bench_build): the Go build
# cache, the binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

commit=unknown
if rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
fi

(
	cd "$root/perfbench"
	GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
		XDG_CONFIG_HOME=$out/config GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" --commit "$commit" --trace-dir "$out/traces" "$@"
