#!/usr/bin/env bash
# Paper-scale realization check: lsmgen -stream at scale 1 over 28 days
# (691,889 clients, 2.47M transfers) must write daily logs whose
# concatenation, in date order, hashes to the committed digest — once
# on a single serve lane and once at the default lane count, so the
# parallel serve path is held to the sequential realization.
set -euo pipefail

BIN=${BIN:-bin}
WANT=f1d985ae01a858ab51e4e5d16a0f446d
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

status=0
for lanes in 1 default; do
    args=()
    if [ "$lanes" != default ]; then
        args=(-serve-lanes "$lanes")
    fi
    rm -rf "$DIR/logs"
    "$BIN"/lsmgen -out "$DIR/logs" -stream -scale 1 -days 28 -seed 1 "${args[@]}"
    got=$(cat "$DIR"/logs/* | md5sum | cut -d' ' -f1)
    if [ "$got" = "$WANT" ]; then
        echo "serve lanes $lanes: md5 $got PASS"
    else
        echo "serve lanes $lanes: md5 $got, want $WANT FAIL" >&2
        status=1
    fi
done
exit $status
