#!/usr/bin/env bash
# Usage: .github/trace.sh NAME ARGS...
# Runs `tg trace ARGS... --out NAME.json` with the release binary and writes
# NAME.wire: the run's wire fingerprint, the `wire:` line tg trace prints on
# stderr. The rest of stderr is passed through. Exits nonzero if tg does.
set -euo pipefail
name=$1
shift
./target/release/tg trace "$@" --out "$name.json" 2> "$name.err" || {
    cat "$name.err" >&2
    exit 1
}
cat "$name.err" >&2
grep '^wire:' "$name.err" > "$name.wire"
