#!/usr/bin/env bash
# The known-red replays are checked. Runs the `#[ignore]`d open-finding
# replays of tests/crash_points.rs and fails unless the set of tests that
# fail is exactly the one in scripts/known_red.list (a replay that went green
# and turns red again fails, and so does a listed one that turns green), and
# unless each is red in the form its name claims: a replay whose violations
# no longer include its form (a client's lost commit, a tenant slot, the
# guarantee) panics "red without its form", and that fails the check. No
# `#[ignore]` changes: this only pins which of the ignored replays are red,
# and how.
#
# Usage: scripts/known_red.sh
set -euo pipefail
cd "$(dirname "$0")/.."

LIST=scripts/known_red.list
out=$(cargo test --release --test crash_points -- --ignored 2>&1) || true
if ! grep -q '^test result:' <<<"$out"; then
    echo "$out" >&2
    echo "known_red: FAIL  the ignored replays did not run" >&2
    exit 1
fi
red=$(sed -nE 's/^test ([A-Za-z0-9_:]+) \.\.\. FAILED$/\1/p' <<<"$out" | sort)
want=$(grep -vE '^[[:space:]]*(#|$)' "$LIST" | sort)
if [[ "$red" != "$want" ]]; then
    echo "known_red: FAIL  the red replays are not the ones $LIST names" >&2
    comm -13 <(echo "$want") <(echo "$red") | sed 's/^/  red now, not listed: /' >&2
    comm -23 <(echo "$want") <(echo "$red") | sed 's/^/  listed, green now:   /' >&2
    exit 1
fi
if grep -q 'red without its form' <<<"$out"; then
    echo "known_red: FAIL  a replay is red in a form its name does not claim:" >&2
    grep -B1 'red without its form' <<<"$out" | sed 's/^/  /' >&2
    exit 1
fi
echo "known_red: ok    exactly the $(wc -l <<<"$red") replays $LIST names are red, each in its form"
