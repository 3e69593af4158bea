#!/usr/bin/env bash
# The design item's standing gates ("Draw the trusted boundary", ROADMAP):
# what the request path has lost must stay lost, and the part of the system a
# proof would have to cover only gets smaller.
#
# (a) One request path. A device implements a request once, in
#     `BlockDevice::exec`; `read`, `write`, `flush` and `write_buf` are
#     provided by the trait and derive from it. Fails if a non-test
#     `impl BlockDevice for` block defines one of the four again, or if the
#     ring's private request enum (`BlkReq`) or the IPC front door nobody
#     called (`crates/rapilog/src/service.rs`, `crates/microvisor/src/ipc.rs`)
#     reappear.
# (b) The budgets: the non-test lines of each `crates/<crate>/src` (each file
#     up to its first `#[cfg(test)]`) against that crate's line in
#     scripts/src_lines.budget (`<crate> <lines>`, one per crate). More lines,
#     or a crate with no line, fail. Fewer pass and say so; `--update` then
#     lowers the committed numbers (it never raises one).
# (c) One recovery pipeline, one checkpoint. Fails if `RecoveryMode`,
#     `fuzzy_checkpoints` or `flush_all` reappears in the non-test part of
#     any source file under `crates/`: recovery has one scan window and one
#     redo, a checkpoint one body, and no option brings a second back.
# (d) Bytes move by the run. Fails if `enum Held` (the dependable buffer's
#     one-entry-per-sector overlay) or a per-sector media map
#     (`FastMap<u64, Box<[u8; SECTOR_SIZE]>>`) reappears in the non-test part
#     of any source file under `crates/`: the buffer's dirty overlay is a
#     sector-ordered map of runs and the media store keeps 4 KiB chunks.
# (e) The buffer is the log's read cache. Fails if `reads_hold_disk`,
#     `stand_aside`, `defer_to_reads`, `read_defers` or `const KEPT`
#     reappears in the non-test part of any `crates/*/src` file: the drain
#     does not arbitrate the log disk (no rule that stands it aside for
#     guest reads, no span or counter of one), and the kept room is the
#     buffer's idle room, not a constant.
# (f) One explorer. Fails if `explore_crash_points`, `replay_crash_point`,
#     `explore_failovers`, `FailoverCounterexample`,
#     `explore_crash_points_parallel` or `explore_failovers_parallel`
#     reappears in the non-test part of any `crates/*/src` file: every trial
#     kind is a `faultsim::Trial` swept by `faultsim::explore`, which owns the
#     grid walk, the thread fan-out and the replay.
# (g) No public function that only tests call. One pass over the non-test
#     part of `crates/*/src` (bins included), `src/`, `examples/` and
#     `benchmark/src` lists every `pub fn` defined in the non-test part of
#     `crates/*/src` whose name no file but its own uses. Only call-shaped
#     uses count: `name(`, `.name(`, `name::<`, a path `::name`, and an item
#     of a `use` list. A field access `x.name`, a `name:` key (a field, a
#     struct-literal key) or a local of the same name is no use, and neither
#     are comments, string literals, `pub use` re-exports or a function's
#     own definition. A hit fails unless scripts/pub_census.allow names it
#     (`<file>:<fn>  <reason>`); so does a line there whose function is no
#     longer defined or has a caller now.
# (h) The disk is write-through. Fails if `CacheSpec`, `writeback_loop` or
#     `cache_write_hits` reappears in the non-test part of any
#     `crates/*/src` file: the volatile write cache RapiLog makes
#     unnecessary is not modelled, so no option turns one on.
# (i) One figures binary. The paper's figures are the functions of
#     `crates/bench/src/bin/figures.rs`, which runs every cell through one
#     `run_parallel` batch and checks claim 3 on every virt-sync/RapiLog
#     pair. Fails if another file under `crates/bench/src/bin/` names
#     `run_perf` (a figure outside the batch and the check), or if one of
#     the thirteen per-figure binaries it replaced reappears by name.
#
# Usage:
#   scripts/design_gate.sh            # check
#   scripts/design_gate.sh --update   # check, then lower each budget to today's count
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=scripts/src_lines.budget
fail=0

# Prints a file's non-test part: everything before its first #[cfg(test)].
non_test() { awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

# ---- (a) one request path -------------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | awk '
        /^impl.* BlockDevice for / { inside = 1 }
        inside && /^}/             { inside = 0 }
        inside && /^[[:space:]]*fn (read|write|flush|write_buf)[<(]/ { print FNR ": " $0 }
    ')
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f implements a derived method itself (handle the request in exec):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

if grep -rn --include='*.rs' -w 'BlkReq' crates >&2; then
    echo "design_gate: FAIL  BlkReq is back: the ring carries an IoReq" >&2
    fail=1
fi
for gone in crates/rapilog/src/service.rs crates/microvisor/src/ipc.rs; do
    if [[ -e "$gone" ]]; then
        echo "design_gate: FAIL  $gone is back: a tenant's capability is the device device_for hands it" >&2
        fail=1
    fi
done

# ---- (b) the line budgets -------------------------------------------------
budgets=""
lowered=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    now=0
    while IFS= read -r f; do
        now=$((now + $(non_test "$f" | wc -l)))
    done < <(find "${dir}src" -name '*.rs' | sort)
    budget=$(awk -v c="$crate" '$1 == c { print $2 }' "$BUDGET")
    if [[ -z "$budget" ]]; then
        echo "design_gate: FAIL  crates/$crate/src ($now non-test lines) has no line in $BUDGET" >&2
        fail=1
        continue
    fi
    if ((now > budget)); then
        echo "design_gate: FAIL  crates/$crate/src is $now non-test lines, budget $budget ($BUDGET only goes down)" >&2
        fail=1
    elif ((now < budget)); then
        if [[ "${1:-}" == "--update" ]]; then
            echo "design_gate: budget of $crate lowered $budget -> $now (commit $BUDGET)"
            budget=$now
            lowered=1
        else
            echo "design_gate: crates/$crate/src is $now non-test lines, under its budget of $budget: lower it with --update"
        fi
    fi
    budgets+="$crate $budget"$'\n'
done
if ((lowered && !fail)); then
    printf '%s' "$budgets" >"$BUDGET"
fi

# ---- (c) one recovery pipeline, one checkpoint -----------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'RecoveryMode|fuzzy_checkpoints|flush_all' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f names a deleted recovery mode or checkpoint style:" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (d) bytes move by the run ---------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nE 'enum Held\b|FastMap<u64, *Box<\[u8; *SECTOR_SIZE\]>>' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f keeps bytes a sector at a time again (one map entry per 512-byte sector):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (e) the buffer is the log's read cache ---------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nE '\b(reads_hold_disk|stand_aside|defer_to_reads|read_defers)\b|const KEPT\b' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f arbitrates the log disk or bounds the kept set again:" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (f) one explorer --------------------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'explore_crash_points|replay_crash_point|explore_failovers|FailoverCounterexample|explore_crash_points_parallel|explore_failovers_parallel' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f names a deleted per-kind explorer (a trial kind is a faultsim::Trial, swept by faultsim::explore):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (g) no public function that only tests call -----------------------------
ALLOW=scripts/pub_census.allow
defs=$(find crates -path '*/src/*' -name '*.rs' | sort)
if ! awk -v defs="$defs" -v allow="$ALLOW" '
    BEGIN {
        n = split(defs, d, "\n")
        for (i = 1; i <= n; i++) is_def[d[i]] = 1
        while ((getline line < allow) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            split(line, f, /[[:space:]]+/)
            allowed[f[1]] = 1
        }
    }
    FNR == 1 { live = 1; reexport = 0; in_use = 0 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live { next }
    /^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+use[[:space:]]/ { reexport = 1 }
    reexport { if (index($0, ";")) reexport = 0; next }
    /^[[:space:]]*use[[:space:]]/ { in_use = 1 }
    {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, " ", line)
        sub(/\/\/.*/, "", line)
        if (is_def[FILENAME] && match(line, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*fn[[:space:]]+/, "", name)
            key = FILENAME ":" name
            if (!(key in at)) at[key] = FILENAME ":" FNR
            fn_name[key] = name
            fn_file[key] = FILENAME
        }
        gsub(/fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, " ", line)
        if (in_use) {
            # An item of a `use` list names what the file calls.
            if (index(line, ";")) in_use = 0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
        } else {
            # Elsewhere only call-shaped uses count: `name(`, `.name(`,
            # `name::<` and a path `::name`. A field (`x.name`), a key
            # (`name:`) or a local of the same name hides no function.
            rest = line
            line = ""
            while (match(rest, /(::[[:space:]]*)?[A-Za-z_][A-Za-z0-9_]*/)) {
                tok = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                if (sub(/^::[[:space:]]*/, "", tok) || rest ~ /^[[:space:]]*(\(|::<)/) line = line " " tok
            }
        }
        nt = split(line, t, " ")
        for (j = 1; j <= nt; j++) {
            if (!((t[j], FILENAME) in used)) { used[t[j], FILENAME] = 1; files[t[j]]++ }
        }
    }
    END {
        bad = 0
        for (key in at) {
            name = fn_name[key]
            hit = files[name] - ((name, fn_file[key]) in used) == 0
            if (hit && !(key in allowed)) {
                printf "design_gate: FAIL  %s: pub fn %s has no non-test caller outside its file (delete it, drop its pub, or give %s a line saying why a test needs it)\n", at[key], name, allow
                bad = 1
            } else if (!hit && (key in allowed)) {
                printf "design_gate: FAIL  %s names %s, which has a non-test caller now: drop the line\n", allow, key
                bad = 1
            }
        }
        for (key in allowed) {
            if (!(key in at)) {
                printf "design_gate: FAIL  %s names %s, which is no longer defined: drop the line\n", allow, key
                bad = 1
            }
        }
        exit bad
    }' $defs $(find src examples benchmark/src -name '*.rs' | sort) >&2; then
    fail=1
fi

# ---- (h) the disk is write-through -------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'CacheSpec|writeback_loop|cache_write_hits' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f models a volatile disk write cache again (the disk is write-through):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (i) one figures binary -------------------------------------------------
while IFS= read -r f; do
    hits=$(grep -nw 'run_perf' "$f" || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f runs run_perf outside figures.rs (a figure is a function of figures.rs, checked for claim 3):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/bench/src/bin -name '*.rs' ! -path crates/bench/src/bin/figures.rs | sort)
for gone in fig2_commit_latency fig3_virt_overhead fig4_tpcc_hdd fig5_tpcc_ssd fig6_engines \
    fig7_tpcb fig8_occupancy table1_residual table3_groupcommit abl_buffer_sweep \
    abl_disk_sweep abl_ckpt_sweep fig_latency_breakdown; do
    if [[ -n "$(find crates/bench/src/bin -name "$gone" -o -name "$gone.rs")" ]]; then
        echo "design_gate: FAIL  crates/bench/src/bin/$gone is back: it is \`figures $gone\`" >&2
        fail=1
    fi
done

if ((fail)); then
    exit 1
fi
echo "design_gate: ok    every crate within its budget in $BUDGET"
echo "design_gate: ok    one request path (no derived method re-implemented, no BlkReq, no service.rs/ipc.rs)"
echo "design_gate: ok    one recovery pipeline, one checkpoint (no RecoveryMode, fuzzy_checkpoints or flush_all)"
echo "design_gate: ok    bytes move by the run (no enum Held, no per-sector FastMap<u64, Box<[u8; SECTOR_SIZE]>>)"
echo "design_gate: ok    the buffer is the log's read cache (no reads_hold_disk, stand_aside, defer_to_reads, read_defers or const KEPT)"
echo "design_gate: ok    one explorer (no explore_crash_points, replay_crash_point, explore_failovers, FailoverCounterexample or their _parallel wrappers)"
echo "design_gate: ok    no public function that only tests call (every other hit is in $ALLOW, and every line there is still one)"
echo "design_gate: ok    the disk is write-through (no CacheSpec, writeback_loop or cache_write_hits)"
echo "design_gate: ok    one figures binary (no other bin runs run_perf, none of the thirteen per-figure bins is back)"
