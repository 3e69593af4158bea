#!/usr/bin/env bash
# The design item's standing gates ("Draw the trusted boundary", ROADMAP):
# what the request path has lost must stay lost, and the part of the system a
# proof would have to cover only gets smaller.
#
# (a) One request path. A device implements a request once, in
#     `BlockDevice::exec`; `read`, `write`, `flush` and `write_buf` are
#     provided by the trait and derive from it, and a queued request is
#     claimed by the provided `wait` on its token (check (t)). Fails if a
#     non-test `impl BlockDevice for` block defines one of those five
#     again (a `wait` of its own would be a second completion path); if a
#     non-test `impl Disk` block has a `pub fn read`, `write`,
#     `write_segments` or `flush` (the disk's one public request entry is
#     `exec`, which carries a read or a write through one media operation);
#     if `fn completions` or `struct Completion` (a second way to claim a
#     token, which stole results from `wait`) reappears in the non-test part
#     of a `crates/*/src` file; or if the ring's private request enum
#     (`BlkReq`) or the IPC front door nobody called
#     (`crates/rapilog/src/service.rs`, `crates/microvisor/src/ipc.rs`)
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
#     `crates/bench/src/bin/figures/`, which runs every cell through one
#     `run_parallel` batch and checks claim 3 on every virt-sync/RapiLog
#     pair. Fails if a file under `crates/bench/src/bin/` outside it names
#     `run_perf` (a figure outside the batch and the check), or if one of
#     the thirteen per-figure binaries it replaced reappears by name.
# (j) No config field that only its default sets. Every `pub` field of a
#     `pub struct` named `*Config`, `*Spec`, `*Policy`, `*Profile` or
#     `*Faults` in the non-test part of `crates/*/src` must be written by
#     some non-test code (the same files as (g)). A write is a key of a
#     struct literal of that type (`Self {` in its impl), shorthand
#     included, or an assignment `x.a.b = v` (or `+=` and the like), which
#     writes every field on the path. The path's type comes from `self`, a
#     `let x = Config::..`, `let x: Config` or parameter `x: Config`, or the
#     field that holds it; a value of unknown type writes the field in every
#     config struct that has one of that name, so a collision hides a hit
#     and never invents one. In the struct's own file a write counts only
#     if its value names a parameter of an enclosing fn (a builder method,
#     an argument-taking constructor); a fixed value there is a default or
#     a preset. A field its own file sets to two or more different fixed
#     values is a choice among presets (`EngineProfile`'s costs,
#     `DiskSpec::timing`, `ExplorerConfig::tenants`) and passes. A hit fails unless scripts/pub_census.allow
#     names it (`<file>:<struct>::<field>  <reason>`); so does a line there
#     whose field is gone or is written now.
# (k) Log shipping is one stream. Fails if `ReplTenantStatus`,
#     `StandbyTenantStatus`, `TenantApply`, `record_replicated` or
#     `replicated_seq` reappears in the non-test part of any `crates/*/src`
#     file: a replicated instance has one tenant, a frame carries one
#     admitted extent and an ack one sequence number, so no report, apply
#     loop or audit section keeps a per-tenant replication row.
# (l) The key index is per table. Fails if a `BTreeMap<(TableId, Key)`
#     reappears in the non-test part of any `crates/dbengine/src` file: each
#     table keeps its own ordered map from key to a u32 slot in its region,
#     so no global map spends a table id and a page address on every row.
# (m) Recovery keeps the log bytes. Fails if `Vec<(Lsn, Record)>` or
#     `FastMap<Lsn, &Record>` reappears in the non-test part of
#     `crates/dbengine/src/recovery.rs`: the scan keeps the bytes it read and
#     runs analysis as it validates each frame, redo chains hold LSNs, and
#     redo and undo decode a record from the bytes when they need it, so no
#     decoded copy of the scanned log (a heap allocation per row image) or
#     LSN index over one is held beside them.
# (n) The key index packs rows into full sorted leaves. Fails if a
#     `BTreeMap<Key, u32>` reappears in the non-test part of any
#     `crates/dbengine/src` file: each table's index is the engine's own
#     ordered map of leaves, two parallel sorted arrays of keys and slots
#     each, so no std B-tree node half empty under appends spends twice the
#     12 bytes a row needs.
# (o) The bench crate is one binary. Fails if `crates/bench/src/bin/` holds
#     anything but `figures` (its directory, or one `figures.rs`), if
#     `crates/bench/src/main.rs` exists, or if `crates/bench/Cargo.toml`
#     declares a `[[bin]]`: a gate or ablation is an entry of the `FIGURES`
#     table, run as `figures <name>`, with its dispatcher, row writer and
#     exit rule, so none of the eight mains that became entries
#     (`crashpoint_sweep` ... `fig_tenant_fairness`) comes back as a binary.
# (p) One audited guest writer. Fails if `slot_payload`, `tenant_fill`,
#     `SLOTS_PER_CLIENT`, `TENANT_SLOT_COUNT` or `struct Load` reappears in
#     the non-test part of any `crates/faultsim/src` file: the crash trial's
#     co-tenants and the failover trials' clients are one writer
#     (`faultsim::guest`) with one journal and one media audit, so neither
#     trial grows its own sector writer, payload or slot layout again.
# (q) The superblock lives in the catalog page. Fails if the non-test part
#     of any `crates/dbengine/src` file calls `Superblock::read` or names
#     `log_dev` in a `.write(` call, or if `RecoverySweep` in
#     `crates/faultsim/src/scenario.rs` declares a `superblock` field: the
#     superblock is the last sector of the data device's catalog page, read
#     with the catalog and written there by each checkpoint, so recovery
#     asks the log device for the log alone and no sweep has a superblock
#     read to report.
# (r) The power budget is one rule in time. Fails if `max_buffer_bytes`,
#     `aggregate_fits` or `DRAIN_STARTUP` reappears in the non-test part of
#     any file under `crates/*/src`, `src/` or `examples/`: with a supply,
#     the dependable buffer admits while the emergency drain of what the
#     instance holds — its bytes at sequential bandwidth plus one
#     positioning per dirty region and one for the operation in flight —
#     fits the window, through
#     `simpower::budget::drainable_bytes`, so no byte cap, build-time
#     aggregate check or fixed startup charge stands beside that rule.
# (s) The trusted path keeps only what runs. Fails if `window_widens`,
#     `window_narrows`, parked permits (`Vec<SemPermit>`, a `parked:`
#     field), a tenant weight (a `weight:` field, `fn weight(`, `.weight`),
#     `has_sections` or a separate `fn record_commit(` reappears in the
#     non-test part of any `crates/*/src` file: the drain window is fixed
#     when the instance is built, tenants share the cap and the drain's
#     quantum evenly, and every instance, one tenant or many, audits
#     through one section per shard.
# (t) A request's result comes back through its task's JoinHandle. Fails if
#     `IoQueue`, `fn discard`, `fn oneshot`, `OnceSender` or `fn bounded`
#     reappears in the non-test part of any `crates/*/src` file, or `fn
#     abandon` in crates/dbengine/src/wal.rs: a submitted request (its
#     `ReqToken` owns the task), a virtio ring request and a session's job
#     each run in a task of their own and answer through its handle, so no
#     token mailbox, discard, reply channel or bounded channel stands beside
#     it, and a log reader gives its read-ahead up by being dropped.
# (u) The drain learns nothing. Fails if `LATENCY_BUDGET`, `fn retarget`,
#     `take_stalled`, `grow_ref_bps`, `regime_start_ns` or `ewma_run_bps`
#     reappears in the non-test part of any `crates/rapilog/src` file: the
#     pop target is `max_batch` and the adaptive run bound is one closed
#     form of the disk spec (`drain::run_bound_of`), fixed when the instance
#     is built, so no batch-size walk, latency budget, stall signal or
#     bandwidth estimate stands beside it.
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
        inside && /^[[:space:]]*fn (read|write|flush|write_buf|wait)[<(]/ { print FNR ": " $0 }
    ')
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f implements a provided method itself (handle the request in exec, claim it with the provided wait):" >&2
        echo "$hits" >&2
        fail=1
    fi
    hits=$(non_test "$f" | awk '
        /^impl Disk / { inside = 1 }
        inside && /^}/ { inside = 0 }
        inside && /^[[:space:]]*pub (async )?fn (read|write|write_segments|flush)[<(]/ { print FNR ": " $0 }
    ')
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f gives Disk a second front door (its one public request entry is exec):" >&2
        echo "$hits" >&2
        fail=1
    fi
    hits=$(non_test "$f" | grep -nE '\bfn completions\b|\bstruct Completion\b' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f claims tokens a second way (a queued request is claimed by wait on its token):" >&2
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
            if (!index(f[1], "::")) allowed[f[1]] = 1
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
done < <(find crates/bench/src/bin -name '*.rs' ! -path crates/bench/src/bin/figures.rs ! -path 'crates/bench/src/bin/figures/*' | sort)
for gone in fig2_commit_latency fig3_virt_overhead fig4_tpcc_hdd fig5_tpcc_ssd fig6_engines \
    fig7_tpcb fig8_occupancy table1_residual table3_groupcommit abl_buffer_sweep \
    abl_disk_sweep abl_ckpt_sweep fig_latency_breakdown; do
    if [[ -n "$(find crates/bench/src/bin -name "$gone" -o -name "$gone.rs")" ]]; then
        echo "design_gate: FAIL  crates/bench/src/bin/$gone is back: it is \`figures $gone\`" >&2
        fail=1
    fi
done

# ---- (j) no config field that only its default sets --------------------------
# The pub fields of every *Config / *Spec / *Policy / *Profile / *Faults
# struct: `<file>:<line> <struct> <field> <type>`.
fields=$(for f in $defs; do non_test "$f" | awk -v file="$f" '
    /^pub struct [A-Za-z0-9_]*(Config|Spec|Policy|Profile|Faults) \{/ { s = $3; next }
    s && /^}/ { s = ""; next }
    s && /^    pub [a-z_][a-z0-9_]*: / {
        ty = $0
        sub(/^    pub [a-z_0-9]*: /, "", ty)
        print file ":" FNR, s, substr($2, 1, length($2) - 1), ty
    }'; done)
if ! awk -v fields="$fields" -v allow="$ALLOW" '
    # Splits a line into `tok[1..n]`. A string or char literal is one
    # placeholder token and a comment none; `in_str` carries a string on
    # to the next line.
    function lex(s,    n) {
        n = 0
        delete tok
        while (s != "") {
            if (in_str) {
                if (!match(s, /^([^"\\]|\\.)*"/)) break
                s = substr(s, RLENGTH + 1)
                in_str = 0
                tok[++n] = "\"\""
                continue
            }
            if (match(s, /^[[:space:]]+/)) { s = substr(s, RLENGTH + 1); continue }
            if (substr(s, 1, 2) == "//") break
            if (substr(s, 1, 1) == "\"") { in_str = 1; s = substr(s, 2); continue }
            if (match(s, /^\x27(\\.|[^\x27\\])\x27/)) { s = substr(s, RLENGTH + 1); tok[++n] = "\x27c\x27"; continue }
            if (!match(s, /^([A-Za-z_][A-Za-z0-9_]*|[0-9][A-Za-z0-9_]*(\.[0-9][A-Za-z0-9_]*)?|::|\.\.=?|->|=>|==|!=|<=|>=|&&|\|\||<<=|>>=|[-+*\/%|&^]=)/)) {
                RSTART = 1
                RLENGTH = 1
            }
            tok[++n] = substr(s, 1, RLENGTH)
            s = substr(s, RLENGTH + 1)
        }
        return n
    }
    function ident(t) { return t ~ /^[A-Za-z_][A-Za-z0-9_]*$/ }
    # The config struct a type or path starting at `tok[i]` names; "-" if
    # it names another type, "" if it names none.
    function cfg_at(i,    ty) {
        ty = ""
        for (; ident(tok[i]) || tok[i] ~ /^(::|&|<|\x27)$/; i++) {
            if (tok[i] in is_cfg) return tok[i]
            if (ty == "" && tok[i] ~ /^[A-Z]/) ty = "-"
        }
        return ty
    }
    # `val` is written to `st`.`fl`. In the struct`s own file a fixed value
    # is a default or a preset: only a value a caller passes in (one that
    # names a parameter of an enclosing fn) writes the field there.
    # Anywhere else every write does. Only a write `sure` of its struct
    # counts as a preset.
    function note(st, fl, val, sure,    k, nv, v, i, lv) {
        k = st "::" fl
        if (!(k in decl)) return
        if (FILENAME != home[st]) { written[k] = 1; return }
        nv = split(val, v, " ")
        for (i = 1; i <= nv; i++) for (lv = 1; lv <= fdepth; lv++) if ((v[i], lv) in param) { written[k] = 1; return }
        if (sure && !((k, val) in seen)) { seen[k, val] = 1; values[k]++ }
    }
    # An assignment through the path `seg[1]. ... .seg[n] = val` on a value
    # of config type `ty` writes every field on the path. From a value of
    # unknown type, the path starts at the first segment some config
    # struct has a field of, in each struct that has one.
    function walk(ty, seg, n, val, sure,    i, c, nc, j) {
        if (ty == "") {
            for (i = 1; i <= n && owners[seg[i]] == ""; i++) continue
            nc = split(owners[seg[i]], c, " ")
            for (j = 1; j <= nc; j++) walk(c[j], seg, n, val, 0)
            return
        }
        for (i = 1; i <= n && !((ty, seg[i]) in has); i++) continue
        for (; i <= n && ((ty, seg[i]) in has); i++) {
            note(ty, seg[i], val, sure)
            ty = field_cfg[ty, seg[i]]
            if (ty == "") return
        }
    }
    BEGIN {
        nf = split(fields, L, "\n")
        for (i = 1; i <= nf; i++) {
            split(L[i], p, " ")
            file = p[1]
            sub(/:[0-9]+$/, "", file)
            decl[p[2] "::" p[3]] = p[1]
            key[p[2] "::" p[3]] = file ":" p[2] "::" p[3]
            home[p[2]] = file
            is_cfg[p[2]] = 1
            has[p[2], p[3]] = 1
            owners[p[3]] = owners[p[3]] " " p[2]
        }
        # The config struct each field holds, if it holds one.
        for (i = 1; i <= nf; i++) {
            split(L[i], p, " ")
            ty = L[i]
            sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", ty)
            nw = split(ty, w, /[^A-Za-z0-9_]+/)
            for (j = 1; j <= nw; j++) if (w[j] in is_cfg) { field_cfg[p[2], p[3]] = w[j]; break }
        }
        while ((getline line < allow) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            split(line, f, /[[:space:]]+/)
            if (index(f[1], "::")) allowed[f[1]] = 1
        }
    }
    FNR == 1 { live = 1; in_str = 0; depth = 0; k = 0; fdepth = 0; sig = 0; impl_ty = ""; prev = ""; prev2 = ""; let_var = ""; delete var_ty }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live { next }
    /^impl[<[:space:]]/ {
        impl_ty = $0
        sub(/[[:space:]]*\{.*/, "", impl_ty)
        sub(/.* for /, "", impl_ty)
        sub(/^impl(<[^>]*>)?[[:space:]]+/, "", impl_ty)
        sub(/<.*/, "", impl_ty)
        sub(/.*::/, "", impl_ty)
    }
    /^}/ { impl_ty = "" }
    {
        n = lex($0)
        if (let_var != "") { var_ty[let_var] = cfg_at(1); let_var = "" }
        for (i = 1; i <= n; i++) {
            t = tok[i]
            # A fn: the names before a `:` in its parameter list are its
            # parameters until its body closes.
            if (t == "fn" && ident(tok[i + 1])) { sig = 1; sigd = depth; np = 0 }
            if (sig && depth == sigd + 1 && ident(t) && t != "self" && tok[i + 1] == ":") {
                fparam[++np] = t
                var_ty[t] = cfg_at(i + 2)
            }
            if (sig && depth == sigd && t == ";") sig = 0
            if (sig && depth == sigd && t == "{") {
                sig = 0
                fdepth++
                fstart[fdepth] = depth
                pnames[fdepth] = ""
                for (j = 1; j <= np; j++) { param[fparam[j], fdepth] = 1; pnames[fdepth] = pnames[fdepth] " " fparam[j] }
            }
            # `let x = Config::...` or `let x: Config` types `x`, also with
            # the type on the next line.
            if (t == "let") {
                j = i + 1 + (tok[i + 1] == "mut")
                if (ident(tok[j]) && (tok[j + 1] == ":" || tok[j + 1] == "=")) {
                    var_ty[tok[j]] = cfg_at(j + 2)
                    if (j + 1 == n) let_var = tok[j]
                }
            }
            if (t == "{" || t == "(" || t == "[") {
                # A struct literal of a config struct.
                if (t == "{" && ((prev in is_cfg) || (prev == "Self" && (impl_ty in is_cfg))) && prev2 !~ /^(struct|impl|for|enum|->|trait|dyn)$/) {
                    lit[++k] = prev == "Self" ? impl_ty : prev
                    litd[k] = depth
                    vkey[k] = ""
                }
                for (j = 1; j <= k; j++) if (vkey[j] != "") vtext[j] = vtext[j] " " t
                depth++
            } else if (t == "}" || t == ")" || t == "]") {
                depth--
                if (t == "}" && k > 0 && depth == litd[k]) {
                    if (vkey[k] != "") note(lit[k], vkey[k], vtext[k], 1)
                    k--
                }
                if (t == "}" && fdepth > 0 && depth == fstart[fdepth]) {
                    nn = split(pnames[fdepth], pn, " ")
                    for (j = 1; j <= nn; j++) delete param[pn[j], fdepth]
                    if (--fdepth == 0) delete var_ty
                }
                for (j = 1; j <= k; j++) if (vkey[j] != "") vtext[j] = vtext[j] " " t
            } else if (k > 0 && depth == litd[k] + 1 && vkey[k] == "" && ident(t) && (prev == "{" || prev == ",")) {
                # A key of the literal: `fl: value`, or the shorthand `fl`.
                if (tok[i + 1] == ":") { vkey[k] = t; vtext[k] = ""; i++; t = ":" }
                else if (tok[i + 1] == "," || tok[i + 1] == "}") note(lit[k], t, t, 1)
            } else {
                for (j = 1; j <= k; j++) {
                    if (vkey[j] == "") continue
                    if (t == "," && depth == litd[j] + 1) { note(lit[j], vkey[j], vtext[j], 1); vkey[j] = "" }
                    else vtext[j] = vtext[j] " " t
                }
            }
            # An assignment `x.a.b = value` (or `+=` and the like).
            if (t == "." && ident(tok[i + 1]) && tok[i + 2] ~ /^([-+*\/%|&^]|<<|>>)?=$/) {
                ns = 1
                seg[1] = tok[i + 1]
                for (j = i - 1; ident(tok[j]) && tok[j - 1] == "."; j -= 2) {
                    for (m = ns; m >= 1; m--) seg[m + 1] = seg[m]
                    seg[1] = tok[j]
                    ns++
                }
                ty = tok[j] == "self" ? ((impl_ty in is_cfg) ? impl_ty : "-") : ident(tok[j]) ? var_ty[tok[j]] : ""
                val = ""
                for (m = i + 3; m <= n && tok[m] != ";"; m++) val = val " " tok[m]
                # On a value of another type, the first segment is that
                # type`s own field.
                if (ty == "-") {
                    for (m = 1; m < ns; m++) seg[m] = seg[m + 1]
                    ns--
                    ty = ""
                }
                if (ns > 0) walk(ty, seg, ns, val, 1)
            }
            prev2 = prev
            prev = t
        }
    }
    END {
        bad = 0
        for (kk in decl) {
            hit = !(kk in written) && values[kk] < 2
            if (hit && !(key[kk] in allowed)) {
                printf "design_gate: FAIL  %s: pub field %s is set by no non-test code but its default or one preset (make it a constant beside its reader, or give %s a line saying why it stays)\n", decl[kk], kk, allow
                bad = 1
            } else if (!hit && (key[kk] in allowed)) {
                printf "design_gate: FAIL  %s names %s, which non-test code sets now: drop the line\n", allow, key[kk]
                bad = 1
            }
            delete allowed[key[kk]]
        }
        for (kk in allowed) {
            printf "design_gate: FAIL  %s names %s, which is no longer a pub field of a config struct: drop the line\n", allow, kk
            bad = 1
        }
        exit bad
    }' $defs $(find src examples benchmark/src -name '*.rs' | sort) >&2; then
    fail=1
fi

# ---- (k) log shipping is one stream ------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'ReplTenantStatus|StandbyTenantStatus|TenantApply|record_replicated|replicated_seq' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f keeps a per-tenant replication row again (log shipping is one stream):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (l) the key index is per table --------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nF 'BTreeMap<(TableId, Key)' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f keys a map by (table, key) again (the key index is one map per table):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/dbengine/src -name '*.rs' | sort)

# ---- (m) recovery keeps the log bytes -------------------------------------------
hits=$(non_test crates/dbengine/src/recovery.rs | grep -nF -e 'Vec<(Lsn, Record)>' -e 'FastMap<Lsn, &Record>' || true)
if [[ -n "$hits" ]]; then
    echo "design_gate: FAIL  crates/dbengine/src/recovery.rs holds decoded records again (recovery keeps the log bytes and decodes a record when it needs it):" >&2
    echo "$hits" >&2
    fail=1
fi

# ---- (n) the key index packs rows into full sorted leaves -------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nF 'BTreeMap<Key, u32>' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f maps keys to slots in a std B-tree again (the key index packs rows into full sorted leaves):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/dbengine/src -name '*.rs' | sort)

# ---- (o) the bench crate is one binary ----------------------------------------
for f in crates/bench/src/bin/* crates/bench/src/main.rs; do
    case "$f" in
        crates/bench/src/bin/figures | crates/bench/src/bin/figures.rs) continue ;;
    esac
    if [[ -e "$f" ]]; then
        echo "design_gate: FAIL  $f is a second bench binary (an entry of figures' FIGURES table runs as \`figures <name>\`)" >&2
        fail=1
    fi
done
if grep -n '^\[\[bin\]\]' crates/bench/Cargo.toml >&2; then
    echo "design_gate: FAIL  crates/bench/Cargo.toml declares a binary (the bench crate's one binary is figures)" >&2
    fail=1
fi

# ---- (p) one audited guest writer ----------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'slot_payload|tenant_fill|SLOTS_PER_CLIENT|TENANT_SLOT_COUNT|struct Load' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f has a sector writer of its own again (the trials share faultsim::guest's one writer, journal and audit):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/faultsim/src -name '*.rs' | sort)

# ---- (q) the superblock lives in the catalog page ------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nE 'Superblock::read\b|\.write\([^)]*\blog_dev\b' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f reads or writes the superblock on the log device again (it lives in the data device's catalog page):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/dbengine/src -name '*.rs' | sort)
hits=$(non_test crates/faultsim/src/scenario.rs | awk '
    /struct RecoverySweep/   { inside = 1 }
    inside && /^}/           { inside = 0 }
    inside && /^[[:space:]]*(pub(\([a-z]+\))? )?superblock[[:space:]]*:/ { print FNR ": " $0 }
')
if [[ -n "$hits" ]]; then
    echo "design_gate: FAIL  crates/faultsim/src/scenario.rs: RecoverySweep reports a superblock read again (recovery reads the log disk for the log alone):" >&2
    echo "$hits" >&2
    fail=1
fi

# ---- (r) the power budget is one rule in time ------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nwE 'max_buffer_bytes|aggregate_fits|DRAIN_STARTUP' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f counts the power budget in bytes again (admission is one rule in time, budget::drainable_bytes):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/*/src src examples -name '*.rs' | sort)

# ---- (s) the trusted path keeps only what runs ------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nE '\b(window_widens|window_narrows|has_sections)\b|Vec<SemPermit>|\bparked:|\bweight:|fn weight\(|\.weight\b|fn record_commit\(' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f brings back a window autotuner, a tenant weight or a second audit path (the window is fixed at build, tenants are equal, every shard has a section):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (t) a request's result comes back through its JoinHandle -------------------
while IFS= read -r f; do
    pat='\bIoQueue\b|\bfn discard\b|\bfn oneshot\b|\bOnceSender\b|\bfn bounded\b'
    if [[ "$f" == crates/dbengine/src/wal.rs ]]; then
        pat+='|\bfn abandon\b'
    fi
    hits=$(non_test "$f" | grep -nE "$pat" || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f brings back a second way to hand a result over (a request, a ring request and a session job answer through their task's JoinHandle):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

# ---- (u) the drain learns nothing ------------------------------------------------
while IFS= read -r f; do
    hits=$(non_test "$f" | grep -nE '\bLATENCY_BUDGET\b|\bfn retarget\b|\btake_stalled\b|\bgrow_ref_bps\b|\bregime_start_ns\b|\bewma_run_bps\b' || true)
    if [[ -n "$hits" ]]; then
        echo "design_gate: FAIL  $f brings back a learned batch size or run bound (the run bound is a closed form of the disk spec, drain::run_bound_of):" >&2
        echo "$hits" >&2
        fail=1
    fi
done < <(find crates/rapilog/src -name '*.rs' | sort)

if ((fail)); then
    exit 1
fi
echo "design_gate: ok    every crate within its budget in $BUDGET"
echo "design_gate: ok    one request path (no provided read/write/flush/write_buf/wait re-implemented, no inherent Disk read/write/write_segments/flush, no completions, no BlkReq, no service.rs/ipc.rs)"
echo "design_gate: ok    one recovery pipeline, one checkpoint (no RecoveryMode, fuzzy_checkpoints or flush_all)"
echo "design_gate: ok    bytes move by the run (no enum Held, no per-sector FastMap<u64, Box<[u8; SECTOR_SIZE]>>)"
echo "design_gate: ok    the buffer is the log's read cache (no reads_hold_disk, stand_aside, defer_to_reads, read_defers or const KEPT)"
echo "design_gate: ok    one explorer (no explore_crash_points, replay_crash_point, explore_failovers, FailoverCounterexample or their _parallel wrappers)"
echo "design_gate: ok    no public function that only tests call (every other hit is in $ALLOW, and every line there is still one)"
echo "design_gate: ok    the disk is write-through (no CacheSpec, writeback_loop or cache_write_hits)"
echo "design_gate: ok    one figures binary (no other bin runs run_perf, none of the thirteen per-figure bins is back)"
echo "design_gate: ok    no config field that only its default sets (every other hit is in $ALLOW, and every line there is still one)"
echo "design_gate: ok    log shipping is one stream (no ReplTenantStatus, StandbyTenantStatus, TenantApply, record_replicated or replicated_seq)"
echo "design_gate: ok    the key index is per table (no BTreeMap<(TableId, Key) in crates/dbengine/src)"
echo "design_gate: ok    recovery keeps the log bytes (no Vec<(Lsn, Record)> or FastMap<Lsn, &Record> in crates/dbengine/src/recovery.rs)"
echo "design_gate: ok    the key index packs rows into full sorted leaves (no BTreeMap<Key, u32> in crates/dbengine/src)"
echo "design_gate: ok    the bench crate is one binary (crates/bench/src/bin/ holds only figures, no src/main.rs, no [[bin]])"
echo "design_gate: ok    one audited guest writer (no slot_payload, tenant_fill, SLOTS_PER_CLIENT, TENANT_SLOT_COUNT or struct Load in crates/faultsim/src)"
echo "design_gate: ok    the superblock lives in the catalog page (no Superblock::read or .write(..log_dev..) in crates/dbengine/src, no RecoverySweep::superblock)"
echo "design_gate: ok    the power budget is one rule in time (no max_buffer_bytes, aggregate_fits or DRAIN_STARTUP in crates/*/src, src/ or examples/)"
echo "design_gate: ok    the trusted path keeps only what runs (no window_widens/window_narrows, parked permits, tenant weight, has_sections or separate fn record_commit( in crates/*/src)"
echo "design_gate: ok    a request's result comes back through its JoinHandle (no IoQueue, fn discard, fn oneshot, OnceSender or fn bounded in crates/*/src, no fn abandon in wal.rs)"
echo "design_gate: ok    the drain learns nothing (no LATENCY_BUDGET, fn retarget, take_stalled, grow_ref_bps, regime_start_ns or ewma_run_bps in crates/rapilog/src)"
