#!/bin/sh
# Census of the workspace's public surface.
#
# Lists every `pub fn`, every `pub` field of a `pub struct` and every
# variant of a `pub enum` declared in non-test source under crates/*/src
# and src/ ("non-test" is the scorecard's rule: the lines before a file's
# first line starting with `#[cfg(test)]`), and counts the lines that
# mention each one in crates/, src/, tests/, examples/ and benchmark/src,
# not counting comments, string literals, the declaration itself and the
# declaring file's own `#[cfg(test)]` tail.
#
# Matching is by name, so an item sharing its name with another item is
# credited with both items' callers: the "no caller" list is a lower
# bound, never a false alarm. For fields of a settings struct (one named
# `*Config`, `*Settings`, `*Policy`, `*Options` or `*Rule` that derives
# or implements `Default`) the census also lists the distinct values
# written as `field: value` (or the shorthand `field,`) in struct
# literals outside the declaring file's tests, plus the implicit value
# of a derived `Default`; one value means the field is a constant in all
# but name. Values are matched by field name too, so a name shared by two
# structs pools their values.
#
# It also checks the claim manifest, the experiment index of DESIGN.md
# §4. Every .rs file under crates/*/src and src/ is a module, named by
# its path: crates/core/src/algorithms/matching.rs is
# `core::algorithms::matching`, src/lib.rs is `adaptcomm`, and a `lib`,
# `mod` or `main` file is its crate or parent. A module is owned when a
# row's Modules column names it (one level of braces expands:
# `plansrv::{cache, proto}`); a crate or parent is also owned when a row
# names something inside it. A row is stale when its Modules column
# names no module, or when a tests/, crates/, examples/, scripts/ or
# benchmark/src/ path in its last column does not exist.
#
# And it checks the dependency edges: every `adaptcomm-*` entry under
# `[dependencies]` in the root Cargo.toml or a crates/*/Cargo.toml must
# be named (as `adaptcomm_*`) on a non-comment line of that crate's
# src/. The script exits 1 when a module has no row, a row is stale, an
# edge is unused, a public item has no caller or a settings field has
# one value in use.
#
# A settings field with one value in use fails the census as well: a
# knob nobody turns is a constant, and belongs in the code as one.
#
# `--panics` counts the panic sites instead, under the same non-test rule
# and outside the shims: each `.unwrap()` / `.expect(` and each `panic!` /
# `unreachable!` on a line that is not a comment, string literals and
# trailing comments removed. It lists them (kind, file:line, sites on
# the line), then the count, and always exits 0.
#
# Usage (from the repository root):
#   scripts/census.sh            summary line only
#   scripts/census.sh --zero     items with no caller, settings fields
#                                with one value in use, unowned modules,
#                                stale rows and unused dependency edges,
#                                then the summary
#   scripts/census.sh --one      settings fields with one value in use
#   scripts/census.sh --all      every item, then the summary
#   scripts/census.sh --panics   every panic site, then their count
#
# Output rows are tab-separated: kind, item, file:line, callers, values.

mode=${1:-summary}
case "$mode" in
summary | --zero | --one | --all | --panics) ;;
*)
    echo "usage: scripts/census.sh [--zero | --one | --all | --panics]" >&2
    exit 2
    ;;
esac

if [ "$mode" = --panics ]; then
    find crates/*/src src -name '*.rs' -not -path 'crates/shims/*' | LC_ALL=C sort |
        xargs awk '
FNR == 1 { on = 1 }
/^#\[cfg\(test\)\]/ { on = 0 }
!on || /^[ \t]*\/\// { next }
{
    line = $0
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*$/, "", line)
    k = gsub(/\.unwrap\(\)|\.expect\(/, "&", line)
    if (k) printf "unwrap/expect\t%s:%d\t%d\n", FILENAME, FNR, k
    unwraps += k
    k = gsub(/(panic|unreachable)!\(/, "&", line)
    if (k) printf "panic/unreachable\t%s:%d\t%d\n", FILENAME, FNR, k
    panics += k
}
END { printf "panic sites: %d unwrap/expect, %d panic!/unreachable! in non-test source\n", unwraps, panics }'
    exit 0
fi

manifest=$(find crates/*/src src -name '*.rs' | LC_ALL=C sort | awk -v mode="$mode" '
FNR == 1 { design = (FILENAME == "DESIGN.md") }
design && /^## / { index4 = ($0 ~ /^## 4\./); next }
design && index4 && /^\|/ {
    split($0, col, "|")
    if (col[4] ~ /^ *Modules *$/ || $0 ~ /^[|-]+$/) next
    rows++
    where = "DESIGN.md:" FNR
    cell = col[4]
    while (match(cell, /`[^`]*`/)) {
        span = substr(cell, RSTART + 1, RLENGTH - 2)
        cell = substr(cell, RSTART + RLENGTH)
        prefix = span
        items = ""
        if (match(span, /\{[^}]*\}$/)) {
            prefix = substr(span, 1, RSTART - 1)
            items = substr(span, RSTART + 1, RLENGTH - 2)
        }
        k = split(items, item, ",")
        if (k == 0) item[k = 1] = ""
        for (i = 1; i <= k; i++) {
            name = item[i]
            gsub(/ /, "", name)
            name = prefix name
            named[++nnamed] = name
            named_at[nnamed] = where
            named_row[nnamed] = rows
        }
    }
    cell = col[5]
    while (match(cell, /(tests|crates|examples|scripts|benchmark\/src)\/[A-Za-z0-9_.\/-]*/)) {
        path = substr(cell, RSTART, RLENGTH)
        cell = substr(cell, RSTART + RLENGTH)
        if (system("test -e " path) != 0) {
            stale_row[rows] = 1
            if (mode == "--zero") printf "stale\t%s\t%s\tno such path\n", path, where
        }
    }
    next
}
design { next }
{
    m = $0
    if (m ~ /^src\//) m = "adaptcomm/" substr(m, 5)
    else {
        sub(/^crates\//, "", m)
        sub(/\/src\//, "/", m)
    }
    sub(/\.rs$/, "", m)
    parent = sub(/\/(lib|mod|main)$/, "", m)
    gsub(/\//, "::", m)
    module[m] = $0
    is_parent[m] = parent
    order[++modules] = m
}
END {
    for (i = 1; i <= nnamed; i++) {
        name = named[i]
        if (name in module) {
            owned[name] = 1
            while (sub(/::[a-z0-9_]+$/, "", name)) if (is_parent[name]) owned[name] = 1
        } else {
            stale_row[named_row[i]] = 1
            if (mode == "--zero") printf "stale\t%s\t%s\tno such module\n", named[i], named_at[i]
        }
    }
    for (i = 1; i <= modules; i++) {
        if (order[i] in owned) continue
        unowned++
        if (mode == "--zero") printf "module\t%s\t%s\tno manifest row\n", order[i], module[order[i]]
    }
    for (r in stale_row) stale++
    printf "%d modules, %d without a manifest row, %d stale rows\n", modules, unowned, stale
}' DESIGN.md -)
# Offender rows, if any, then the summary fragment on the last line.
printf '%s\n' "$manifest" | sed '$d'
summary=$(printf '%s\n' "$manifest" | tail -n 1)

edges=0
unused=0
for toml in Cargo.toml crates/*/Cargo.toml; do
    [ -f "$toml" ] || continue
    dir=$(dirname "$toml")
    for dep in $(awk '/^\[/ { deps = ($0 == "[dependencies]"); next }
        deps && /^adaptcomm-/ { sub(/[ .=].*$/, ""); print }' "$toml"); do
        edges=$((edges + 1))
        if ! grep -rhw --include='*.rs' "$(printf '%s' "$dep" | tr - _)" "$dir/src" |
            grep -qv '^[[:space:]]*//'; then
            unused=$((unused + 1))
            [ "$mode" = --zero ] && printf 'edge\t%s\t%s\tunused dependency\n' "$dep" "$toml"
        fi
    done
done

find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*' |
    LC_ALL=C sort |
    xargs awk -v mode="$mode" '
FNR == 1 {
    file = FILENAME
    decl = (file ~ /^crates\/[^\/]+\/src\// || file ~ /^src\//)
    tail = 0
    owner = ""
    block = ""
    derive = ""
}
/^#\[cfg\(test\)\]/ { tail = 1 }
{
    line = $0
    if (line ~ /^[ \t]*\/\//) next
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*$/, "", line)

    # Every identifier on the line is a potential caller.
    rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(rest, RSTART, RLENGTH)
        total[w]++
        if (decl && tail) own_tail[file SUBSEP w]++
        rest = substr(rest, RSTART + RLENGTH)
    }

    # `field: value` and `field,` writes, for the settings census.
    if (!(decl && tail) && match(line, /^[ \t]*[a-z_][a-z0-9_]*(: .+|,)$/)) {
        f = line
        sub(/^[ \t]*/, "", f)
        sub(/,$/, "", f)
        name = f
        sub(/:.*$/, "", name)
        val = f
        sub(/^[a-z_][a-z0-9_]*: /, "", val)
        if (val !~ /^(&|u8$|u16$|u32$|u64$|usize$|i32$|i64$|f32$|f64$|bool$|String$|Option<|Vec<|impl |dyn |Box<|[A-Z][A-Za-z0-9]*(<.*>)?$)/) {
            key = name SUBSEP val
            if (!(key in seen)) {
                seen[key] = 1
                nval[name]++
                vals[name] = vals[name] (nval[name] > 1 ? " | " : "") val
            }
        }
    }

    if (!decl || tail) next

    if (line ~ /^#\[derive\(/) derive = line
    if (match(line, /^impl(<[^>]*>)? /)) {
        head = line
        sub(/\{.*$/, "", head)
        if (head ~ / for /) sub(/^.* for /, "", head)
        else sub(/^impl(<[^>]*>)? /, "", head)
        sub(/[<( ].*$/, "", head)
        owner = head
        if (line ~ /^impl(<[^>]*>)? Default for /) has_default[owner] = 1
    }
    if (match(line, /^pub (struct|enum) [A-Za-z0-9_]+/) && line ~ /\{[ \t]*$/) {
        block = substr(line, RSTART, RLENGTH)
        is_enum = (block ~ /^pub enum/)
        sub(/^pub (struct|enum) /, "", block)
        depth = 0
        if (derive ~ /Default/) has_default[block] = derived[block] = 1
    } else if (block != "" && depth == 1) {
        if (!is_enum && match(line, /^[ \t]*pub [a-z_][a-z0-9_]*:/)) {
            w = substr(line, RSTART, RLENGTH)
            sub(/^[ \t]*pub /, "", w)
            sub(/:$/, "", w)
            add("field", block, w)
        } else if (is_enum && match(line, /^[ \t]*[A-Z][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            sub(/^[ \t]*/, "", w)
            add("variant", block, w)
        }
    }
    if (block != "") {
        opens = gsub(/\{/, "{", line)
        closes = gsub(/\}/, "}", line)
        depth += opens - closes
        if (depth <= 0 && closes > 0) block = ""
    }
    if (line !~ /^#\[derive/) derive = (line ~ /^#\[/ ? derive : "")
    if (match(line, /^[ \t]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART, RLENGTH)
        sub(/^.* fn /, "", w)
        o = owner
        if (line ~ /^pub /) {
            o = file
            sub(/\.rs$/, "", o)
            sub(/^.*\//, "", o)
        }
        add("fn", o, w)
    }
}
function add(kind, who, w) {
    n++
    k_kind[n] = kind
    k_owner[n] = who
    k_name[n] = w
    k_where[n] = file ":" FNR
    k_file[n] = file
    decls[w]++
}
END {
    zero = 0
    settings = 0
    single = 0
    for (i = 1; i <= n; i++) {
        w = k_name[i]
        callers = total[w] - own_tail[k_file[i] SUBSEP w] - decls[w]
        v = "-"
        setting = (k_kind[i] == "field" && (k_owner[i] in has_default) &&
            k_owner[i] ~ /(Config|Settings|Policy|Options|Rule)$/)
        count = nval[w] + (k_owner[i] in derived)
        if (setting) {
            settings++
            v = count ": " (k_owner[i] in derived ? "(derived default)" : "")
            v = v (nval[w] > 0 && (k_owner[i] in derived) ? " | " : "") vals[w]
            if (count <= 1) single++
        }
        if (callers <= 0) zero++
        show = (mode == "--all") ||
            (mode == "--zero" && (callers <= 0 || (setting && count <= 1))) ||
            (mode == "--one" && setting && count <= 1)
        if (show)
            printf "%s\t%s::%s\t%s\t%d\t%s\n", k_kind[i], k_owner[i], w, k_where[i], callers, v
    }
    printf "census: %d public items, %d with no caller; %d settings fields, %d with one value in use; %s\n", n, zero, settings, single, manifest
    exit (zero > 0 || single > 0)
}
' manifest="$summary; $edges dependency edges, $unused unused"
# xargs reports awk's exit 1 (an item with no caller, or a settings
# field with one value in use) as 123.
uncalled=$?
case "$summary" in
*" 0 without a manifest row, 0 stale rows") ;;
*) exit 1 ;;
esac
[ "$unused" -eq 0 ] || exit 1
[ "$uncalled" -eq 0 ] || exit 1
