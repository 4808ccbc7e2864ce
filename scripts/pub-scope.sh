#!/usr/bin/env bash
# Lists every line-leading `pub` item under crates/*/src whose name appears
# in no file outside its own crate's sources, and exits 1 if there is one.
#
# "Outside" a crate means the other crates (sources and tests), the crate's
# own tests/ and src/bin/ (binaries are separate crates), the workspace
# tests/, examples/ and benchmark/src. shims/ is not scanned. Names are
# matched as whole words, so a name collision can only keep an item `pub`;
# it never hides a real use. Items in src/bin/ are not listed: a binary
# exports nothing, so rustc's dead_code lint already sees them. A type or
# trait named in the signature of a `pub` item or field that stays `pub` is
# not listed either: it is part of that public interface.
#
# An item this lists is used only inside its crate: make it `pub(crate)`
# (with its re-export), and rustc's dead_code lint then checks it.
#
# Allow-listed crates keep their `pub` surface but are held to a weaker
# rule: each item's name must appear at least once more anywhere, its own
# crate included (an item named nowhere else is dead under either rule).
#
# Usage: scripts/pub-scope.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# Crates held only to the weaker rule, one directory per line.
ALLOW='crates/cachesim'

# One crate's scan, over its source files. An item is reported when its name
# is not an outside word and not exposed: a name in the signature of a `pub`
# item or field whose own name is an outside word (a type that a kept public
# method returns or a kept public field holds) is part of a public interface,
# and rustc's private_interfaces lint rejects demoting it.
SCAN='
    BEGIN {
        while ((getline w < outside) > 0) out[w] = 1
        item = "^[[:space:]]*pub (const fn|unsafe fn|async fn|fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*"
        field = "^[[:space:]]*pub [A-Za-z_][A-Za-z0-9_]*[[:space:]]*:"
    }
    # Closes the open signature; its words are exposed if its name is kept.
    function flush(   k, i, t) {
        if (sig != "" && decl in out) {
            gsub(/[^A-Za-z0-9_]+/, " ", sig)
            k = split(sig, t, " ")
            for (i = 1; i <= k; i++) exposed[t[i]] = 1
        }
        sig = ""
    }
    FNR == 1 { flush() }
    {
        if (match($0, item)) {
            flush()
            n = split(substr($0, RSTART, RLENGTH), part, " ")
            decl = part[n]
            items[++count] = FILENAME ":" FNR ": pub " decl
            names[count] = decl
            sig = " "
            end = "[{;]"
        } else if (match($0, field)) {
            flush()
            decl = substr($0, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub[[:space:]]+/, "", decl)
            sub(/[[:space:]]*:$/, "", decl)
            sig = " "
            end = "[{;,][[:space:]]*$"
        }
        if (sig != "") {
            sig = sig " " $0
            if ($0 ~ end) flush()
        }
    }
    END {
        flush()
        for (i = 1; i <= count; i++)
            if (!(names[i] in out) && !(names[i] in exposed)) {
                print items[i] " is named " (allowed ? "nowhere else" : "only inside " crate "/src")
                found = 1
            }
        exit found
    }'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Identifiers of every .rs file under the given directories, one per line.
words() {
    local dirs=() d
    for d in "$@"; do
        if [ -d "$d" ]; then dirs+=("$d"); fi
    done
    [ ${#dirs[@]} -gt 0 ] || return 0
    find "${dirs[@]}" -name '*.rs' -type f -print0 |
        xargs -0 -r grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

words tests examples benchmark/src >"$tmp/common"
for crate in crates/*/; do
    crate=${crate%/}
    words "$crate" >"$tmp/all.${crate##*/}"
done

status=0
for crate in crates/*/; do
    crate=${crate%/}
    name=${crate##*/}
    allowed=0
    if grep -qxF "$crate" <<<"$ALLOW"; then allowed=1; fi
    # Outside words: other crates, this crate's tests/ and src/bin/, common;
    # for an allow-listed crate also every word its sources name twice.
    {
        cat "$tmp/common"
        for other in "$tmp"/all.*; do
            [ "$other" = "$tmp/all.$name" ] || cat "$other"
        done
        words "$crate/tests" "$crate/src/bin"
        if [ $allowed = 1 ]; then
            find "$crate/src" -name '*.rs' -type f -print0 |
                xargs -0 -r grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -d
        fi
    } | sort -u >"$tmp/outside"
    find "$crate/src" -name '*.rs' -type f -not -path "$crate/src/bin/*" -print0 |
        sort -z | xargs -0 -r awk -v crate="$crate" -v allowed=$allowed -v outside="$tmp/outside" "$SCAN" || status=1
done
exit $status
