#!/bin/sh
# Non-test lines (above the first `#[cfg(test)]`, or the first unindented
# `#[cfg(any(test, feature = "reference"))]` that opens a file's retained
# oracles; `tests/` directories left out) per file, per crate and in total
# under crates/ and shims/. With a REV, only what differs from
# `git show REV:path`, as "before -> after delta".
# Usage: tools/loc.sh [REV]
cd "$(dirname "$0")/.." || exit 1
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ || /^#\[cfg\(any\(test, feature = "reference"\)\)\]/ { exit }
         { n++ } END { print n + 0 }'
}
{ git ls-files crates shims; [ -n "$1" ] && git ls-tree -r --name-only "$1" crates shims; } |
    grep '\.rs$' | grep -v '/tests/' | sort -u | while read -r f; do
    now=0 was=0
    [ -f "$f" ] && now=$(count <"$f")
    [ -n "$1" ] && was=$(git show "$1:$f" 2>/dev/null | count)
    echo "$f $now $was"
done | awk -v rev="$1" '
    function row(name, after, before) {
        if (rev == "") printf "%6d  %s\n", after, name
        else if (after != before) printf "%6d -> %6d %+5d  %s\n", before, after, after - before, name
    }
    { split($1, p, "/"); c = p[1] "/" p[2]; if (!(c in now)) order[++n] = c
      now[c] += $2; was[c] += $3; now["total"] += $2; was["total"] += $3; row($1, $2, $3) }
    END { for (i = 1; i <= n; i++) row(order[i], now[order[i]], was[order[i]])
          row("total", now["total"], was["total"]) }'
