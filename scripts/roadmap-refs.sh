#!/usr/bin/env bash
# Lists every "ROADMAP item N" reference whose N is not a numbered item of
# ROADMAP.md, and exits 1 if there is one.
#
# Item numbers are stable IDs: a closed item keeps its number and no number
# is reused, so a reference to a number ROADMAP.md does not hold is a typo or
# points at an item that was never written. A reference may wrap across a
# line break ("ROADMAP item" at the end of one line, "12" at the start of
# the next), and every number of a list ("ROADMAP items 3 and 5") is
# checked. CHANGES.md (history) and ROADMAP.md (the item list itself) are
# not scanned.
#
# Usage: scripts/roadmap-refs.sh [FILE...]
#   With no FILE, scans every tracked file of the repository.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

if [ $# -eq 0 ]; then
    cd "$root"
    mapfile -t files < <(git ls-files -- ':!CHANGES.md' ':!ROADMAP.md')
    set -- "${files[@]}"
fi

ITEMS=$(grep -oE '^[0-9]+\.' "$root/ROADMAP.md" | tr -d . | tr '\n' ' ') \
perl -0777 -ne '
    BEGIN { %item = map { $_ => 1 } split " ", $ENV{ITEMS}; $bad = 0 }
    while (/ROADMAP\s+items?\s+(\d+(?:(?:\s*,\s*|\s+and\s+)\d+)*)/g) {
        my ($refs, $line) = ($1, 1 + (substr($_, 0, $-[0]) =~ tr/\n//));
        for my $n ($refs =~ /\d+/g) {
            next if $item{$n};
            print "$ARGV:$line: ROADMAP item $n is not an item of ROADMAP.md\n";
            $bad = 1;
        }
    }
    END { exit $bad }
' -- "$@"
