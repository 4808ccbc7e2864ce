#!/usr/bin/env python3
"""Compares two serve journals request by request.

usage: scripts/journal-diff.py EXPECTED_DIR ACTUAL_DIR [COUNT]

Reads DIR/journal.log from each directory. The first line is the
manifest and is skipped. Every other line is `<16 hex digits of FNV-1a-64
over the JSON bytes> <JSON record>`. Each line's checksum is verified,
and the records are folded by request id with the last line winning.
Every folded record must carry a response. Exits 1 unless both journals
give every id the same (status, checksum, attempts) and, when COUNT is
given, hold exactly COUNT ids.
"""

import json
import sys

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a(data):
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def journal(directory):
    path = directory + "/journal.log"
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if lines[-1]:
        sys.exit(f"{path}: the last line has no newline (a torn append)")
    out = {}
    for number, line in enumerate(lines[1:-1], start=2):
        checksum, _, body = line.partition(b" ")
        if len(checksum) != 16 or int(checksum, 16) != fnv1a(body):
            sys.exit(f"{path}:{number}: checksum mismatch")
        record = json.loads(body)
        out[record["spec"]["id"]] = record
    outcomes = {}
    for rid, record in out.items():
        resp = record["response"]
        if resp is None:
            sys.exit(f"{path}: request {rid} was never served")
        outcomes[rid] = (resp["status"], resp["checksum"], resp["attempts"])
    return outcomes


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__.strip().splitlines()[2])
    expected, actual = journal(sys.argv[1]), journal(sys.argv[2])
    if len(sys.argv) == 4 and len(actual) != int(sys.argv[3]):
        sys.exit(f"{sys.argv[2]} holds {len(actual)} requests, not {sys.argv[3]}")
    if expected != actual:
        drift = sorted(set(expected.items()) ^ set(actual.items()), key=str)[:5]
        sys.exit(f"{sys.argv[2]} drifted from {sys.argv[1]}, e.g. {drift}")
    print(f"{len(actual)} requests match between {sys.argv[1]} and {sys.argv[2]}")


if __name__ == "__main__":
    main()
