#!/usr/bin/env python3
"""Fails if a committed BENCH_<scenario>.json report is stale.

Usage: python3 ci/bench_fresh.py SCENARIO...   (run from the repo root,
after `cargo build --release`)

Each scenario is regenerated with `target/release/bench SCENARIO` and
compared with the committed file. When neither file has a "timing" member,
the two must match byte for byte. Otherwise their parsed trees must match
with key order kept, every number compared as its literal text, and every
"timing" member (wall-clock, machine-dependent) removed.
"""
import difflib
import json
import os
import subprocess
import sys
import tempfile


def parse(raw):
    """The report tree without "timing" members, and whether it had any."""
    timed = []

    def obj(pairs):
        timed.extend(k for k, _ in pairs if k == "timing")
        return ("object", [(k, v) for k, v in pairs if k != "timing"])

    number = lambda text: ("number", text)
    tree = json.loads(raw, object_pairs_hook=obj, parse_float=number, parse_int=number)
    return tree, bool(timed)


def stale(scenario):
    committed_path = f"BENCH_{scenario}.json"
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = os.path.join(tmp, committed_path)
        subprocess.run(["./target/release/bench", scenario, "--out", fresh_path],
                       check=True, stdout=subprocess.DEVNULL)
        with open(fresh_path, "rb") as f:
            fresh = f.read()
    with open(committed_path, "rb") as f:
        committed = f.read()
    (fresh_tree, fresh_timed), (committed_tree, committed_timed) = parse(fresh), parse(committed)
    if fresh_timed or committed_timed:
        same = fresh_tree == committed_tree
    else:
        same = fresh == committed
    if not same:
        sys.stdout.writelines(difflib.unified_diff(
            committed.decode().splitlines(keepends=True), fresh.decode().splitlines(keepends=True),
            committed_path, "regenerated"))
        print(f"{committed_path} is stale: regenerate with "
              f"`cargo run --release -p aiacc-bench --bin bench -- {scenario}`")
    return not same


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(1 if [s for s in sys.argv[1:] if stale(s)] else 0)
