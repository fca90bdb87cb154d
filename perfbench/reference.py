#!/usr/bin/env python3
"""Pins the audited outputs the benchmark's runs must reproduce.

    python3 perfbench/reference.py --seeds 0-99

For every workload and seed, runs one audited traced repetition (the same
one run.py starts with), refuses to pin it unless the audit passed, and
writes the pair-set digest and the exact and reported pair counts to
perfbench/reference.json. Re-pin only for a change that is meant to alter
results; a pinned seed whose output moves fails every later run.
"""

import argparse
import json
import sys

import run


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"))
    parser.add_argument("--workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()
    _, pb_trace = run.build()
    pinned = run.load_reference()
    for workload in args.workloads:
        entries = pinned.setdefault(workload, {})
        for seed in args.seeds:
            rep = run.run_rep(pb_trace, workload, seed, ["--audit", "1"])
            problems = run.audit_problems(rep, workload, seed, {})
            if problems:
                sys.exit(f"{workload} seed {seed}: {'; '.join(problems)}")
            entries[str(seed)] = {key: rep[key] for key in
                                  ("digest", "exact_pairs", "reported_pairs")}
            print(f"{workload} seed {seed}: {rep['digest']}", file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
