#!/usr/bin/env python3
"""Compare tag coverage of greedy selection against random sampling across
data ratios, on the tag profiles of a finished pipeline run."""

import argparse
import math
from pathlib import Path

from proctag import cli
from proctag.assess import _selection_sequence, random_sample, tag_coverage


def coverage_of(ids, profiles):
    """0.0 also when the profiles hold no tag to cover."""
    chosen = set(ids)
    return tag_coverage([p for p in profiles if p.record_id in chosen], profiles) or 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out", help="pipeline output directory")
    ap.add_argument("--seeds", type=int, default=25, help="random baselines per ratio")
    args = ap.parse_args()

    profiles = cli.read_profiles(cli._read_stage(Path(args.out), "profiles"))
    # the greedy order does not depend on the budget: each ratio takes a prefix
    phase1, phase2 = _selection_sequence(profiles)
    greedy_ids = [p.record_id for p in phase1 + phase2]
    print(f"{len(profiles)} records\n")
    print(f"{'ratio':>6} {'greedy':>8} {'random(mean)':>13}")
    for pct in (5, 10, 20, 30, 50, 75, 100):
        ratio = pct / 100
        greedy = coverage_of(greedy_ids[:math.ceil(ratio * len(profiles))], profiles)
        rand = sum(coverage_of(random_sample(profiles, ratio, seed), profiles)
                   for seed in range(args.seeds)) / args.seeds
        print(f"{pct:>5}% {greedy:>8.3f} {rand:>13.3f}")


if __name__ == "__main__":
    main()
