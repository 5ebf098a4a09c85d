#!/usr/bin/env python3
"""Census of complementation structure across the catalog.

For each group: subgroup count, how many subgroups are complemented, whether
the group is completely factorizable, whether it has a C-separating subgroup,
and how many conjugacy classes of cyclic prime-power subgroups are
supercomplemented.

Usage: python scripts/complement_census.py [--max-order N]
"""

import argparse

import complementa as ca
from complementa.complementation import uncomplemented_subgroups
from complementa.verify import _supercomplemented_cyclic_reps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=512)
    args = parser.parse_args()

    header = f"{'group':>12} {'|G|':>4} {'subs':>5} {'compl':>6} {'CF':>3} {'C-sep':>6} {'sc-cyc':>6}"
    print(header)
    print("-" * len(header))
    for entry in ca.catalog():
        if entry.order > args.max_order:
            continue
        g = entry.build().group
        lat = ca.all_subgroups(g)
        uncomplemented = len(uncomplemented_subgroups(g))
        complemented = len(lat) - uncomplemented
        cf = not uncomplemented
        csep = ca.has_c_separating(g) if g.order > 1 else False
        sc = len(_supercomplemented_cyclic_reps(g))
        print(f"{entry.name:>12} {g.order:>4} {len(lat):>5} {complemented:>6} "
              f"{'y' if cf else '.':>3} {'y' if csep else '.':>6} {sc:>6}")


if __name__ == "__main__":
    main()
