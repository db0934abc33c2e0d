#!/usr/bin/env python3
"""Compare two benchmark outputs item by item.

    python3 perfbench/diff.py OLD.json NEW.json

Both files are ``perfbench/out/<workload>-seed<N>-trace<T>.json`` written by
``run.py`` with the same workload and seed, for instance on a parent commit
and on a change. Items are matched by id; the same seed gives the same ids
and inputs. Every item whose value or provenance differs is printed, then the
counts. Scan rows and report values are lower bounds on a supremum, so for
them "down" means the new code found a smaller value.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = ({i["id"]: i for i in json.load(open(path, encoding="utf-8"))["items"]}
                for path in argv)
    counts = {"same": 0, "up": 0, "down": 0, "provenance": 0}
    for key in (k for k in old if k in new):
        a, b = old[key], new[key]
        if a["value"] is None or b["value"] is None or a["value"] == b["value"]:
            change = "same"
        else:
            change = "up" if b["value"] > a["value"] else "down"
        counts[change] += 1
        if a["provenance"] != b["provenance"]:
            counts["provenance"] += 1
        if change != "same" or a["provenance"] != b["provenance"]:
            print(f"{change:5s} {key}: {a['value']!r} -> {b['value']!r} "
                  f"({a['provenance']} -> {b['provenance']})")
    only_old = sum(k not in new for k in old)
    only_new = sum(k not in old for k in new)
    print(" ".join(f"{k}={v}" for k, v in counts.items())
          + f" only_old={only_old} only_new={only_new}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
