"""Drift between two backtest run directories, strategy by strategy.

For each strategy, prints the largest |weight difference| in weights.csv, the
largest relative NAV difference |nav_b - nav_a| / |nav_a| in nav.csv, how many
hparams.csv winners (learning rate and epochs) changed out of the
rebalances, and whether the strategy's rows of all three files are identical
cell for cell. A row that only one run has counts as an infinite drift and a
changed winner.

Usage: python scripts/run_drift.py DIR_A DIR_B
"""

import argparse
import csv
from pathlib import Path

# The columns that name a row of each file; the strategy is the second.
KEYS = {
    "weights.csv": ("rebalance_date", "strategy", "ticker"),
    "nav.csv": ("date", "strategy"),
    "hparams.csv": ("rebalance_date", "strategy"),
}


def _read(path: Path, key: tuple[str, ...]) -> dict:
    with path.open(newline="") as fh:
        return {tuple(row[c] for c in key): row for row in csv.DictReader(fh)}


def drift(dir_a, dir_b) -> dict[str, dict]:
    """{strategy: {"weight", "nav", "moved", "rebalances", "identical"}} over both runs' rows."""
    out = {}
    for name, key in KEYS.items():
        a, b = _read(Path(dir_a) / name, key), _read(Path(dir_b) / name, key)
        for k in [*a, *(k for k in b if k not in a)]:
            s = out.setdefault(k[1], {"weight": 0.0, "nav": 0.0, "moved": 0, "rebalances": 0, "identical": True})
            ra, rb = a.get(k), b.get(k)
            s["identical"] &= ra == rb
            if name == "hparams.csv":
                s["rebalances"] += 1
                s["moved"] += ra is None or rb is None or (ra["lr"], ra["epochs"]) != (rb["lr"], rb["epochs"])
            elif ra is None or rb is None:
                s["weight" if name == "weights.csv" else "nav"] = float("inf")
            elif name == "weights.csv":
                s["weight"] = max(s["weight"], abs(float(rb["weight"]) - float(ra["weight"])))
            else:
                s["nav"] = max(s["nav"], abs(float(rb["nav"]) - float(ra["nav"])) / abs(float(ra["nav"])))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    rows = drift(args.dir_a, args.dir_b)
    width = max([len("strategy"), *map(len, rows)])
    print(f"{'strategy':<{width}}  {'max |dw|':>9}  {'max nav drift':>13}  {'winners moved':>13}  identical")
    for strategy, s in rows.items():
        moved = f"{s['moved']}/{s['rebalances']}"
        print(f"{strategy:<{width}}  {s['weight']:>9.2g}  {s['nav']:>13.2g}  {moved:>13}  {'yes' if s['identical'] else 'no'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
