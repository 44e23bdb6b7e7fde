"""Peak memory of one dfolio command, stage by stage.

Runs the command in this process and prints the process's resident-memory
high-water mark (VmHWM) right before and right after each stage, and its
current resident memory (VmRSS) right after it:
load_series, align_series, compute_returns, compute_indicators, the artifact
writers and run_backtest. Each stage is wrapped from outside, under the name
its caller looks up, so dfolio itself runs unchanged; compute_indicators is
wrapped in both dfolio.cli (ingest) and dfolio.backtest (inside run_backtest,
next to compute_returns). A stage that runs inside another is indented under
it. Memory a stage freed but the allocator kept shows as VmRSS above what
the later stages hold, and a later stage's temporaries can reuse it without
raising VmHWM. Both are read from /proc/self/status, so this runs on Linux
only. The command's own output comes first, then the table; the exit code is
the command's.

Usage: python scripts/peak_by_stage.py -- ingest --data DIR --out DIR
       python scripts/peak_by_stage.py -- backtest --config cfg.json
"""

import argparse
from pathlib import Path

import dfolio.backtest
import dfolio.cli

# Module (under dfolio) -> the stage names that module's code calls.
STAGES = {
    "cli": (
        "load_series",
        "align_series",
        "compute_indicators",
        "run_backtest",
        "write_panel_csv",
        "write_features_csv",
        "write_nav_csv",
        "write_weights_csv",
        "write_hparams_csv",
        "write_metrics_json",
        "write_metrics_csv",
        "write_plotdata",
    ),
    "backtest": ("compute_returns", "compute_indicators"),
}


def vm_mb() -> tuple[float, float]:
    """This process's (VmHWM, VmRSS) in MB, from one read of /proc/self/status, so VmRSS <= VmHWM."""
    found = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        name, _, value = line.partition(":")
        if name in ("VmHWM", "VmRSS"):
            found[name] = int(value.split()[0]) / 1024.0
    if len(found) < 2:
        raise RuntimeError("no VmHWM or VmRSS line in /proc/self/status")
    return found["VmHWM"], found["VmRSS"]


def run(argv: list[str]) -> tuple[int, list[list]]:
    """Run `dfolio argv`; returns (exit code, [[depth, stage, hwm_before_mb, hwm_after_mb, rss_after_mb], ...])
    in call order."""
    rows: list[list] = []
    depth = [0]
    saved = []

    def wrap(module, name):
        inner = getattr(module, name)

        def stage(*args, **kwargs):
            row = [depth[0], name, vm_mb()[0], None, None]
            rows.append(row)
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1
                row[3:] = vm_mb()

        saved.append((module, name, inner))
        setattr(module, name, stage)

    try:
        for module_name, names in STAGES.items():
            module = getattr(dfolio, module_name)
            for name in names:
                wrap(module, name)
        rc = dfolio.cli.main(argv)
    finally:
        for module, name, inner in saved:
            setattr(module, name, inner)
    return rc, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="dfolio arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the dfolio command after --")
    rc, rows = run(command)
    width = max([len("stage"), *(2 * depth + len(name) for depth, name, *_ in rows)])
    print(f"{'stage':<{width}}  {'hwm before MB':>13}  {'hwm after MB':>12}  {'rise MB':>7}  {'rss after MB':>12}")
    for depth, name, before, after, rss in rows:
        print(f"{'  ' * depth + name:<{width}}  {before:>13.1f}  {after:>12.1f}  {after - before:>7.1f}  {rss:>12.1f}")
    hwm, rss = vm_mb()
    print(f"{'end':<{width}}  {'':>13}  {hwm:>12.1f}  {'':>7}  {rss:>12.1f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
