"""dfolio benchmark: one workload, end-to-end or per-layer metrics, output checks.

Usage (from the repository root):
  python3 perfbench/run.py --workload roster_quick --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from --seed, then the workload's one CLI
command runs in whole rounds, each in a fresh process, until the next round
would overrun --seconds. With --trace 0 the last line of standard output holds
run_s, setup_s and peak_rss_mb (medians over the rounds); with --trace 1 each
round runs the command untraced and then traced, and the line holds the
per-layer metrics of the traced runs plus the tracing overhead. Every round's
outputs are checked against values recomputed from the inputs (checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import checks
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run ends within this many seconds of its start, even if a command hangs.
DEADLINE_S = 170
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
BOUNDARY = {"backtest": "backtest.run_window", "ingest": "cli.write_panel_csv"}
# Artifacts that must be byte-identical across rounds and with tracing on.
IDENTICAL = {"backtest": ("nav.csv", "metrics.json"), "ingest": ("panel.csv", "features.csv")}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DFOLIO_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, tag: str, argv: list[str], probe_argv: list[str] | None, boundary: str,
              trace: bool, timeout: float) -> dict | None:
    spec = {
        "argv": argv,
        "probe_argv": probe_argv,
        "boundary": boundary,
        "trace": int(trace),
        "spans": str(work / f"{tag}.spans.csv"),
    }
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{tag}: child killed after {timeout:.0f} s\n")
        return None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"{tag}: child exited {proc.returncode}\n{proc.stderr[-4000:]}")
        return None
    return json.loads(result_path.read_text())


def failed_strategies(stdout: str) -> set[str]:
    """Names on the status lines that `dfolio backtest` prints for failed strategies."""
    return {line.split()[0] for line in stdout.splitlines() if " FAILED: " in line}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dfolio" / "cli.py").is_file():
        print(f"error: no dfolio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = gen.WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: gen.Workload, work: Path) -> int:
    t_run = time.perf_counter()
    desc = gen.write_inputs(workload, args.seed, work)
    market = checks.Market(checks.read_inputs(desc["data_dir"]))
    if workload.command == "backtest":
        roster = workload.roster
        start, end = date.fromisoformat(workload.start), date.fromisoformat(workload.end)
        ops = len(roster) * len(checks.expected_rebalances(market.dates, start, end))

        def argv(out):
            return ["backtest", "--config", desc["config"], "--out", str(out)]
    else:
        ops = len(desc["tickers"])

        def argv(out):
            return ["ingest", "--data", desc["data_dir"], "--out", str(out)]

    boundary = BOUNDARY[workload.command]
    modes = (False, True) if args.trace else (False,)
    attempted = failed = 0
    problems: list[str] = []
    results: dict[bool, list[dict]] = {False: [], True: []}
    digests: list[dict] = []
    t_start = time.perf_counter()
    k = 0
    while True:
        for traced in modes:
            tag = f"r{k}{'t' if traced else ''}"
            out = work / tag
            probe_argv = None if args.trace else argv(work / "probe")
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - t_run))
            res = run_child(work, tag, argv(out), probe_argv, boundary, traced, timeout)
            attempted += ops
            if res is None or not all((out / name).exists() for name in IDENTICAL[workload.command]):
                failed += ops
                problems.append(f"{tag}: the command crashed or wrote no artifacts")
                continue
            if workload.command == "backtest":
                lost = failed_strategies(res["stdout"])
                failed += ops // len(roster) * len(lost)
            results[traced].append(res)
            print(f"{tag}: run_s {res['run_s']:.3f}, {len(res['setup_s'])} set-up samples", file=sys.stderr)
            if k == 0 and not traced:
                if workload.command == "backtest":
                    kept = [name for name in roster if name not in lost]
                    problems += checks.check_backtest(out, market, kept, start, end, gen.FEE_RATE)
                else:
                    problems += checks.check_ingest(out, market, res["stdout"], args.seed)
            digests.append(checks.digest(out, IDENTICAL[workload.command]))
            if traced:
                res["layers"] = tracing.layer_metrics(tracing.read_spans(work / f"{tag}.spans.csv"))
            shutil.rmtree(out, ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / k > args.seconds:
            break
    problems += checks.check_identical(digests)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = results[False]
    if args.trace:
        layers = [r["layers"] for r in results[True]] or [tracing.layer_metrics([])]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        # Each round runs its untraced and traced command back to back, so the
        # paired differences cancel most of the machine's slow drift.
        pairs = [t["run_s"] - p["run_s"] for p, t in zip(plain, results[True])]
        values["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in PER_LAYER}
    else:
        setup = [s for r in plain for s in r["setup_s"]]
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in plain) if plain else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain) if plain else 0.0, "unit": "MB"},
        }
    print(f"workload {workload.name} seed {args.seed}: {k} rounds in {time.perf_counter() - t_start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
