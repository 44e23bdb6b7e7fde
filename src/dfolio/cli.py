"""Batch command line: ingest data, run backtests, compare two runs, make synthetic data.

Commands:
  dfolio ingest   --data DIR --out DIR
  dfolio backtest --config cfg.json [--seed N] [--out DIR] [--strategies a,b]
  dfolio compare  RUN_A RUN_B
  dfolio synth    --out DIR [--assets N] [--days N] [--seed N]

The backtest config is a single JSON document; see README for the schema.

A bad input raises a DfolioError where it is found; `main` alone maps it to an
exit code: 2 for a ConfigError (`config error: ...`) or another UsageError
(`error: ...`), 1 for a data or run error (`error: ...`) or a failed strategy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from functools import partial
from pathlib import Path
from typing import get_type_hints

from .backtest import BacktestConfig, StrategySpec, default_roster, rebalance_dates, run_backtest
from .features import compute_indicators, write_features_csv
from .market_data import SyntheticSpec, align_series, generate_synthetic, load_series, write_csv_dir
from .metrics import MetricsRow, span_bounds, subperiod_report
from .reports import (
    nav_series,
    read_metrics_json,
    run_drift,
    write_hparams_csv,
    write_metrics_csv,
    write_metrics_json,
    write_nav_csv,
    write_panel_csv,
    write_plotdata,
    write_weights_csv,
)
from .training import SearchSpace
from .util import ConfigError, DfolioError, UsageError, check_fields

# The longest file name most file systems take, in bytes.
NAME_MAX = 255


@dataclass
class RunConfig:
    data_dir: Path
    output_dir: Path
    universe: list[str] | None
    backtest: BacktestConfig
    roster: tuple[StrategySpec, ...]
    report_spans: dict = field(default_factory=dict)


def _parse_iso(value, key: str, errors: list[str]) -> date | None:
    try:
        return date.fromisoformat(str(value))
    except (TypeError, ValueError):
        errors.append(f"{key}: expected ISO date, got {value!r}")
        return None


def _check_number(value, key: str, errors: list[str], minimum=None, integer=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{key}: expected a number, got {value!r}")
        return None
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an integer beyond the float range
        errors.append(f"{key}: expected a finite number, got {value!r}")
        return None
    if integer and int(value) != value:
        errors.append(f"{key}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value!r}")
        return None
    return int(value) if integer else float(value)


def _check_text(value, key: str, errors: list[str]) -> str | None:
    # A lone surrogate from a JSON escape is the one str that UTF-8, which the writers need, cannot encode.
    if isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value):
        return value
    errors.append(f"{key}: expected {'UTF-8 text' if isinstance(value, str) else 'a string'}, got {value!r}")
    return None


# The type check of a config value by its field's annotation: the value, or None after an error.
READERS = {int: partial(_check_number, integer=True), float: _check_number, date: _parse_iso, str: _check_text}


def _read_section(cls, raw, key: str, errors: list[str], set_elsewhere=()) -> dict | None:
    """The keyword arguments of dataclass `cls` read from the JSON object `raw`, or None after errors.

    Every key must name a field of `cls` outside `set_elsewhere`; a field left
    out takes its default. Each value is checked by its field's annotation,
    then all of them by `cls.CHECKS`, every fault reported as `<key>.<field>: ...`.
    """
    if not isinstance(raw, dict):
        errors.append(f"{key}: expected an object")
        return None
    own = {f.name: f.default for f in fields(cls) if f.name not in set_elsewhere}
    found = [f"{key}.{name}: unknown field" for name in raw if name not in own]
    found += [f"{key}.{name}: required" for name, default in own.items() if default is MISSING and name not in raw]
    values = {name: default for name, default in own.items() if default is not MISSING and name not in raw}
    types = get_type_hints(cls)
    for name in (n for n in own if n in raw):
        value = READERS[types[name]](raw[name], f"{key}.{name}", found)
        if value is not None:
            values[name] = value
    try:
        check_fields(values, cls.CHECKS)
    except ConfigError as exc:
        found += [f"{key}.{fault}" for fault in exc.args]
    errors += found
    return None if found else values


def _check_dir(value, key: str, errors: list[str]) -> None:
    if not isinstance(value, str) or not value:
        errors.append(f"{key}: expected a non-empty string, got {value!r}")
    elif "\0" in value:
        errors.append(f"{key}: a path cannot contain a NUL character")


def _output_dir(path, key: str) -> Path:
    """`path` if the command can create it when it writes, else a ConfigError under `key`.

    Nothing is created here, so a run that later fails on its data leaves no
    directory: the nearest existing one of `path` and its parents must be a
    writable directory.
    """
    out = Path(path)
    try:
        base = next((p for p in (out, *out.parents) if p.exists()), out)
    except OSError as exc:  # e.g. a name too long
        raise ConfigError(f"{key}: cannot create {out} ({exc.strerror})") from None
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"{key}: cannot create {out} ({base} is not a writable directory)")
    return out


def _build_roster(raw, errors: list[str]) -> tuple[StrategySpec, ...]:
    if raw in (None, "default"):
        return default_roster()
    if not isinstance(raw, list):
        errors.append(f"strategies: expected 'default' or a list, got {type(raw).__name__}")
        return ()
    defaults = {s.name: s for s in default_roster()}
    roster = []
    for i, item in enumerate(raw):
        key = f"strategies[{i}]"
        if isinstance(item, str):
            if item in defaults:
                roster.append(defaults[item])
            else:
                errors.append(f"{key}: unknown default strategy {item!r}")
            continue
        if not isinstance(item, dict):
            errors.append(f"{key}: expected a name or an object")
            continue
        if "kind" not in item and isinstance(item.get("name"), str) and item["name"] in defaults:
            item = {**vars(defaults[item["name"]]), **item}
        values = _read_section(StrategySpec, item, key, errors)
        if values is not None:
            roster.append(StrategySpec(**values))
    names = [s.name for s in roster]
    if len(set(names)) != len(names):
        errors.append("strategies: duplicate names")
    return tuple(roster)


def load_run_config(path, seed_override=None, out_override=None, strategy_filter=None) -> RunConfig:
    """Parse and validate a run config.

    Returns the RunConfig, or raises one ConfigError that carries every fault
    found, one message each, keyed like `backtest.start` or `strategies[0].rho`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path} ({exc.strerror})") from None
    repeated = []  # json.loads alone keeps the last value of a key given twice in one object

    def unique_keys(pairs):
        repeated.extend(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        return dict(pairs)

    try:
        raw = json.loads(data, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    errors = [f"repeated key {key!r}" for key in repeated]

    known = {"data_dir", "output_dir", "universe", "seed", "backtest", "search", "strategies", "report_spans"}
    for u in sorted(set(raw) - known):
        errors.append(f"{u}: unknown top-level key")

    data_dir = raw.get("data_dir")
    if data_dir in (None, ""):
        errors.append("data_dir: required")
    else:
        _check_dir(data_dir, "data_dir", errors)
    output_dir = out_override or raw.get("output_dir", "dfolio_out")
    _check_dir(output_dir, "output_dir", errors)
    if seed_override is None:
        seed = _check_number(raw.get("seed", BacktestConfig.seed), "seed", errors, minimum=0, integer=True)
    else:
        seed = _check_number(seed_override, "--seed", errors, minimum=0, integer=True)
    backtest = _read_section(BacktestConfig, raw.get("backtest", {}), "backtest", errors, set_elsewhere=("seed", "search"))
    search = _read_section(SearchSpace, raw.get("search", {}), "search", errors)

    roster = _build_roster(raw.get("strategies", "default"), errors)
    if strategy_filter:
        wanted = [s.strip() for s in strategy_filter.split(",") if s.strip()]
        by_name = {s.name: s for s in roster}
        missing = [w for w in wanted if w not in by_name]
        for m in missing:
            errors.append(f"--strategies: {m!r} not in the configured roster")
        roster = tuple(by_name[w] for w in wanted if w in by_name)
    if not roster:
        errors.append("strategies: empty roster")

    universe = raw.get("universe")
    if universe is not None and (
        not isinstance(universe, list) or not all(isinstance(t, str) for t in universe)
    ):
        errors.append("universe: expected a list of ticker strings")
        universe = None
    elif universe == []:
        errors.append("universe: empty list; leave the key out to use every ticker in data_dir")
    elif universe:
        errors.extend(f"universe: repeated ticker {t!r}" for t, n in Counter(universe).items() if n > 1)

    spans = {}
    raw_spans = raw.get("report_spans", {})
    if not isinstance(raw_spans, dict):
        errors.append("report_spans: expected an object of name -> [start, end]")
        raw_spans = {}
    for name, pair in raw_spans.items():
        if name == "full":
            errors.append("report_spans.full: reserved span name")
            continue
        if "/" in name or "\0" in name:
            errors.append(f"report_spans.{name}: a span name is part of a file name, so no '/' or NUL")
            continue
        try:
            fits = len(os.fsencode(f"nav_{name}.csv")) <= NAME_MAX
        except UnicodeEncodeError:  # a lone surrogate from a JSON escape
            fits = False
        if not fits:
            errors.append(
                f"report_spans.{name}: a span name is part of a file name, "
                f"so nav_<name>.csv must encode to at most {NAME_MAX} bytes"
            )
            continue
        if not isinstance(pair, list) or len(pair) != 2:
            errors.append(f"report_spans.{name}: expected [start, end]")
            continue
        s = _parse_iso(pair[0], f"report_spans.{name}[0]", errors)
        e = _parse_iso(pair[1], f"report_spans.{name}[1]", errors)
        if s and e:
            spans[name] = (s, e)

    if errors:
        raise ConfigError(*errors)
    return RunConfig(
        data_dir=Path(data_dir),
        output_dir=Path(output_dir),
        universe=universe,
        backtest=BacktestConfig(**backtest, seed=seed, search=SearchSpace(**search)),
        roster=roster,
        report_spans=spans,
    )


def _check_spans(nav_dates, spans) -> None:
    """One ConfigError naming every report span that covers fewer than 2 NAV dates."""
    errors = []
    for name, (start, end) in spans.items():
        try:
            span_bounds(nav_dates, start, end)
        except ValueError as exc:
            errors.append(f"report_spans.{name}: {exc}")
    if errors:
        raise ConfigError(*errors)


def cmd_ingest(args) -> int:
    out = _output_dir(args.out, "--out")
    series = load_series(args.data)
    frame = align_series(series)
    dropped = len(set().union(*(bars.days for bars in series.values()))) - frame.n_dates
    del series  # frees the parsed columns before the indicators allocate
    features = compute_indicators(frame)
    out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(frame, out / "panel.csv")
    write_features_csv(features, out / "features.csv")
    print(f"assets: {frame.n_assets} ({', '.join(frame.tickers)})")
    print(f"dates: {frame.n_dates} from {frame.dates[0]} to {frame.dates[-1]}")
    print(f"dropped non-common dates: {dropped}")
    print(f"wrote {out / 'panel.csv'} and {out / 'features.csv'}")
    return 0


def cmd_backtest(args) -> int:
    run = load_run_config(args.config, seed_override=args.seed, out_override=args.out, strategy_filter=args.strategies)
    out = _output_dir(run.output_dir, "output_dir")
    frame = align_series(load_series(run.data_dir, tickers=run.universe))
    frame.check_usable()
    # Config faults that only the data reveal, reported before any training.
    rebs = rebalance_dates(frame, run.backtest)
    # Every NAV starts the day before the first rebalance and runs to the end.
    _check_spans(frame.dates[frame.index_of(rebs[0]) - 1 :], run.report_spans)

    ledgers = run_backtest(frame, run.roster, run.backtest)
    series = nav_series(ledgers)
    spans = {"full": (None, None), **run.report_spans}
    report = subperiod_report(series, spans) if series else {}
    out.mkdir(parents=True, exist_ok=True)
    write_nav_csv(ledgers, out / "nav.csv")
    write_weights_csv(ledgers, frame.tickers, out / "weights.csv")
    write_hparams_csv(ledgers, out / "hparams.csv")
    write_metrics_json(report, out / "metrics.json")
    write_metrics_csv(report, out / "metrics.csv")
    write_plotdata(series, spans, out / "plotdata")

    print(f"{'strategy':<24} status")
    for name, led in ledgers.items():
        print(f"{name:<24} {'ok' if led.error is None else f'FAILED: {led.error}'}")
    print(f"outputs -> {out}")
    return 1 if any(led.error is not None for led in ledgers.values()) else 0


def _delta_cell(va, vb) -> str:
    """One metric of `compare`: b - a, marked `!` where the sign flips."""
    if va is None or vb is None:
        return f"{'n/a':>13}"
    return f"{vb - va:+12.4f}{'!' if (va < 0) != (vb < 0) else ' '}"


def cmd_compare(args) -> int:
    a, b = (read_metrics_json(Path(run) / "metrics.json") for run in (args.run_a, args.run_b))
    drift = run_drift(args.run_a, args.run_b)
    metrics = [f.name for f in fields(MetricsRow)]
    print(f"{'strategy':<24} {'span':<10} " + " ".join(f"{m[:12]:>13}" for m in metrics))
    unmatched_spans = []
    for strategy in (s for s in a if s in b):
        sa, sb = a[strategy], b[strategy]
        unmatched_spans += [f"{strategy}.{span}" for span in [*sa, *sb] if (span in sa) != (span in sb)]
        for span in (s for s in sa if s in sb):
            pairs = ((getattr(sa[span], m), getattr(sb[span], m)) for m in metrics)
            print(f"{strategy:<24} {span:<10} " + " ".join(_delta_cell(va, vb) for va, vb in pairs))
    unmatched = sorted(set(a) ^ set(b))
    if unmatched:
        print("unmatched strategies: " + ", ".join(unmatched))
    if unmatched_spans:
        print("unmatched spans: " + ", ".join(unmatched_spans))

    width = max([len("strategy"), *map(len, drift)])
    print(f"\n{'strategy':<{width}}  {'max |dw|':>9}  {'max nav drift':>13}  {'winners moved':>13}  identical")
    for strategy, s in drift.items():
        moved = f"{s['moved']}/{s['rebalances']}"
        print(f"{strategy:<{width}}  {s['weight']:>9.2g}  {s['nav']:>13.2g}  {moved:>13}  {'yes' if s['identical'] else 'no'}")
    return 0


def cmd_synth(args) -> int:
    errors: list[str] = []
    for key, minimum in (("assets", 1), ("days", 2), ("seed", 0)):
        _check_number(getattr(args, key), f"--{key}", errors, minimum, integer=True)
    if errors:
        raise ConfigError(*errors)
    out = _output_dir(args.out, "--out")
    frame, _, _ = generate_synthetic(SyntheticSpec(n_assets=args.assets, n_days=args.days, seed=args.seed))
    write_csv_dir(frame, out)
    print(f"wrote {frame.n_assets} tickers x {frame.n_dates} days to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfolio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="align a directory of per-ticker CSVs")
    p_ingest.add_argument("--data", required=True, help="directory of per-ticker OHLCV CSVs")
    p_ingest.add_argument("--out", required=True, help="output directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_bt = sub.add_parser("backtest", help="run the configured rolling backtest")
    p_bt.add_argument("--config", required=True, help="path to the JSON run config")
    p_bt.add_argument("--seed", type=int, default=None, help="override config seed")
    p_bt.add_argument("--out", default=None, help="override output directory")
    p_bt.add_argument("--strategies", default=None, help="comma list restricting the roster")
    p_bt.set_defaults(func=cmd_backtest)

    p_cmp = sub.add_parser("compare", help="diff two backtest output directories: metric deltas and drift")
    p_cmp.add_argument("run_a", help="backtest output directory of the reference run")
    p_cmp.add_argument("run_b", help="backtest output directory compared with it")
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="write a seeded synthetic market as CSVs")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--assets", type=int, default=10)
    p_synth.add_argument("--days", type=int, default=1008)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DfolioError as exc:
        prefix = "config error" if isinstance(exc, ConfigError) else "error"
        for line in str(exc).split("\n"):
            print(f"{prefix}: {line}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
