"""Batch command line: ingest data, run backtests, compare reports, make synthetic data.

Commands:
  dfolio ingest   --data DIR --out DIR
  dfolio backtest --config cfg.json [--seed N] [--out DIR] [--strategies a,b]
  dfolio compare  metrics_a.json metrics_b.json
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
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path

from .backtest import BacktestConfig, StrategySpec, default_roster, rebalance_dates, run_backtest
from .features import compute_indicators, write_features_csv
from .market_data import SyntheticSpec, align_series, generate_synthetic, load_series, write_csv_dir
from .metrics import span_bounds, subperiod_report
from .reports import (
    nav_series,
    write_hparams_csv,
    write_metrics_csv,
    write_metrics_json,
    write_nav_csv,
    write_panel_csv,
    write_plotdata,
    write_weights_csv,
    read_metrics_json,
)
from .util import ConfigError, DfolioError, UsageError


# The roster parser reads these straight off the dataclass, so it cannot drift from it.
SPEC_FIELDS = tuple(f.name for f in fields(StrategySpec))
SPEC_REQUIRED = tuple(f.name for f in fields(StrategySpec) if f.default is MISSING)
# Type checks ahead of StrategySpec's own value checks: a wrong type there fails
# only at the first rebalance, or is coerced silently (True as rho 1.0).
SPEC_NUMBERS = ("gamma", "lam", "rho")
SPEC_COUNTS = ("hidden",)
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
            base = defaults[item["name"]]
            item = {**base.__dict__, **item}
        for fld in SPEC_REQUIRED:
            if fld not in item:
                errors.append(f"{key}.{fld}: required")
        for u in sorted(set(item) - set(SPEC_FIELDS)):
            errors.append(f"{key}.{u}: unknown field")
        kwargs = {fld: item[fld] for fld in SPEC_FIELDS if fld in item}
        n_errors = len(errors)
        if not isinstance(kwargs.get("name", ""), str):
            errors.append(f"{key}.name: expected a string, got {kwargs['name']!r}")
        for fld in SPEC_NUMBERS + SPEC_COUNTS:
            if fld in kwargs:
                kwargs[fld] = _check_number(kwargs[fld], f"{key}.{fld}", errors, integer=fld in SPEC_COUNTS)
        if len(errors) == n_errors and all(fld in kwargs for fld in SPEC_REQUIRED):
            try:
                roster.append(StrategySpec(**kwargs))
            except (TypeError, ValueError) as exc:
                errors.append(f"{key}: {exc}")
    names = [s.name for s in roster]
    if len(set(names)) != len(names):
        errors.append("strategies: duplicate names")
    return tuple(roster)


def load_run_config(path, seed_override=None, out_override=None, strategy_filter=None) -> RunConfig:
    """Parse and validate a run config.

    Returns the RunConfig, or raises one ConfigError that carries every fault
    found, one message each, keyed like `backtest.start` or `strategies[0].rho`.
    """
    errors: list[str] = []
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path} ({exc.strerror})") from None
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

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
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed: expected a non-negative integer, got {seed!r}")
        seed = 0

    bt = raw.get("backtest", {})
    if not isinstance(bt, dict):
        errors.append("backtest: expected an object")
        bt = {}
    start = _parse_iso(bt.get("start"), "backtest.start", errors)
    end = _parse_iso(bt.get("end"), "backtest.end", errors)
    fee_rate = _check_number(bt.get("fee_rate", 0.005), "backtest.fee_rate", errors, minimum=0.0)
    train_months = _check_number(bt.get("train_months", 9), "backtest.train_months", errors, 1, integer=True)
    val_months = _check_number(bt.get("validation_months", 3), "backtest.validation_months", errors, 1, integer=True)
    batch_size = _check_number(bt.get("batch_size", 63), "backtest.batch_size", errors, 1, integer=True)

    search = raw.get("search", {})
    if not isinstance(search, dict):
        errors.append("search: expected an object")
        search = {}
    lr_min = _check_number(search.get("lr_min", 1e-4), "search.lr_min", errors, minimum=0.0)
    lr_max = _check_number(search.get("lr_max", 5e-2), "search.lr_max", errors, minimum=0.0)
    if lr_min is not None and lr_max is not None and not 0 < lr_min <= lr_max:
        errors.append("search.lr_min: need 0 < lr_min <= lr_max")
    epochs_min = _check_number(search.get("epochs_min", 20), "search.epochs_min", errors, 1, integer=True)
    epochs_max = _check_number(search.get("epochs_max", 40), "search.epochs_max", errors, 1, integer=True)
    if epochs_min is not None and epochs_max is not None and epochs_min > epochs_max:
        errors.append("search.epochs_min: must be <= search.epochs_max")
    n_trials = _check_number(search.get("n_trials", 20), "search.n_trials", errors, 1, integer=True)

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
    if start > end:
        raise ConfigError("backtest.start: must be <= backtest.end")

    config = BacktestConfig(
        start=start,
        end=end,
        train_months=train_months,
        validation_months=val_months,
        fee_rate=fee_rate,
        seed=seed,
        n_trials=n_trials,
        lr_min=lr_min,
        lr_max=lr_max,
        epochs_min=epochs_min,
        epochs_max=epochs_max,
        batch_size=batch_size,
    )
    return RunConfig(
        data_dir=Path(data_dir),
        output_dir=Path(output_dir),
        universe=universe,
        backtest=config,
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
    features = compute_indicators(frame)
    out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(frame, out / "panel.csv")
    write_features_csv(features, out / "features.csv")
    union = set()
    for bars in series.values():
        union |= {b.day for b in bars}
    dropped = len(union) - frame.n_dates
    print(f"assets: {frame.n_assets} ({', '.join(frame.tickers)})")
    print(f"dates: {frame.n_dates} from {frame.dates[0]} to {frame.dates[-1]}")
    print(f"dropped non-common dates: {dropped}")
    print(f"wrote {out / 'panel.csv'} and {out / 'features.csv'}")
    return 0


def cmd_backtest(args) -> int:
    run = load_run_config(args.config, seed_override=args.seed, out_override=args.out, strategy_filter=args.strategies)
    out = _output_dir(run.output_dir, "output_dir")
    frame = align_series(load_series(run.data_dir))
    if run.universe:
        frame = frame.select(run.universe)
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


def cmd_compare(args) -> int:
    a = read_metrics_json(args.metrics_a)
    b = read_metrics_json(args.metrics_b)
    common = [s for s in a if s in b]
    unmatched = sorted(set(a) ^ set(b))
    metrics = ["annualized_return", "annualized_volatility", "sharpe", "sortino", "max_drawdown"]
    print(f"{'strategy':<24} {'span':<10} " + " ".join(f"{m[:12]:>13}" for m in metrics))
    for strategy in common:
        for span in a[strategy]:
            if span not in b[strategy]:
                continue
            ra, rb = a[strategy][span].as_dict(), b[strategy][span].as_dict()
            cells = []
            for m in metrics:
                va, vb = ra[m], rb[m]
                if va is None or vb is None:
                    cells.append(f"{'n/a':>13}")
                    continue
                delta = vb - va
                flip = "!" if (va < 0) != (vb < 0) else " "
                cells.append(f"{delta:+12.4f}{flip}")
            print(f"{strategy:<24} {span:<10} " + " ".join(cells))
    if unmatched:
        print("unmatched strategies: " + ", ".join(unmatched))
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

    p_cmp = sub.add_parser("compare", help="diff two metrics.json reports")
    p_cmp.add_argument("metrics_a")
    p_cmp.add_argument("metrics_b")
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
