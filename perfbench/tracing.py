"""Span tracing from outside the program.

Each public function is wrapped in the module namespace where its caller looks
the name up (for example ``dfolio.backtest.solve_fee`` or
``dfolio.training.argmax_batch``), so nested calls are caught. Spans are kept
in memory, written out as CSV at the end, and reduced to per-layer metrics:
``<layer>.<function>_s`` is self time (span minus its nested traced spans),
the other measures are counts.
"""

from __future__ import annotations

import csv
import os
import time
from collections import defaultdict
from pathlib import Path

from gen import DEFAULT_ROSTER

PROBLEM_KINDS = ("max_return", "max_return_fee", "max_return_fee_l2")
REPORT_WRITERS = (
    "write_nav_csv",
    "write_weights_csv",
    "write_hparams_csv",
    "write_metrics_json",
    "write_metrics_csv",
    "write_plotdata",
    "write_panel_csv",
)


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return 1 if shape is not None and len(shape) < 2 else len(a)


def _bytes_written(result) -> int:
    paths = result if isinstance(result, list) else [result]
    return sum(os.path.getsize(p) for p in paths)


def _dropped_dates(args, result) -> int:
    union = set()
    for bars in args[0].values():
        union.update(b.day for b in bars)
    return len(union) - result.n_dates


class Tracer:
    """Records (id, parent, name, label, start_ns, end_ns, n) per wrapped call.

    ``label`` splits a metric (strategy name, problem kind); ``n`` carries the
    span's count (rows, epochs, trials, bytes, seed) where the metric has one.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, module, attr: str, name: str, label=None, before=None, after=None):
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            lab = label(args) if label else ""
            n = before(args) if before else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            if after:
                n = after(args, result)
            spans.append((sid, parent, name, lab, t0, t1, n))
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def install(self, dfolio) -> None:
        """Wrap every traced call site of an imported ``dfolio`` package."""
        bt, cli, tr = dfolio.backtest, dfolio.cli, dfolio.training
        spo, sdfl = dfolio.spo, dfolio.softmax_dfl
        w = self.wrap
        w(cli, "load_series", "market_data.load_series", after=lambda a, r: sum(len(v) for v in r.values()))
        w(cli, "align_series", "market_data.align_series", after=_dropped_dates)
        w(bt, "compute_returns", "market_data.compute_returns")
        w(bt, "compute_indicators", "features.compute_indicators")
        w(cli, "compute_indicators", "features.compute_indicators")
        w(bt, "standardize", "features.standardize")
        w(cli, "write_features_csv", "features.write_features_csv")
        w(bt, "run_window", "backtest.run_window", label=lambda a: a[0].name)
        w(bt, "accrue", "backtest.accrue")
        w(bt, "hyperparameter_search", "training.hyperparameter_search", after=lambda a, r: len(r.trials))
        epochs = lambda a: a[2].epochs  # noqa: E731
        w(bt, "train", "training.train", before=epochs)
        w(tr, "train", "training.train", before=epochs)
        w(tr, "validation_score", "training.validation_score")
        rows = lambda a: _rows(a[0])  # noqa: E731
        w(tr, "spo_plus_batch", "spo.spo_plus_batch", before=rows)
        w(spo, "spo_plus_batch", "spo.spo_plus_batch", before=rows)
        w(tr, "robust_spo_batch", "spo.robust_spo_batch")
        w(tr, "perturbation_set", "spo.perturbation_set", before=lambda a: a[2].seed)
        kind = lambda a: a[1].kind  # noqa: E731
        w(tr, "argmax_batch", "solvers.argmax_batch", label=kind, before=rows)
        w(spo, "argmax_batch", "solvers.argmax_batch", label=kind, before=rows)
        w(bt, "solve_fee", "solvers.solve_fee")
        w(bt, "solve_fee_l2", "solvers.solve_fee_l2")
        w(bt, "solve_max_sharpe", "solvers.solve_max_sharpe")
        w(bt, "estimate_covariance", "solvers.estimate_covariance")
        w(sdfl, "estimate_covariance", "solvers.estimate_covariance")
        w(bt, "train_dfl", "softmax_dfl.train_dfl", before=lambda a: a[3].epochs)
        w(cli, "subperiod_report", "metrics.subperiod_report")
        for attr in REPORT_WRITERS:
            w(cli, attr, "reports.write", after=lambda a, r: _bytes_written(r))

    def write(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "label", "start_ns", "end_ns", "n"])
            out.writerows(self.spans)


def read_spans(path) -> list[tuple]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(s), int(p), name, lab, int(t0), int(t1), int(n)) for s, p, name, lab, t0, t1, n in reader]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced command; every name is always present."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_s: dict[tuple, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[tuple, int] = defaultdict(int)
    seeds: set[int] = set()
    for sid, _, name, lab, t0, t1, n in spans:
        self_s[name, lab] += (t1 - t0 - child_ns[sid]) * 1e-9
        calls[name] += 1
        total[name, lab] += n
        if name == "spo.perturbation_set":
            seeds.add(n)

    def s(name, lab=""):
        return self_s.get((name, lab), 0.0)

    def n(name, lab=""):
        return total.get((name, lab), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "market_data.load_series_s": s("market_data.load_series"),
        "market_data.load_series.rows": n("market_data.load_series"),
        "market_data.align_series_s": s("market_data.align_series"),
        "market_data.align_series.dropped_dates": n("market_data.align_series"),
        "market_data.compute_returns_s": s("market_data.compute_returns"),
        "features.compute_indicators_s": s("features.compute_indicators"),
        "features.standardize_s": s("features.standardize"),
        "features.standardize.calls": calls["features.standardize"],
        "features.write_features_csv_s": s("features.write_features_csv"),
    }
    for strategy in DEFAULT_ROSTER:
        m[f"backtest.run_window_s.{strategy}"] = s("backtest.run_window", strategy)
    m["backtest.run_window.calls"] = calls["backtest.run_window"]
    m["backtest.accrue_s"] = s("backtest.accrue")
    m["training.hyperparameter_search_s"] = s("training.hyperparameter_search")
    m["training.train_s"] = s("training.train")
    m["training.train.calls"] = calls["training.train"]
    m["training.train.epochs"] = n("training.train")
    m["training.train.useful_ratio"] = ratio(n("training.hyperparameter_search"), calls["training.train"])
    m["training.validation_score_s"] = s("training.validation_score")
    m["spo.spo_plus_batch_s"] = s("spo.spo_plus_batch")
    m["spo.spo_plus_batch.rows"] = n("spo.spo_plus_batch")
    m["spo.robust_spo_batch_s"] = s("spo.robust_spo_batch")
    m["spo.perturbation_set_s"] = s("spo.perturbation_set")
    m["spo.perturbation_set.calls"] = calls["spo.perturbation_set"]
    m["spo.perturbation_set.useful_ratio"] = ratio(len(seeds), calls["spo.perturbation_set"])
    for kind in PROBLEM_KINDS:
        m[f"solvers.argmax_batch_s.{kind}"] = s("solvers.argmax_batch", kind)
        m[f"solvers.argmax_batch.rows.{kind}"] = n("solvers.argmax_batch", kind)
    for solver in ("solve_fee", "solve_fee_l2", "solve_max_sharpe"):
        m[f"solvers.{solver}_s"] = s(f"solvers.{solver}")
        m[f"solvers.{solver}.calls"] = calls[f"solvers.{solver}"]
    m["solvers.estimate_covariance_s"] = s("solvers.estimate_covariance")
    m["softmax_dfl.train_dfl_s"] = s("softmax_dfl.train_dfl")
    m["softmax_dfl.train_dfl.calls"] = calls["softmax_dfl.train_dfl"]
    m["softmax_dfl.train_dfl.epochs"] = n("softmax_dfl.train_dfl")
    m["metrics.subperiod_report_s"] = s("metrics.subperiod_report")
    m["reports.write_s"] = s("reports.write")
    m["reports.write.bytes"] = n("reports.write")
    return m
