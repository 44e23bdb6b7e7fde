"""Runs one dfolio CLI command in this fresh process and reports its cost.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds ``argv`` (the CLI arguments), ``boundary`` (the function whose first
call ends set-up: ``backtest.run_window`` or ``cli.write_panel_csv``),
``trace`` (0 or 1), ``spans`` (where a traced run writes its spans) and
``probe_argv`` (the arguments of the set-up probes, or null for none). The
command is timed from the call into ``dfolio.cli.main`` until it returns, after
the last artifact is written. Peak resident memory is this process's
high-water mark right after the command. With tracing off and probes asked
for, set-up is then timed again by re-running the command until its boundary,
until there are at least MIN_SETUP_SAMPLES samples and they add up to at least
PROBE_BUDGET_S.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBES = 15
# A set-up of 1.5–3.5 s (wide_decisions, ingest_decade) fills the budget in
# one sample; the minimum gives those workloads several samples per round.
MIN_SETUP_SAMPLES = 3
PROBE_BUDGET_S = 0.6


class SetupDone(BaseException):
    """Raised at the set-up boundary of a probe; not an Exception, so the
    backtest's per-strategy isolation does not swallow it."""


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def import_dfolio():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dfolio
    import dfolio.cli  # noqa: F401

    if Path(dfolio.__file__).resolve().parent != (src / "dfolio").resolve():
        raise ImportError(f"dfolio imported from {dfolio.__file__}, not from {src}")
    return dfolio


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    dfolio = import_dfolio()
    from tracing import Tracer

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(dfolio)

    module_name, attr = spec["boundary"].split(".")
    module = getattr(dfolio, module_name)
    inner = getattr(module, attr)
    stamps: list[float] = []
    probing = False

    def boundary(*args, **kwargs):
        if not stamps or probing:
            stamps.append(time.perf_counter())
        if probing:
            raise SetupDone
        return inner(*args, **kwargs)

    setattr(module, attr, boundary)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = dfolio.cli.main(spec["argv"])
        t1 = time.perf_counter()
    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "peak_rss_mb": peak_rss_mb(),
        "stdout": out.getvalue(),
        "setup_s": [stamps[0] - t0] if stamps else [],
    }
    if tracer is not None:
        tracer.write(spec["spans"])
    elif stamps and spec["probe_argv"]:
        probing = True
        samples = result["setup_s"]
        while len(samples) < MAX_PROBES and (len(samples) < MIN_SETUP_SAMPLES or sum(samples) < PROBE_BUDGET_S):
            stamps.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                p0 = time.perf_counter()
                try:
                    dfolio.cli.main(spec["probe_argv"])
                except SetupDone:
                    pass
            if not stamps:
                break
            samples.append(stamps[0] - p0)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
