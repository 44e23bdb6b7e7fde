"""The benchmark's tracer (perfbench/tracing.py) must still attach to dfolio.

It wraps names in dfolio's module namespaces, such as dfolio.backtest.train and
dfolio.backtest.train_dfl; a refactor that drops one breaks every traced run.
Installing rewrites module attributes, so it runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ATTACH = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import dfolio
import dfolio.cli
import tracing
tracing.Tracer().install(dfolio)
"""


def test_tracer_installs_on_dfolio():
    code = ATTACH.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
