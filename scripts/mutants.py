"""Check that the tests catch a list of one-line faults (mutants).

Each mutant replaces one line of one source file and names the tests that
must fail. It is applied to its own copy of the committed tree (`git archive
HEAD`) in a temporary directory, and only its tests run there, so the whole
list runs in minutes. A mutant survives when any of its tests passes. The
list only grows: a change that mends a fault the tests missed adds its
mutant here.

Usage (from the repository root):
  python3 scripts/mutants.py

Exits 1 when a mutant survives, its tests cannot run, or its old line does
not occur exactly once in its file; else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # the source file, relative to the repository root
    old: str  # one line of it, without its indentation
    new: str  # the line that replaces it, at the same indentation
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


BACKTEST, TRAINING = "src/dfolio/backtest.py", "src/dfolio/training.py"
MUTANTS = (
    Mutant(
        "softmax-negated-decision-row", BACKTEST,
        "return allocate(result.model, z[cut]), result.best",
        "return allocate(result.model, -z[cut]), result.best",
        ("tests/test_backtest.py::TestRunWindow::test_window_arithmetic",),
    ),
    Mutant(
        "search-keeps-worst-trial", TRAINING,
        "best = int(np.argmax(scores >= top - SCORE_TIE_TOL * max(1.0, abs(top))))",
        "best = int(np.argmin(scores))",
        ("tests/test_training.py::TestSearch::test_best_is_max_score",
         "tests/test_training.py::TestSearch::test_earliest_trial_wins_ties"),
    ),
    Mutant(
        "spo-plus-gradient-ascent", "src/dfolio/spo.py",
        "grads = 2.0 * (w_tilde - w_star_rows)",
        "grads = -2.0 * (w_tilde - w_star_rows)",
        ("tests/test_training.py::TestTrain::test_spo_ranks_dominant_asset_first",
         "tests/test_training.py::TestTrain::test_spo_gradient_through_linear_map"),
    ),
    Mutant(
        "mse-gradient-ascent", TRAINING,
        "g_rhat = 2.0 * resid",
        "g_rhat = -2.0 * resid",
        ("tests/test_training.py::TestTrain::test_mse_recovers_planted_beta",
         "tests/test_training.py::TestTrain::test_mse_trace_non_increasing_full_batch"),
    ),
    Mutant(
        "validation-score-ignores-fee", TRAINING,
        "value = value - prob.gamma * np.abs(w_rows - prob.w_prev.weights).sum(axis=1)",
        "value = value",
        ("tests/test_training.py::TestSearch::test_decision_score_subtracts_fee",),
    ),
    Mutant(
        "negated-linear-decision", BACKTEST,
        "r_hat = predict(result.model, z[cut])",
        "r_hat = -predict(result.model, z[cut])",
        ("tests/test_backtest.py::TestRunWindow::test_spo_plus_decides_toward_perfect_foresight",
         "tests/test_backtest.py::TestRunBacktest::test_decisions_replay_from_predictions_and_drifted_priors"),
    ),
    Mutant(
        "uniform-prior-for-fee-decisions", BACKTEST,
        "target, trial = run_window(strategy, t, data, config, w_prev=Portfolio(ledger.live_weights))",
        "target, trial = run_window(strategy, t, data, config, w_prev=Portfolio.uniform(frame.n_assets))",
        ("tests/test_backtest.py::TestRunBacktest::test_decisions_replay_from_predictions_and_drifted_priors",),
    ),
    Mutant(
        "fee-l2-decides-without-ridge", BACKTEST,
        "return solve_fee_l2(r_hat, problem), result.best",
        "return solve_fee(r_hat, DecisionProblem(MAX_RETURN_FEE, gamma=strategy.gamma, w_prev=w_prev)), result.best",
        ("tests/test_backtest.py::TestRunBacktest::test_decisions_replay_from_predictions_and_drifted_priors",),
    ),
    Mutant(
        "backtest-reads-tickers-outside-universe", "src/dfolio/cli.py",
        "frame = align_series(load_series(run.data_dir, tickers=run.universe))",
        "frame = align_series(load_series(run.data_dir))",
        ("tests/test_cli.py::TestSynthAndIngest::test_ticker_outside_universe_leaves_the_calendar",
         "tests/test_cli.py::TestSynthAndIngest::test_malformed_file_outside_universe_is_not_read"),
    ),
    Mutant(
        "softmax-w1-gradient-not-averaged", "src/dfolio/softmax_dfl.py",
        'grads["w1"] = dpre1.transpose(0, 2, 1) @ r_hat / b',
        'grads["w1"] = dpre1.transpose(0, 2, 1) @ r_hat',
        ("tests/test_softmax_dfl.py::TestGradients::test_full_network_finite_differences",
         "tests/test_acceptance.py::test_criterion_2_gradient_checks"),
    ),
    Mutant(
        "softmax-w2-gradient-trials-reversed", "src/dfolio/softmax_dfl.py",
        '"w2": dlogits.transpose(0, 2, 1) @ h / b,',
        '"w2": (dlogits.transpose(0, 2, 1) @ h / b)[::-1],',
        ("tests/test_stacked_training.py::test_every_trial_equals_its_one_trial_call",),
    ),
    Mutant(
        "csv-path-skips-row-scan", "src/dfolio/market_data.py",
        "prev_day = _check_row(path, line_no, row, prev_day)",
        "prev_day = None",
        ("tests/test_market_data.py::TestParseErrors::test_exact_message_and_line",),
    ),
    Mutant(
        "max-return-oracle-negated", "src/dfolio/solvers.py",
        "return Portfolio(argmax_batch(coeff[None], DecisionProblem())[0])",
        "return Portfolio(argmax_batch(-coeff[None], DecisionProblem())[0])",
        ("tests/test_solvers.py::TestMaxReturn::test_basic",
         "tests/test_solvers.py::TestMaxReturn::test_all_negative"),
    ),
    Mutant(
        "duplicate-ticker-file-replaces-first", "src/dfolio/market_data.py",
        "if by_stem.setdefault(f.stem, f) is not f:",
        "if by_stem.__setitem__(f.stem, f):",
        ("tests/test_market_data.py::TestIngest::test_two_files_of_one_ticker_are_an_error",),
    ),
)


def mutate(mutant: Mutant, text: str) -> str:
    """`text` with the mutant's line replaced; ValueError unless the old line occurs exactly once."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: the old line occurs {len(hits)} times in {mutant.path}, not once")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    return "".join(lines)


def surviving_tests(mutant: Mutant, archive: bytes) -> list[str]:
    """The mutant's tests that did not fail on its copy of the tree; raises RuntimeError if they could not run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the copy's src/, never this checkout's
    with tempfile.TemporaryDirectory(prefix="dfolio-mutant-") as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        target = Path(tmp, mutant.path)
        target.write_text(mutate(mutant, target.read_text()))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):  # 1: some tests failed; anything else: they did not run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def main() -> int:
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            survivors = surviving_tests(mutant, archive)
        except (ValueError, RuntimeError) as exc:
            print(f"ERROR     {mutant.name}: {exc}", flush=True)
            bad += 1
            continue
        took = time.perf_counter() - start
        if survivors:
            print(f"SURVIVED  {mutant.name} ({took:.0f} s): passed {', '.join(survivors)}", flush=True)
            bad += 1
        else:
            print(f"killed    {mutant.name} ({took:.0f} s, {len(mutant.tests)} tests failed)", flush=True)
    print(f"{bad} of {len(MUTANTS)} mutants survived or could not run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
