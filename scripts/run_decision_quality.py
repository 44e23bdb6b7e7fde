"""Decision-quality study: MSE vs SPO+ vs robust SPO+ on planted-signal markets.

For each seed, a linear return signal is planted in exogenous features; the
training span carries extreme volatility bursts (which wreck least-squares
fits but not bounded-subgradient decision losses), and the test span carries
moderate adverse-regime bursts. All three trained predictors drive the same
fee-aware oracle; the script reports mean and worst-decile out-of-sample
decision regret per seed.

Usage: python scripts/run_decision_quality.py [--seeds N] [--base SEED]
"""

import argparse
import sys

import numpy as np

from dfolio.market_data import SyntheticSpec, compute_returns, generate_synthetic
from dfolio.solvers import MAX_RETURN_FEE, DecisionProblem, Portfolio, argmax_batch
from dfolio.spo import RobustConfig
from dfolio.training import MSE, ROBUST_SPO, SPO_PLUS, TrainConfig, predict, train
from dfolio.util import derived_rng


def burst_breaks(seed, lo, hi, mult, width, gap, start=20):
    rng = derived_rng(seed, "bursts", lo)
    breaks, day = [], lo + start
    while True:
        day += int(rng.integers(*gap))
        if day >= hi - width:
            break
        breaks.append((day, mult))
        breaks.append((day + width, 1.0))
        day += width
    return breaks


def run_seed(seed, n_assets=6, n_train=378, n_test=600):
    n_days = n_train + n_test
    breaks = burst_breaks(seed, 0, n_train, 120.0, 3, (6, 28))
    breaks += burst_breaks(seed + 999, n_train, n_days, 6.0, 5, (10, 30), start=5)
    spec = SyntheticSpec(
        n_assets=n_assets,
        n_days=n_days,
        seed=seed,
        signal_coefficients=(0.012, -0.008, 0.005),
        noise_scale=0.003,
        regime_breaks=tuple(breaks),
    )
    frame, tensor, _ = generate_synthetic(spec)
    x = tensor.features[:-1]
    y = compute_returns(frame).simple_returns
    xtr, ytr, xte, yte = x[:n_train], y[:n_train], x[n_train:], y[n_train:]
    prob = DecisionProblem(kind=MAX_RETURN_FEE, gamma=0.005, w_prev=Portfolio.uniform(n_assets))
    base = dict(batch_size=63, seed=seed, fit_intercept=False)

    w_star = argmax_batch(yte, prob)
    fee = lambda W: prob.gamma * np.abs(W - prob.w_prev.weights).sum(axis=1)
    best_val = (yte * w_star).sum(axis=1) - fee(w_star)

    out = {}
    for key, kind, extra in (
        ("mse", MSE, {}),
        ("spo", SPO_PLUS, {}),
        ("robust", ROBUST_SPO, {"robust": RobustConfig(rho=0.1)}),
    ):
        model = train(xtr, ytr, TrainConfig(loss_kind=kind, problem=prob, **extra, **base), [0.01], [40])[0]
        W = argmax_batch(predict(model, xte), prob)
        out[key] = best_val - ((yte * W).sum(axis=1) - fee(W))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--base", type=int, default=1000)
    args = parser.parse_args()

    tail = lambda v: float(v[v >= np.quantile(v, 0.9)].mean())
    spo_wins = robust_wins = 0
    print(f"{'seed':>6} {'mse mean':>10} {'spo mean':>10} {'spo tail':>10} {'rob tail':>10}")
    for s in range(args.seeds):
        r = run_seed(args.base + s)
        spo_wins += r["spo"].mean() <= r["mse"].mean()
        robust_wins += tail(r["robust"]) <= tail(r["spo"])
        print(
            f"{args.base + s:>6} {r['mse'].mean():10.5f} {r['spo'].mean():10.5f} "
            f"{tail(r['spo']):10.5f} {tail(r['robust']):10.5f}"
        )
    print(f"\nSPO+ mean regret <= MSE:            {spo_wins}/{args.seeds}")
    print(f"robust worst-decile <= SPO+ tail:   {robust_wins}/{args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
