"""Command-line interface.

Subcommands: gen (synthesize a dataset directory), plan (thresholds,
sufficiency, price of quality, frontier), solve (combinatorial decoding
of a dataset directory), lasso (penalized solve plus optional witness),
bound (misranking bounds and Monte Carlo checks), sweep (phase-transition
experiment from a JSON config). All results print as JSON on stdout.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 resource
cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import chernoff, decoders, harness, lasso, planner
from .errors import DegenerateInstanceError, ResourceCapError
from .model import (
    NoiseProfile,
    Setting,
    SparseSignal,
    generate_dataset,
    load_dataset,
    save_dataset,
    signed_support_match,
    snr_report,
    support_error,
)

__all__ = ["main"]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _setting(name: str) -> Setting:
    return {"agnostic": Setting.AGNOSTIC, "informed": Setting.INFORMED}[name]


def _jsonable(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.support is not None:
        support = tuple(_int_list(args.support))
    else:
        support = tuple(range(args.s))
    if args.values is not None:
        values = tuple(_float_list(args.values))
    else:
        values = (args.value,) * len(support)
    signal = SparseSignal(p=args.p, support=support, values=values)
    if args.s != signal.s:
        raise ValueError("--s disagrees with the support length")
    noise = NoiseProfile(
        n1=args.n1, n2=args.n2, sigma1_sq=args.sigma1_sq, sigma2_sq=args.sigma2_sq
    )
    dataset = generate_dataset(signal, noise, args.seed)
    manifest = save_dataset(dataset, args.out)
    report = snr_report(signal.s, noise)
    _emit(
        {
            "written": manifest,
            "p": args.p,
            "s": signal.s,
            "n1": args.n1,
            "n2": args.n2,
            "seed": args.seed,
            "snr": {
                "sigma_avg_sq": report.sigma_avg_sq,
                "snr": _jsonable(report.snr),
                "snr1": _jsonable(report.snr1),
                "snr2": _jsonable(report.snr2),
                "regime": report.regime.value,
            },
        }
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    growth = planner.Growth.LINEAR if args.growth == "linear" else planner.Growth.SUBLINEAR
    regime = planner.RegimeSpec(growth=growth, p=args.p, s=args.s, alpha=args.alpha)
    setting = _setting(args.setting)
    out: dict = {
        "n_star": planner.recovery_threshold(planner.ThresholdKind.N_STAR, regime),
        "n_alg": planner.recovery_threshold(planner.ThresholdKind.N_ALG, regime),
    }
    try:
        out["n_inf"] = planner.recovery_threshold(planner.ThresholdKind.N_INF, regime)
    except ValueError:
        out["n_inf"] = None
    out["price_of_quality"] = planner.price_of_quality(
        setting, args.sigma1_sq, args.sigma2_sq, args.s, args.delta
    )
    if args.n1 is not None and args.n2 is not None:
        chk = planner.check_sufficient(
            setting,
            args.n1,
            args.n2,
            args.sigma1_sq,
            args.sigma2_sq,
            args.s,
            args.delta,
            args.epsilon,
            regime,
        )
        out["check"] = {
            "alpha1": chk.alpha1,
            "alpha2": chk.alpha2,
            "lhs": chk.lhs,
            "target": (1.0 + chk.epsilon) * chk.n_star,
            "holds": chk.holds,
        }
    if args.frontier_n1 is not None:
        pts = planner.sample_frontier(
            setting,
            args.sigma1_sq,
            args.sigma2_sq,
            args.s,
            args.delta,
            args.epsilon,
            regime,
            _int_list(args.frontier_n1),
        )
        out["frontier"] = [
            {"n1": q.n1, "n2": q.n2, "n2_continuous": q.n2_continuous} for q in pts
        ]
    _emit(out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    if args.s is not None:
        s = args.s
    elif dataset.signal is not None:
        s = dataset.signal.s
    else:
        raise ValueError("dataset has no ground truth; pass --s")
    setting = Setting.INFORMED if args.decoder == "informed" else Setting.AGNOSTIC
    if args.decoder == "local":
        res = decoders.decode_local_search(
            dataset, s, setting, restarts=args.restarts, seed=args.seed
        )
    else:
        res = decoders.decode_exhaustive(dataset, s, setting)
    out = {
        "support": list(res.support),
        "loss": res.loss,
        "scanned": res.scanned,
        "exhaustive": res.exhaustive,
    }
    if dataset.signal is not None:
        err = support_error(res.support, dataset.signal.support)
        out["error_count"] = err
        out["recovered"] = err < 2.0 * args.delta * s
    _emit(out)
    return 0


def _cmd_lasso(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    if args.lam is not None:
        lam = args.lam
    else:
        if dataset.signal is None:
            raise ValueError("dataset has no ground truth; pass --lam")
        lam = lasso.lambda_schedule(
            dataset.noise.sigma_avg_sq,
            p=dataset.p,
            s=dataset.signal.s,
            n=dataset.n,
            rho=dataset.signal.rho,
        )
    sol = lasso.solve_lasso(
        dataset, lasso.LassoConfig(lam=lam, tol=args.tol, max_sweeps=args.max_sweeps)
    )
    nonzero = [int(j) for j in range(dataset.p) if sol.beta[j] != 0.0]
    out: dict = {
        "lam": lam,
        "objective": sol.objective,
        "sweeps": sol.sweeps,
        "converged": sol.converged,
        "support": nonzero,
    }
    if dataset.signal is not None:
        out["signed_match"] = signed_support_match(sol.beta, dataset.signal)
    if args.witness:
        if dataset.signal is None:
            raise ValueError("witness requires a dataset with ground truth")
        rep = lasso.kkt_recovery_witness(dataset, dataset.signal, lam)
        out["witness"] = {
            "min_slack": float(rep.on_support_slack.min()),
            "min_margin": float(rep.off_support_margin.min())
            if len(rep.off_support_margin)
            else None,
            "condition1": rep.condition1,
            "condition2": rep.condition2,
            "recovery": rep.recovery,
            "boundary": rep.boundary,
            "gram_condition": rep.gram_condition,
        }
    _emit(out)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.m is not None:
        m = args.m
    elif args.delta is not None and args.s is not None:
        m = chernoff.m_for_error_budget(args.delta, args.s)
    else:
        raise ValueError("pass --m, or both --delta and --s")
    setting = _setting(args.setting)
    query = chernoff.ChernoffQuery(
        setting=setting,
        n1=args.n1,
        n2=args.n2,
        sigma1_sq=args.sigma1_sq,
        sigma2_sq=args.sigma2_sq,
        m=m,
        theta=args.theta,
    )
    out: dict = {
        "m": m,
        "theta": query.theta if query.theta is not None else query.default_theta(),
        "bound": chernoff.chernoff_bound(query),
        "log_bound": chernoff.chernoff_log_bound(query),
    }
    if args.optimize:
        if setting is not Setting.AGNOSTIC:
            raise ValueError("--optimize applies to the agnostic setting")
        best = chernoff.optimal_theta_agnostic(query)
        out["optimal"] = {
            "theta": best.theta,
            "bound": math.exp(best.log_bound),
            "log_bound": best.log_bound,
        }
    if args.mc_trials is not None:
        if m % 2 != 0:
            raise ValueError("Monte Carlo checks need an even m")
        s = args.s if args.s is not None else m
        if s < m // 2:
            raise ValueError("need s >= m/2 to build supports at distance m")
        p = args.p if args.p is not None else s + m // 2
        if p < s + m // 2:
            raise ValueError("need p >= s + m/2")
        signal = SparseSignal(
            p=p, support=tuple(range(s)), values=(1.0,) * s
        )
        candidate = tuple(range(m // 2, s)) + tuple(range(s, s + m // 2))
        noise = NoiseProfile(
            n1=args.n1, n2=args.n2, sigma1_sq=args.sigma1_sq, sigma2_sq=args.sigma2_sq
        )
        est = chernoff.empirical_misrank(
            signal, noise, candidate, args.mc_trials, args.seed, setting
        )
        out["monte_carlo"] = {
            "trials": args.mc_trials,
            "estimate": est.estimate,
            "ci95": est.ci95,
        }
    _emit(out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("sweep config must be a JSON object")
    known = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    if args.master_seed is not None:
        raw["master_seed"] = args.master_seed
    config = harness.ExperimentConfig(**raw)
    records = harness.run_sweep(config)
    summary = harness.summarize(config, records)
    formats = tuple(args.formats.split(","))
    manifest = harness.emit_outputs(summary, records, args.out, formats)
    _emit(
        {
            "written": manifest,
            "points": [
                {
                    "n1": r.n1,
                    "n2": r.n2,
                    "recovery_rate": r.recovery_rate,
                    "ci95": r.ci95,
                }
                for r in summary
            ],
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsemix",
        description="Sparse support recovery from mixed-quality Gaussian measurements",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize a dataset directory")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--n2", type=int, required=True)
    g.add_argument("--sigma1-sq", type=float, required=True)
    g.add_argument("--sigma2-sq", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--support", help="comma-separated indices (default: first s)")
    g.add_argument("--values", help="comma-separated coefficients")
    g.add_argument("--value", type=float, default=1.0, help="uniform coefficient")
    g.set_defaults(func=_cmd_gen)

    pl = sub.add_parser("plan", help="thresholds, sufficiency, price of quality")
    pl.add_argument("--p", type=int, required=True)
    pl.add_argument("--s", type=int, required=True)
    pl.add_argument("--growth", choices=["sublinear", "linear"], default="sublinear")
    pl.add_argument("--alpha", type=float, default=None)
    pl.add_argument("--setting", choices=["agnostic", "informed"], default="agnostic")
    pl.add_argument("--sigma1-sq", type=float, required=True)
    pl.add_argument("--sigma2-sq", type=float, required=True)
    pl.add_argument("--delta", type=float, default=planner.DEFAULT_DELTA)
    pl.add_argument("--epsilon", type=float, default=planner.DEFAULT_EPSILON)
    pl.add_argument("--n1", type=int, default=None)
    pl.add_argument("--n2", type=int, default=None)
    pl.add_argument("--frontier-n1", help="comma-separated n1 budgets")
    pl.set_defaults(func=_cmd_plan)

    so = sub.add_parser("solve", help="combinatorial decoding of a dataset directory")
    so.add_argument("--data", required=True)
    so.add_argument(
        "--decoder", choices=["agnostic", "informed", "local"], default="agnostic"
    )
    so.add_argument("--s", type=int, default=None)
    so.add_argument("--restarts", type=int, default=8)
    so.add_argument("--seed", type=int, default=0)
    so.add_argument("--delta", type=float, default=planner.DEFAULT_DELTA)
    so.set_defaults(func=_cmd_solve)

    la = sub.add_parser("lasso", help="penalized solve, optionally with witness")
    la.add_argument("--data", required=True)
    la.add_argument("--lam", type=float, default=None)
    la.add_argument("--tol", type=float, default=1e-8)
    la.add_argument("--max-sweeps", type=int, default=100_000)
    la.add_argument("--witness", action="store_true")
    la.set_defaults(func=_cmd_lasso)

    bo = sub.add_parser("bound", help="misranking bound and Monte Carlo check")
    bo.add_argument("--setting", choices=["agnostic", "informed"], default="agnostic")
    bo.add_argument("--n1", type=int, required=True)
    bo.add_argument("--n2", type=int, required=True)
    bo.add_argument("--sigma1-sq", type=float, required=True)
    bo.add_argument("--sigma2-sq", type=float, required=True)
    bo.add_argument("--m", type=int, default=None)
    bo.add_argument("--delta", type=float, default=None)
    bo.add_argument("--s", type=int, default=None)
    bo.add_argument("--theta", type=float, default=None)
    bo.add_argument("--optimize", action="store_true")
    bo.add_argument("--mc-trials", type=int, default=None)
    bo.add_argument("--p", type=int, default=None)
    bo.add_argument("--seed", type=int, default=0)
    bo.set_defaults(func=_cmd_bound)

    sw = sub.add_parser("sweep", help="phase-transition experiment from JSON config")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", default="out")
    sw.add_argument("--formats", default="csv")
    sw.add_argument("--master-seed", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, DegenerateInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
