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

from . import chernoff, decoders, harness, lasso, planner, rng
from .errors import COUNT_MAX, DegenerateInstanceError, ResourceCapError, as_index
from .model import (
    JSON_ENCODER,
    NoiseProfile,
    Setting,
    SparseSignal,
    check_design_cap,
    generate_dataset,
    load_dataset,
    save_dataset,
    signed_support_match,
    snr_report,
    support_error,
)

__all__ = ["main"]


def _list(text: str, kind: type) -> list:
    """Comma-separated values of one type; empty items are skipped."""
    return [kind(x) for x in text.split(",") if x.strip() != ""]


def _blocks(args: argparse.Namespace) -> dict:
    """The block flags as keyword arguments of NoiseProfile or ChernoffQuery."""
    names = ("n1", "n2", "sigma1_sq", "sigma2_sq")
    return {name: getattr(args, name) for name in names}


def _emit(obj) -> None:
    sys.stdout.writelines(JSON_ENCODER.iterencode(obj))
    sys.stdout.write("\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    noise = NoiseProfile(**_blocks(args))
    if args.support is not None:
        support = tuple(_list(args.support, int))
    else:
        s = as_index(args.s, "s", low=1, high=as_index(args.p, "p", low=1))
        check_design_cap(noise.n, args.p, s)  # below COUNT_MAX, so it bounds p too
        support = tuple(range(s))
    if args.values is not None:
        values = tuple(_list(args.values, float))
    else:
        values = (1.0,) * len(support)
    signal = SparseSignal(p=args.p, support=support, values=values)
    if args.s != signal.s:
        raise ValueError("--s disagrees with the support length")
    manifest = save_dataset(generate_dataset(signal, noise, args.seed), args.out)
    _emit(
        {
            "written": manifest,
            "p": args.p,
            "s": signal.s,
            "n1": args.n1,
            "n2": args.n2,
            "seed": args.seed,
            "snr": dataclasses.asdict(snr_report(signal.s, noise)),
        }
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    growth = planner.Growth(args.growth.title())
    regime = planner.RegimeSpec(growth=growth, p=args.p, s=args.s, alpha=args.alpha)
    setting = Setting(args.setting.title())
    out: dict = {
        "n_star": planner.recovery_threshold(planner.ThresholdKind.N_STAR, regime),
        "n_alg": planner.recovery_threshold(planner.ThresholdKind.N_ALG, regime),
    }
    try:
        out["n_inf"] = planner.recovery_threshold(planner.ThresholdKind.N_INF, regime)
    except ValueError:
        out["n_inf"] = None
    variances = (args.sigma1_sq, args.sigma2_sq)
    out["price_of_quality"] = planner.price_of_quality(
        setting, *variances, args.s, args.delta
    )
    if (args.n1 is None) != (args.n2 is None):
        raise ValueError("pass both --n1 and --n2, or neither")
    requirement = (args.s, args.delta, args.epsilon, regime)
    if args.n1 is not None:
        chk = planner.check_sufficient(
            setting, args.n1, args.n2, *variances, *requirement
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
            setting, *variances, *requirement, _list(args.frontier_n1, int)
        )
        out["frontier"] = [dataclasses.asdict(q) for q in pts]
    _emit(out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    planner.validate_delta(args.delta)
    dataset = load_dataset(args.data)
    if args.s is not None:
        s = args.s
    elif dataset.signal is not None:
        s = dataset.signal.s
    else:
        raise ValueError("dataset has no ground truth; pass --s")
    if args.decoder == "local":
        res = decoders.decode_local_search(
            dataset, s, Setting.AGNOSTIC, restarts=args.restarts, seed=args.seed
        )
    else:
        res = decoders.decode_exhaustive(dataset, s, Setting(args.decoder.title()))
    out = dataclasses.asdict(res)
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
    nonzero = sol.beta.nonzero()[0].tolist()
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
    query = chernoff.ChernoffQuery(
        setting=Setting(args.setting.title()), m=m, theta=args.theta, **_blocks(args)
    )
    out: dict = {
        "m": m,
        "theta": query.theta,
        "bound": chernoff.chernoff_bound(query),
        "log_bound": chernoff.chernoff_log_bound(query),
    }
    if args.optimize:
        best = chernoff.optimal_theta_agnostic(query)
        out["optimal"] = {**best._asdict(), "bound": math.exp(best.log_bound)}
    if args.mc_trials is not None:
        est = chernoff.unit_misrank(query, args.mc_trials, args.seed)
        out["monte_carlo"] = {"trials": args.mc_trials, **est._asdict()}
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
    formats = tuple(args.formats.split(","))
    harness.check_outputs(args.out, formats)
    records = harness.run_sweep(config, threads=rng._cpus())
    summary = harness.summarize(config, records)
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


def _shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring flags that mean the same in every
    subcommand that takes them."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsemix",
        description="Sparse support recovery from mixed-quality Gaussian measurements",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    shape = _shared("--p", "--s", type=int, required=True)
    blocks = _shared("--n1", "--n2", type=int, required=True)
    variances = _shared("--sigma1-sq", "--sigma2-sq", type=float, required=True)
    setting = _shared("--setting", choices=["agnostic", "informed"], default="agnostic")

    g = sub.add_parser(
        "gen", parents=[shape, blocks, variances], help="synthesize a dataset directory"
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--support", help="comma-separated indices (default: first s)")
    g.add_argument("--values", help="comma-separated coefficients (default: 1.0 each)")
    g.set_defaults(func=_cmd_gen)

    # a parent too, so that plan's help lists --growth and --alpha after --p and --s
    gr = argparse.ArgumentParser(add_help=False)
    gr.add_argument("--growth", choices=["sublinear", "linear"], default="sublinear")
    gr.add_argument("--alpha", type=float, default=None)
    pl = sub.add_parser(
        "plan",
        parents=[shape, gr, setting, variances],
        help="thresholds, sufficiency, price of quality",
    )
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
    la.add_argument("--tol", type=float, default=lasso.LassoConfig.tol)
    la.add_argument("--max-sweeps", type=int, default=lasso.LassoConfig.max_sweeps)
    la.add_argument("--witness", action="store_true")
    la.set_defaults(func=_cmd_lasso)

    bo = sub.add_parser(
        "bound",
        parents=[setting, blocks, variances],
        help="misranking bound and Monte Carlo check",
    )
    bo.add_argument("--m", type=int, default=None)
    bo.add_argument("--delta", type=float, default=None)
    bo.add_argument("--s", type=int, default=None)
    bo.add_argument("--theta", type=float, default=None)
    bo.add_argument("--optimize", action="store_true")
    bo.add_argument("--mc-trials", type=int, default=None)
    bo.add_argument("--seed", type=int, default=0)
    bo.set_defaults(func=_cmd_bound)

    sw = sub.add_parser("sweep", help="phase-transition experiment from JSON config")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", default="out")
    sw.add_argument("--formats", default="csv")
    sw.add_argument("--master-seed", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)
    return ap


# count flags that a run may leave unread, or that the library takes as any integer
# (seeds), with their least values: main checks each one before the command runs
_COUNT_FLAGS = {"gen": {"seed": 0}, "solve": {"restarts": 1, "seed": 0},
                "bound": {"s": 1, "seed": 0}}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        for name, low in _COUNT_FLAGS.get(args.command, {}).items():
            if getattr(args, name) is not None:
                as_index(getattr(args, name), name, low=low, high=COUNT_MAX)
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
