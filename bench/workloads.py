"""The three benchmark workloads, each a closed loop of identical rounds.

A round is a fixed amount of work whose inputs are a pure function of
(seed, round index), so a run of any length draws the same inputs for the
same seed. Every workload calls sparsemix only through module attributes
(`harness.run_sweep`, not a name imported from it), so the tracer's
patched functions are the ones that run.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sparsemix import chernoff, harness, lasso, model, planner
from sparsemix.errors import DegenerateInstanceError

DEFAULT_SEED = 1  # seed of the reference round whose outputs are frozen
_Z95 = 1.959963984540054


@dataclass
class Round:
    """Work done by one round: item counts, expected layer calls, outputs."""

    attempted: int
    failed: int
    expected: Counter
    records: dict = field(default_factory=dict)  # label -> (config, TrialRecords)
    outputs: dict = field(default_factory=dict)  # what the checks read
    seconds: float = 0.0  # wall time of the round
    cpu_seconds: float = 0.0  # process CPU time of the round
    ref_seconds: float = 0.0  # reference kernel time around the round


def _round_seed(seed: int, r: int) -> int:
    return seed * 1_000_003 + r


def _wilson(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval, computed here so checks do not trust the program."""
    phat = successes / trials
    denom = 1.0 + _Z95**2 / trials
    center = (phat + _Z95**2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / trials + _Z95**2 / (4 * trials**2)) / denom
    return center - half, center + half


def _rate_check(label: str, records, bound: float, above: bool) -> list[str]:
    """Mismatch unless the data are consistent with rate >= bound (or <= bound).

    The rate of each seed's trials is compared through its Wilson interval,
    so sampling noise alone cannot fail a seed whose true rate meets the
    acceptance bound.
    """
    if not records:
        return [f"{label}: no trials"]
    got = sum(1 for r in records if r.recovered)
    lo, hi = _wilson(got, len(records))
    rate = got / len(records)
    if above and hi < bound:
        return [f"{label}: rate {rate:.3f} over {len(records)} trials is below {bound}"]
    if not above and lo > bound:
        return [f"{label}: rate {rate:.3f} over {len(records)} trials is above {bound}"]
    return []


def _sweep_expected(config: harness.ExperimentConfig) -> Counter:
    jobs = len(config.grid) * config.trials
    calls = Counter({"harness.run_sweep": 1, "model.generate_dataset": jobs})
    if config.decoder is harness.DecoderKind.LASSO:
        calls["lasso.solve_lasso"] = jobs
    elif config.decoder is harness.DecoderKind.LOCAL_SEARCH:
        calls["decoders.decode_local_search"] = jobs
    else:
        calls["decoders.decode_exhaustive"] = jobs
    return calls


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit_digest(config, records, out_dir: str) -> str:
    rows = harness.summarize(config, records)
    harness.emit_outputs(rows, records, out_dir, formats=("csv",))
    return _sha256(os.path.join(out_dir, "summary.csv"))


class LassoPhase:
    """The a01 reference sweep plus a wide-design slice, at nproc threads.

    Item: one sweep trial. The p=512 grid is the acceptance sweep (n=54 is
    solver-bound, n=218 generation-heavy); the p=5000 point is above the
    solver's Gram limit, so its residual-update path is timed too.
    """

    name = "lasso-phase"
    parallel = True
    trace_rounds = 3
    PHASE = dict(
        decoder="Lasso", p=512, s=8, rho=1.0, sigma1_sq=0.1, sigma2_sq=0.4,
        grid=((27, 27), (109, 109)), trials=16,
    )
    WIDE = dict(
        decoder="Lasso", p=5000, s=8, rho=1.0, sigma1_sq=0.1, sigma2_sq=0.4,
        grid=((150, 150),), trials=1,
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.configs(0)  # build (and validate) the first inputs as part of set-up

    def configs(self, r: int) -> dict[str, harness.ExperimentConfig]:
        ms = _round_seed(self.seed, r)
        return {
            "p512": harness.ExperimentConfig(**self.PHASE, master_seed=ms),
            "p5000": harness.ExperimentConfig(**self.WIDE, master_seed=ms),
        }

    def run_round(self, r: int, threads: int, out_dir: str) -> Round:
        rnd = Round(attempted=0, failed=0, expected=Counter())
        for label, config in self.configs(r).items():
            records = harness.run_sweep(config, threads=threads)
            rnd.records[label] = (config, records)
            rnd.attempted += len(records)
            rnd.failed += sum(1 for rec in records if rec.failed)
            rnd.expected += _sweep_expected(config)
        return rnd

    def digest(self, rnd: Round, out_dir: str) -> dict[str, str]:
        return {
            label: _emit_digest(config, records, os.path.join(out_dir, label))
            for label, (config, records) in rnd.records.items()
        }

    def check(self, rounds: list[Round]) -> list[str]:
        by_n = {54: [], 218: []}
        for rnd in rounds:
            _, records = rnd.records["p512"]
            for rec in records:
                by_n[rec.n1 + rec.n2].append(rec)
        return _rate_check("lasso-phase n=218", by_n[218], 0.8, above=True) + _rate_check(
            "lasso-phase n=54", by_n[54], 0.2, above=False
        )


class SmallDecode:
    """Serial small problems: scan decoders, a09-style witness batch, emit.

    Item: one decoded instance (a sweep trial or a witness-batch solve).
    The scan sweeps sit at p=24, s=4 on the a04 budget (8, 12) and the
    agnostic frontier point (40, 64); the witness batch runs the Lasso at
    p <= 40, where per-call overhead dominates; every sweep is summarized
    and emitted as csv and svg.
    """

    name = "small-decode"
    parallel = False
    trace_rounds = 3
    SCAN = dict(
        p=24, s=4, rho=1.0, delta=0.25, sigma1_sq=0.5, sigma2_sq=2.0,
        grid=((8, 12), (40, 64)), trials=8,
    )
    DECODERS = ("AgnosticScan", "InformedMLE", "LocalSearch")
    WITNESSES = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.configs(0)
        self.witness_batch(0)

    def configs(self, r: int) -> dict[str, harness.ExperimentConfig]:
        ms = _round_seed(self.seed, r)
        return {
            d: harness.ExperimentConfig(decoder=d, **self.SCAN, master_seed=ms)
            for d in self.DECODERS
        }

    def witness_batch(self, r: int) -> list[tuple]:
        """a09-style instances: (signal, noise, dataset seed, lambda)."""
        draws = np.random.default_rng([self.seed, r, 9])
        batch = []
        for _ in range(self.WITNESSES):
            s = int(draws.integers(1, 5))
            p = int(draws.integers(max(2 * s, 8), 41))
            n = int(draws.integers(10 * s, 20 * s + 1))
            n1 = int(draws.integers(1, n))
            lo, hi = np.sort(draws.uniform(0.05, 1.0, size=2) ** 2)
            support = tuple(sorted(draws.choice(p, size=s, replace=False).tolist()))
            values = tuple(
                float(draws.choice([-1.0, 1.0]) * draws.uniform(0.8, 1.5))
                for _ in range(s)
            )
            signal = model.SparseSignal(p=p, support=support, values=values)
            noise = model.NoiseProfile(
                n1=n1, n2=n - n1, sigma1_sq=float(lo), sigma2_sq=float(hi)
            )
            lam = lasso.lambda_schedule(
                sigma_avg_sq=noise.sigma_avg_sq, p=p, s=s, n=noise.n, rho=1.0
            )
            batch.append((signal, noise, int(draws.integers(2**62)), lam))
        return batch

    def run_round(self, r: int, threads: int, out_dir: str) -> Round:
        rnd = Round(attempted=0, failed=0, expected=Counter())
        for label, config in self.configs(r).items():
            records = harness.run_sweep(config, threads=threads)
            rows = harness.summarize(config, records)
            harness.emit_outputs(
                rows, records, os.path.join(out_dir, label), formats=("csv", "svg")
            )
            rnd.records[label] = (config, records)
            rnd.attempted += len(records)
            rnd.failed += sum(1 for rec in records if rec.failed)
            rnd.expected += _sweep_expected(config)
            rnd.expected += Counter({"harness.summarize": 1, "harness.emit_outputs": 1})
        agree = clear = 0
        for signal, noise, seed, lam in self.witness_batch(r):
            rnd.attempted += 1
            rnd.expected += Counter(
                {"model.generate_dataset": 1, "lasso.solve_lasso": 1,
                 "lasso.kkt_recovery_witness": 1}
            )
            dataset = model.generate_dataset(signal, noise, seed)
            solution = lasso.solve_lasso(dataset, lasso.LassoConfig(lam=lam))
            try:
                witness = lasso.kkt_recovery_witness(dataset, signal, lam)
            except DegenerateInstanceError:
                rnd.failed += 1
                continue
            if not solution.converged:
                rnd.failed += 1
                continue
            if not witness.boundary:
                clear += 1
                agree += model.signed_support_match(solution.beta, signal) == witness.recovery
        rnd.outputs = {"witness_clear": clear, "witness_agree": agree}
        return rnd

    def digest(self, rnd: Round, out_dir: str) -> dict[str, str]:
        return {
            label: _sha256(os.path.join(out_dir, label, "summary.csv"))
            for label in rnd.records
        }

    def check(self, rounds: list[Round]) -> list[str]:
        frontier = [
            rec
            for rnd in rounds
            for rec in rnd.records["AgnosticScan"][1]
            if (rec.n1, rec.n2) == (40, 64)
        ]
        problems = _rate_check("small-decode frontier (40,64)", frontier, 0.9, above=True)
        clear = sum(rnd.outputs["witness_clear"] for rnd in rounds)
        agree = sum(rnd.outputs["witness_agree"] for rnd in rounds)
        if clear == 0 or agree / clear < 0.99:
            problems.append(f"small-decode witness agreement {agree}/{clear} below 99%")
        return problems


class MisrankBounds:
    """Monte Carlo misrank estimates against Chernoff bounds, plus planning.

    Item: one Monte Carlo draw. Each round draws one a05-style config and
    estimates its misrank probability at 10^5 draws in both settings,
    evaluates the bounds, then runs an a06-style planner grid. Sample count
    (n = 20) and union size (s + m/2 = 7) are fixed so every round draws
    the same number of normals; the seed picks s, m, the block split, the
    variances and the Monte Carlo stream.
    """

    name = "misrank-bounds"
    parallel = False
    trace_rounds = 2
    DRAWS = 10**5
    N = 20
    UNION = 7
    PLAN_GRID = 6  # per axis of the (sigma2_sq, sigma1_sq, delta*s) planner grid

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config(0)

    def config(self, r: int) -> dict:
        draws = np.random.default_rng([self.seed, r, 5])
        s = int(draws.integers(4, self.UNION))  # m = 2 (UNION - s) lies in [2, 2s]
        m = 2 * (self.UNION - s)
        lo, hi = np.sort(draws.uniform(0.5, 8.0, size=2) ** 2)
        n1 = int(draws.integers(1, self.N))
        return dict(
            signal=model.SparseSignal(p=2 * s + m, support=tuple(range(s)), values=(1.0,) * s),
            noise=model.NoiseProfile(
                n1=n1, n2=self.N - n1, sigma1_sq=float(lo), sigma2_sq=float(hi)
            ),
            candidate=tuple(range(m // 2, s)) + tuple(range(s, s + m // 2)),
            m=m,
            mc_seed=_round_seed(self.seed, r),
        )

    def run_round(self, r: int, threads: int, out_dir: str) -> Round:
        c = self.config(r)
        noise = c["noise"]
        rnd = Round(attempted=0, failed=0, expected=Counter())
        misrank, bound_values = {}, []
        for setting in (model.Setting.AGNOSTIC, model.Setting.INFORMED):
            est = chernoff.empirical_misrank(
                c["signal"], noise, c["candidate"], self.DRAWS, c["mc_seed"], setting=setting
            )
            query = chernoff.ChernoffQuery(
                setting, noise.n1, noise.n2, noise.sigma1_sq, noise.sigma2_sq, c["m"]
            )
            bound = chernoff.chernoff_bound(query)
            bound_values.append(bound)
            rnd.expected += Counter({"chernoff.empirical_misrank": 1, "chernoff.chernoff_bound": 1})
            if setting is model.Setting.AGNOSTIC:
                bound = math.exp(chernoff.optimal_theta_agnostic(query).log_bound)
                bound_values.append(bound)
                rnd.expected["chernoff.optimal_theta_agnostic"] += 1
            misrank[setting.value] = (est.estimate, est.ci95, bound)
            rnd.attempted += self.DRAWS
        rnd.outputs = {"misrank": misrank, "bounds": bound_values, "plans": self.plan_grid(rnd)}
        return rnd

    def plan_grid(self, rnd: Round) -> list:
        """a06-style price-of-quality grid and one frontier per setting."""
        s = 100
        plans = []
        for s2 in np.linspace(0.2, 10.0, self.PLAN_GRID):
            for s1 in np.linspace(0.1, s2, self.PLAN_GRID):
                for ds in np.linspace(0.5, 50.0, self.PLAN_GRID):
                    g_ag = planner.price_of_quality(
                        model.Setting.AGNOSTIC, float(s1), float(s2), s, ds / s
                    )
                    g_inf = planner.price_of_quality(
                        model.Setting.INFORMED, float(s1), float(s2), s, ds / s
                    )
                    plans.append(("poq", float(s1), float(s2), g_ag, g_inf))
        rnd.expected["planner.price_of_quality"] += 2 * self.PLAN_GRID**3
        regime = planner.RegimeSpec(planner.Growth.SUBLINEAR, p=24, s=4)
        for setting in (model.Setting.AGNOSTIC, model.Setting.INFORMED):
            points = planner.sample_frontier(
                setting, 0.5, 2.0, 4, 0.25, 1.0, regime, list(range(0, 41, 4))
            )
            plans.append(("frontier", setting.value, tuple(p.n2 for p in points)))
        rnd.expected["planner.sample_frontier"] += 2
        return plans

    def digest(self, rnd: Round, out_dir: str) -> dict[str, str]:
        """Digest of bound and planner values; Monte Carlo estimates are left out."""
        lines = [f"{b:.12g}" for b in rnd.outputs["bounds"]]
        for plan in rnd.outputs["plans"]:
            lines.append(" ".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in plan))
        return {"bounds": hashlib.sha256("\n".join(lines).encode()).hexdigest()}

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for i, rnd in enumerate(rounds):
            for setting, (estimate, ci95, bound) in rnd.outputs["misrank"].items():
                if estimate > bound + 3.0 * ci95:
                    problems.append(
                        f"misrank round {i} {setting}: estimate {estimate} > "
                        f"bound {bound:.6g} + 3 ci95 {ci95:.6g}"
                    )
            for plan in rnd.outputs["plans"]:
                if plan[0] == "poq":
                    _, s1, s2, g_ag, g_inf = plan
                    tol = 1e-12
                    if not (1.0 - tol <= g_ag <= 2.0 - s1 / s2 + tol and g_inf >= g_ag - tol):
                        problems.append(f"price of quality out of order at {plan}")
                elif any(b > a for a, b in zip(plan[2], plan[2][1:])):
                    problems.append(f"frontier n2 not nonincreasing: {plan}")
        return problems


WORKLOADS = {w.name: w for w in (LassoPhase, SmallDecode, MisrankBounds)}
