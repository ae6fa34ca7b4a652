"""The benchmark's workloads: their inputs, one timed operation, and checks.

Every input comes from the run seed, so the same seed gives the same inputs.
Each check compares an output with a computation made apart from the program
or with a property the method must have; none compares with stored output.
A check returns a list of problems, empty when the output is right.

Calls into the package go through module attributes (``conddist.boot_prob``,
not an imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math

import numpy as np

from curveprob import conddist, events, flm
from curveprob.curves import Covariate, Curve, Grid
from curveprob.harness import cli, dgp, experiments, io

import layers

# coverage: one replicate of the paper's band-coverage experiment
COVERAGE_N = 200
COVERAGE_NOMINAL = 0.95
# the paper's boot coverage at n=200 (also quoted in tests/test_acceptance.py),
# and the nominal level for gauss
COVERAGE_REFERENCE = {"boot": 0.913, "gauss": 0.95}
# Both methods sit about 0.012 from their reference (4,000 pooled replicates
# gave boot 0.925 and gauss 0.938), so the tolerance is that offset plus four
# binomial standard errors. At a run's 600 replicates that passes boot from
# 0.855 to 0.971 and gauss from 0.902 to 0.998: a correct run fails with
# probability about 1e-4, and a band that always covers fails.
COVERAGE_OFFSET = 0.012
COVERAGE_TOLERANCE_SE = 4.0

# query: a fixed bundle of queries against one fitted model
QUERY_GRID_D = 100
MC = 2000
QUANTILE_P = 0.9
FAMILY_Z = 0.5
QUANTILE_RUNS = (("level_alpha", "boot"), ("level_alpha", "gauss"), ("max_below", "gauss"))

# daily: the cross-entropy pipeline on a simulated year of hourly curves
DAILY_GRID_D = 24
DAILY_AR_ORDER = 7
DAILY_PVE = 0.98
DAILY_ALPHA = 8.0
DAILY_METHODS = ("boot", "gauss", "glm", "nw")
DAILY_ZS = 4  # run_entropy_eval's default z values


def op_seeds(seed: int, count: int) -> list:
    """``count`` distinct 63-bit seeds derived from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s >> 1) for s in state]


class _CaptureFits:
    """Keeps the last model that ``flm.fit`` returns while active."""

    def __init__(self):
        self.model = None

    def __enter__(self):
        original = flm.fit

        def capture(*args, **kwargs):
            self.model = original(*args, **kwargs)
            return self.model

        self._replaced = layers.replace_everywhere(original, capture)
        return self

    def __exit__(self, *exc):
        layers.restore(self._replaced)


class _FitPerOperation:
    """For workloads whose every operation fits a model of its own: the first
    warm-up operation keeps its model, whose size is reported."""

    def setup(self):
        with _CaptureFits() as fits:
            self.run(self.input(0))
        self.model = fits.model
        for i in range(1, self.warmup):
            self.run(self.input(i))

    def finish(self) -> list:
        return []

    def model_json_bytes(self) -> int:
        return len(flm.to_json(self.model))


# ---------------------------------------------------------------------------
# coverage

def coverage_problems(hits: dict, reps: int) -> list:
    """Empirical coverage of each method must lie within a binomial
    tolerance of its reference."""
    problems = []
    for method, ref in COVERAGE_REFERENCE.items():
        tol = COVERAGE_OFFSET + COVERAGE_TOLERANCE_SE * math.sqrt(ref * (1 - ref) / reps)
        cov = hits[method] / reps
        if abs(cov - ref) > tol:
            problems.append(f"{method} coverage {cov:.4f} over {reps} replicates is "
                            f"outside {ref} +- {tol:.4f}")
    return problems


class Coverage(_FitPerOperation):
    warmup = 3

    def __init__(self, seed: int, ops: int, tiny: bool, workdir):
        self.seeds = op_seeds(seed, self.warmup + ops)
        self.hits = {m: 0 for m in COVERAGE_REFERENCE}
        self.reps = 0
        self.notes = {}

    def input(self, i: int) -> int:
        return self.seeds[i]

    def run(self, seed: int):
        return experiments.run_coverage_experiment(
            n=COVERAGE_N, b=0.0, nominal=COVERAGE_NOMINAL, method="both",
            reps=1, seed=seed)

    def check(self, seed, report) -> list:
        got = {row[0]: row[1] for row in report.rows}
        if set(got) != set(COVERAGE_REFERENCE) or any(v not in (0.0, 1.0) for v in got.values()):
            return [f"replicate {seed}: coverage rows {got} are not one 0/1 hit per method"]
        for method, value in got.items():
            self.hits[method] += int(value)
        self.reps += 1
        self.notes = {f"coverage_{m}": h / self.reps for m, h in self.hits.items()}
        return []

    def finish(self) -> list:
        return coverage_problems(self.hits, self.reps) if self.reps else []


# ---------------------------------------------------------------------------
# query

def query_events(grid: Grid) -> dict:
    level = events.level_set(7.0, 0.5)
    return {
        "level": level,
        "not_level": events.complement(level),
        "extremal": events.extremal_set(8.5),
        "excursion": events.excursion_set(7.5, 0.2),
        "contrast": events.contrast_set(Curve(grid, np.sin(np.pi * grid.points)), 4.3),
        "boundary": events.boundary_set(4.0, 9.5),
    }


FAMILIES = {
    "level_alpha": events.family_level_in_alpha(FAMILY_Z, 0.0, 25.0),
    "max_below": events.family_max_below(0.0, 25.0),
}


def _family_fraction(family: str, ensemble: np.ndarray, xi: float) -> float:
    """Share of ensemble rows inside the family's event at parameter xi."""
    if family == "level_alpha":
        inside = np.mean(ensemble > xi, axis=1) <= FAMILY_Z
    else:
        inside = np.max(ensemble, axis=1) <= xi
    return float(np.mean(inside))


def query_problems(model, x, out: dict, evs: dict) -> list:
    """Recount, complement, quantile and band checks for one bundle."""
    problems = []
    center = flm.predict(model, x).values
    ensembles = {
        "boot": center + model.residual_matrix,
        "gauss": center + conddist.noise_sampler(model, 0).draw_matrix(MC),
    }
    boot = ensembles["boot"]
    level, extremal = evs["level"], evs["extremal"]
    recount = {
        "level": int(np.count_nonzero(np.mean(boot > level.alpha, axis=1) <= level.z)),
        "extremal": int(np.count_nonzero(np.max(boot, axis=1) > extremal.d)),
    }
    for name, count in recount.items():
        if out["boot"][name].count != count:
            problems.append(f"boot {name} count {out['boot'][name].count}, recount {count}")
    for method in ("boot", "gauss"):
        a, not_a = out[method]["level"], out[method]["not_level"]
        if a.count + not_a.count != a.n_used or a.n_used != not_a.n_used:
            problems.append(f"{method}: count(A) {a.count} + count(not A) {not_a.count} "
                            f"!= n_used {a.n_used}")
    for (family, method), xi in out["quantile"].items():
        fam = FAMILIES[family]
        tol = 1e-4 * (fam.hi - fam.lo)
        ens = ensembles[method]
        if _family_fraction(family, ens, xi) < QUANTILE_P:
            problems.append(f"{family}/{method}: estimate at quantile {xi} is below p")
        if xi > fam.lo and _family_fraction(family, ens, xi - tol) >= QUANTILE_P:
            problems.append(f"{family}/{method}: estimate one step below {xi} reaches p")
    band = out["band"]
    floor = band.center.values - band.lower.values
    ceil = band.center.values + band.upper.values
    if not (np.all(floor <= band.center.values) and np.all(band.center.values <= ceil)):
        problems.append("band floor <= center <= ceiling does not hold")
    return problems


def model_file_problems(loaded, fitted, covariates) -> list:
    """The model read back from its file must predict bit for bit like the fit."""
    for x in covariates:
        if not np.array_equal(flm.predict(loaded, x).values, flm.predict(fitted, x).values):
            return ["model read from model.json predicts differently from the fitted model"]
    return []


class Query:
    warmup = 3

    def __init__(self, seed: int, ops: int, tiny: bool, workdir):
        self.seed = seed
        self.ops = ops
        self.ar_order = 2 if tiny else 7
        self.n_train = 60 if tiny else 400
        self.workdir = workdir
        self.grid = Grid(QUERY_GRID_D)
        self.events = query_events(self.grid)
        self.notes = {}

    def setup(self):
        n_total = self.n_train + self.ar_order + self.warmup + self.ops
        self.series = dgp.simulate_far(dgp.synthetic_dgp(self.grid), n_total, seed=self.seed)
        self.series_path = self.workdir / "series.csv"
        model_path = self.workdir / "model.json"
        io.save_curves(self.series[:self.n_train], self.series_path)
        code = cli.main(["fit", "--series", str(self.series_path),
                         "--ar-order", str(self.ar_order), "--out", str(model_path)])
        if code != 0:
            raise RuntimeError(f"curveprob fit exited with {code}")
        text = model_path.read_text(encoding="utf-8")
        self.model = flm.from_json(text)
        self.json_bytes = len(text.encode("utf-8"))
        for i in range(self.warmup):
            self.run(self.input(i))

    def input(self, i: int) -> Covariate:
        """The lags of curve k, all after the training series."""
        k = self.n_train + self.ar_order + i
        return Covariate(tuple(self.series[k - j] for j in range(1, self.ar_order + 1)))

    def run(self, x: Covariate) -> dict:
        m = self.model
        out = {"boot": {}, "gauss": {}, "quantile": {}}
        for name, event in self.events.items():
            out["boot"][name] = conddist.boot_prob(m, x, event)
            out["gauss"][name] = conddist.gauss_prob(m, x, event, mc_size=MC, seed=0)
        for family, method in QUANTILE_RUNS:
            out["quantile"][family, method] = conddist.quantile_over_family(
                m, x, FAMILIES[family], QUANTILE_P, method=method, mc_size=MC, seed=0)
        out["band"] = conddist.calibrate_uniform_band(
            m, x, 0.95, method="gauss", mc_size=MC, seed=0)[1]
        return out

    def check(self, x, out) -> list:
        return query_problems(self.model, x, out, self.events)

    def finish(self) -> list:
        sample, _ = flm.build_far_design(io.load_curves(self.series_path), self.ar_order)
        fitted = flm.fit(sample, flm.TruncationRule.parse("threshold:auto"))
        covariates = [self.input(i) for i in range(self.warmup)]
        return model_file_problems(self.model, fitted, covariates)

    def model_json_bytes(self) -> int:
        return self.json_bytes


# ---------------------------------------------------------------------------
# daily

def daily_inputs(seed: int, days: int) -> tuple:
    """A simulated year of hourly curves with yearly and weekly seasonality,
    one exogenous (temperature-like) curve series and the day indices.

    Plain numpy, so the inputs do not depend on the package's simulators."""
    rng = np.random.default_rng(seed)
    grid = Grid(DAILY_GRID_D)
    t = grid.points
    day = np.arange(days)
    doy = day % 365
    dow = (day + int(rng.integers(7))) % 7
    season = np.sin(2 * np.pi * doy / 365.0)

    basis = np.array([np.ones_like(t), np.sin(2 * np.pi * t), np.cos(2 * np.pi * t),
                      np.sin(4 * np.pi * t)])
    scores = np.empty((days, len(basis)))
    state = np.zeros(len(basis))
    for k in range(days):  # persistent smooth day-to-day noise
        state = 0.6 * state + rng.standard_normal(len(basis)) * np.array([0.8, 0.4, 0.3, 0.2])
        scores[k] = state
    temp = (10.0 - 8.0 * np.cos(2 * np.pi * (doy - 20) / 365.0))[:, None] \
        + 3.0 * np.sin(np.pi * t)[None, :] + rng.standard_normal((days, 1)) * 2.0
    shape = 6.6 + np.sin(2 * np.pi * t) + 0.45 * np.cos(4 * np.pi * t)
    response = (shape[None, :] + scores @ basis
                + 1.5 * season[:, None] * (1.0 + 0.3 * np.sin(np.pi * t))[None, :]
                + np.where(dow >= 5, -0.6, 0.1)[:, None]
                + 0.05 * (temp - 10.0))
    return ([Curve(grid, row) for row in response],
            [Curve(grid, row) for row in temp], doy, dow)


def daily_problems(report, n_days: int) -> list:
    """Ensemble methods are exactly monotone over nested events; every
    cross-entropy is finite and positive; rows and n_test match the split."""
    problems = []
    for method in ("boot", "gauss"):
        violations = report.summary.get(f"monotonicity_violations_{method}")
        if violations != 0:
            problems.append(f"{method} monotonicity violations: {violations}")
    n_test = int(round((n_days - DAILY_AR_ORDER) / 3))
    if len(report.rows) != DAILY_ZS * len(DAILY_METHODS):
        problems.append(f"{len(report.rows)} rows, want {DAILY_ZS * len(DAILY_METHODS)}")
    for alpha, z, method, ce, rows_n_test in report.rows:
        if not (math.isfinite(ce) and ce > 0):
            problems.append(f"{method} at z={z}: cross-entropy {ce}")
        if rows_n_test != n_test:
            problems.append(f"{method} at z={z}: n_test {rows_n_test}, split gives {n_test}")
    return problems


class Daily(_FitPerOperation):
    warmup = 1

    def __init__(self, seed: int, ops: int, tiny: bool, workdir):
        self.days = 120 if tiny else 365
        self.seeds = op_seeds(seed, self.warmup + ops)
        self.notes = {"monotonicity_violations_glm": 0, "monotonicity_violations_nw": 0}

    def input(self, i: int) -> tuple:
        return daily_inputs(self.seeds[i], self.days)

    def run(self, inputs):
        response, exog, doy, dow = inputs
        return experiments.run_entropy_eval(
            response, [(exog, False)], day_of_year=doy, day_of_week=dow,
            ar_order=DAILY_AR_ORDER, pve=DAILY_PVE, alphas=(DAILY_ALPHA,),
            methods=",".join(DAILY_METHODS), seed=0)

    def check(self, inputs, report) -> list:
        for key in self.notes:  # the baselines' violations are recorded, not failures
            self.notes[key] += report.summary[key]
        return daily_problems(report, self.days)


WORKLOADS = {"coverage": Coverage, "query": Query, "daily": Daily}
