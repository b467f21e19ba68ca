"""Seeded input generator for the four benchmark workloads.

The generator is independent of the package under test: the synthetic
market targets come from a small numpy re-implementation of the two-factor
Gaussian-copula prior (same model as `entropic_bespoke.prior`/`loss`), so a
change to the package can never change the benchmark's inputs.  The program
only ever sees the files written here.

The default seed reproduces the base inputs (the acceptance-suite hazard
ladder).  Any other seed jitters hazards, loadings and bucket membership
within fixed ranges; every size (names, buckets, lattice, factor grid,
constraints, horizons) stays the same, so runs on different seeds do the
same amount of work.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr, ndtri

DEFAULT_SEED = 0

WORKLOADS = (
    "static-price-10x10",
    "static-lib-30x30",
    "dynamic-3x3",
    "basecorr-probmatch",
)

HORIZONS = (1.0, 2.0, 3.0, 4.0, 5.0)
STRIKES = (0.0, 0.03, 0.07, 0.10, 0.15, 0.30)
BESPOKE_LADDER = (0.0, 0.03, 0.07, 0.10, 0.15, 0.30, 1.0)
PRIOR_PARAMS = (0.5, 0.3)      # (rho, alpha) the calibration starts from
MARKET_PARAMS = (0.6, 0.15)    # (rho, alpha) that generates the targets
SIGMA = 1e-4
RECOVERY = 0.4
DISCOUNT_RATE = 0.02

# static indices: 125 names, 50 relevant; the acceptance-suite ladder
STATIC_INDEX = dict(n_names=125, n_relevant=50, base_hazard=0.004,
                    hazard_step=0.0004, loading=0.5)
# dynamic indices: 8 names, 4 relevant, three annual periods
DYNAMIC_INDEX = dict(n_names=8, n_relevant=4, base_hazard=0.02,
                     hazard_step=0.004, loading=0.5)
DYNAMIC_HORIZONS = (1.0, 2.0, 3.0)
DYNAMIC_TRANCHE = (0.0, 0.15)

# base-correlation skew: 5 pillars per horizon, rising with strike and time
SKEW_STRIKES = (0.03, 0.07, 0.10, 0.15, 0.30)
SKEW_BETAS = (0.30, 0.36, 0.42, 0.50, 0.62)
SKEW_TIME_SLOPE = 0.01
BASECORR_MATURITIES = (3.0, 5.0)

# jitter ranges for non-default seeds
HAZARD_JITTER = (0.9, 1.1)
LOADING_JITTER = (0.48, 0.52)
SKEW_JITTER = 0.01

CONSTRAINT_COLUMNS = ["index_id", "kind", "k_low", "k_high", "horizon",
                      "target_el", "sigma"]


# -- portfolios ------------------------------------------------------------


def index_names(index_id: int, horizons, rng, n_names: int, n_relevant: int,
                base_hazard: float, hazard_step: float, loading: float
                ) -> list[dict]:
    """Name records of one index: a hazard ladder with the highest-spread
    names first and in the relevant bucket (default seed), or the same
    ladder with jittered hazards, loadings and membership (other seeds)."""
    j = np.arange(n_names)
    hazards = base_hazard + hazard_step * (n_names - 1 - j)
    loadings = np.full(n_names, loading)
    relevant = j < n_relevant
    if rng is not None:
        hazards = hazards * rng.uniform(*HAZARD_JITTER, n_names)
        loadings = rng.uniform(*LOADING_JITTER, n_names)
        relevant = np.zeros(n_names, dtype=bool)
        relevant[rng.choice(n_names, n_relevant, replace=False)] = True
    return [
        {
            "id": f"i{index_id}_{k:03d}",
            "index_id": index_id,
            "bucket": "relevant" if relevant[k] else "complement",
            "recovery": RECOVERY,
            "notional_weight": 1.0 / n_names,
            "one_factor_loading": float(loadings[k]),
            "default_probs": [1.0 - math.exp(-float(hazards[k]) * t)
                              for t in horizons],
        }
        for k in range(n_names)
    ]


def portfolio_doc(seed: int, horizons, spec: dict) -> dict:
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    names = []
    for index_id in (1, 2):
        names.extend(index_names(index_id, horizons, rng, **spec))
    return {
        "factor_params": {"rho": PRIOR_PARAMS[0], "alpha": PRIOR_PARAMS[1]},
        "horizons": list(horizons),
        "names": names,
    }


# -- independent two-factor prior (targets) ------------------------------


def factor_grid(n1: int, n2: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(node coords (M, 2), prior weights (M,)) on the product
    Gauss-Hermite grid reweighted to correlation rho, m1-major."""
    x1, w1 = hermegauss(n1)
    x2, w2 = hermegauss(n2)
    z1, z2 = x1[:, None], x2[None, :]
    s = 1.0 - rho * rho
    ratio = np.exp(-0.5 * math.log(s)
                   - (rho * rho * (z1 * z1 + z2 * z2) - 2.0 * rho * z1 * z2)
                   / (2.0 * s))
    weights = np.outer(w1, w2) * ratio
    weights = (weights / weights.sum()).reshape(-1)
    coords = np.column_stack([np.repeat(x1, n2), np.tile(x2, n1)])
    return coords, weights


def bucket_pmfs(names: list[dict], horizon_idx: int, index_id: int,
                coords: np.ndarray, rho: float, alpha: float) -> np.ndarray:
    """Per-node loss pmf (M, n+1) of equal-LGD names, in units of one LGD."""
    domestic_scale = 1.0 / math.sqrt(1.0 + 2.0 * alpha * rho + alpha * alpha)
    pmf = np.zeros((len(coords), len(names) + 1))
    pmf[:, 0] = 1.0
    for n, rec in enumerate(names):
        dom = rec["one_factor_loading"] * domestic_scale
        b1, b2 = (dom, alpha * dom) if index_id == 1 else (alpha * dom, dom)
        idio = math.sqrt(1.0 - b1 * b1 - b2 * b2 - 2.0 * rho * b1 * b2)
        p = min(max(rec["default_probs"][horizon_idx], 1e-12), 1.0 - 1e-12)
        q = ndtr((ndtri(p) - b1 * coords[:, 0] - b2 * coords[:, 1]) / idio)
        nxt = pmf * (1.0 - q[:, None])
        nxt[:, 1:n + 2] += pmf[:, :n + 1] * q[:, None]
        pmf = nxt
    return pmf


def market_targets(doc: dict, horizons, strikes, tranche_pairs=None,
                   grid=(10, 10)) -> list[list]:
    """Constraint rows whose targets are ELs under the market prior.

    Each index gets its strike ladder's tranches (or `tranche_pairs`) plus
    both bucket totals, per horizon, all with softness SIGMA.
    """
    rho, alpha = MARKET_PARAMS
    coords, weights = factor_grid(grid[0], grid[1], rho)
    pairs = tranche_pairs or list(zip(strikes, strikes[1:]))
    rows = []
    for h, t in enumerate(horizons):
        for index_id in (1, 2):
            names = [r for r in doc["names"] if r["index_id"] == index_id]
            lgd = (1.0 - RECOVERY) / len(names)
            rel = [r for r in names if r["bucket"] == "relevant"]
            comp = [r for r in names if r["bucket"] == "complement"]
            p_rel = bucket_pmfs(rel, h, index_id, coords, rho, alpha)
            p_comp = bucket_pmfs(comp, h, index_id, coords, rho, alpha)
            total = np.array([np.convolve(a, b) for a, b in zip(p_rel, p_comp)])
            loss_total = weights @ total
            levels = lgd * np.arange(len(loss_total))
            for k_low, k_high in pairs:
                payoff = np.clip(levels - k_low, 0.0, k_high - k_low)
                rows.append([index_id, "tranche", repr(k_low), repr(k_high),
                             repr(t), repr(float(loss_total @ payoff)),
                             repr(SIGMA)])
            for kind, pmf in (("relevant_total", p_rel),
                              ("complement_total", p_comp)):
                el = float(weights @ (pmf @ (lgd * np.arange(pmf.shape[1]))))
                rows.append([index_id, kind, "", "", repr(t), repr(el),
                             repr(SIGMA)])
    return rows


# -- files -----------------------------------------------------------------


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _discount_rows(horizons):
    return [[repr(t), repr(math.exp(-DISCOUNT_RATE * t))] for t in horizons]


def _tranche_rows(ladder, maturities):
    return [[repr(a), repr(b), repr(t), 4, "yearfrac"]
            for t in maturities for a, b in zip(ladder, ladder[1:])]


def skew_rows(seed: int) -> list[list]:
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed + 1)
    rows = []
    for t in HORIZONS:
        shift = 0.0 if rng is None else float(rng.uniform(-SKEW_JITTER,
                                                          SKEW_JITTER))
        for k, b in zip(SKEW_STRIKES, SKEW_BETAS):
            rows.append([repr(k), repr(b + SKEW_TIME_SLOPE * (t - 1.0) + shift),
                         repr(t)])
    return rows


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write every input of `workload` into `out_dir`; returns the path of
    the run config (CLI workloads) or of the input manifest (library)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {"portfolios": "portfolios.json", "output_dir": "out",
              "threads": 1}
    if workload == "dynamic-3x3":
        doc = portfolio_doc(seed, DYNAMIC_HORIZONS, DYNAMIC_INDEX)
        _write_json(out_dir / "portfolios.json", doc)
        _write_csv(out_dir / "constraints.csv", CONSTRAINT_COLUMNS,
                   market_targets(doc, DYNAMIC_HORIZONS, None,
                                  tranche_pairs=[DYNAMIC_TRANCHE]))
        config.update(mode="calibrate-dynamic", constraints="constraints.csv",
                      grid_size=[3, 3], coarsen=1, persistence=0.9)
    else:
        doc = portfolio_doc(seed, HORIZONS, STATIC_INDEX)
        _write_json(out_dir / "portfolios.json", doc)
        _write_csv(out_dir / "discount.csv", ["time", "discount_factor"],
                   _discount_rows(HORIZONS))
    if workload in ("static-price-10x10", "static-lib-30x30"):
        _write_csv(out_dir / "constraints.csv", CONSTRAINT_COLUMNS,
                   market_targets(doc, HORIZONS, STRIKES))
        _write_csv(out_dir / "tranches.csv",
                   ["k_low", "k_high", "maturity", "frequency", "daycount"],
                   _tranche_rows(BESPOKE_LADDER, (5.0,)))
        config.update(mode="price-bespoke", constraints="constraints.csv",
                      discount_curve="discount.csv", tranches="tranches.csv",
                      bespoke={"members": [[1, "relevant"], [2, "relevant"]]},
                      grid_size=[10, 10] if workload == "static-price-10x10"
                      else [30, 30])
    if workload == "basecorr-probmatch":
        _write_csv(out_dir / "basecorr.csv", ["strike", "beta", "horizon"],
                   skew_rows(seed))
        _write_csv(out_dir / "tranches.csv",
                   ["k_low", "k_high", "maturity", "frequency", "daycount"],
                   _tranche_rows(BESPOKE_LADDER, BASECORR_MATURITIES))
        config.update(mode="map-basecorr", base_correlation="basecorr.csv",
                      tranches="tranches.csv", discount_curve="discount.csv",
                      bespoke={"members": [[1, "relevant"]]},
                      mapping_rule="probability_matching", reference_index=1)
    path = out_dir / "config.json"
    _write_json(path, config)
    return path
