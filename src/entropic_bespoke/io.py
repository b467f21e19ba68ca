"""File formats: portfolio JSON, constraint/curve/tranche CSVs, measure
dumps.  Column layouts are documented in docs/file_formats.md; diagnostic
numbers are written with 10 significant digits, measure dumps with 17 (so
a reload reprices bit-identically).
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .basecorr import BaseCorrCurve
from .calibrate import PricingConstraint, DEFAULT_SIGMA
from .errors import ConfigurationError
from .pricing import BespokeSpec, DiscountCurve, TrancheSpec
from .prior import COMPLEMENT, RELEVANT, FactorParams, IndexPortfolio, NameSpec

NUM = "%.10g"
FULL = "%.17g"

# Rows per text block of a streamed dump; bounds the text held in memory.
_BLOCK_ROWS = 1 << 16

CONSTRAINT_COLUMNS = ["index_id", "kind", "k_low", "k_high", "horizon",
                      "target_el", "sigma"]
_CSV_KINDS = {"tranche", "relevant_total", "complement_total"}


def _fmt(value: float, spec: str = NUM) -> str:
    return spec % float(value)


def load_portfolios(
    path: str | Path,
) -> tuple[FactorParams, dict[int, IndexPortfolio], list[float]]:
    """Portfolio definition file: factor_params block, horizon list and one
    record per name with default probabilities aligned to the horizons."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    try:
        fp = doc["factor_params"]
        params = FactorParams(rho=float(fp["rho"]), alpha=float(fp["alpha"]))
        horizons = [float(t) for t in doc["horizons"]]
        names: dict[int, list[NameSpec]] = {}
        for rec in doc["names"]:
            probs = [float(p) for p in rec["default_probs"]]
            if len(probs) != len(horizons):
                raise ConfigurationError(
                    f"{path}: name {rec.get('id')} has {len(probs)} default "
                    f"probabilities for {len(horizons)} horizons"
                )
            name = NameSpec(
                id=str(rec["id"]),
                index_id=int(rec["index_id"]),
                bucket=str(rec["bucket"]),
                recovery=float(rec["recovery"]),
                notional_weight=float(rec["notional_weight"]),
                one_factor_loading=float(rec["one_factor_loading"]),
                default_prob_curve=tuple(zip(horizons, probs)),
            )
            names.setdefault(name.index_id, []).append(name)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing field {exc}") from exc
    portfolios = {
        i: IndexPortfolio(index_id=i, names=tuple(ns))
        for i, ns in sorted(names.items())
    }
    if not portfolios:
        raise ConfigurationError(f"{path}: no names")
    return params, portfolios, horizons


def load_constraints(path: str | Path) -> list[PricingConstraint]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CONSTRAINT_COLUMNS:
            raise ConfigurationError(
                f"{path}: header must be {','.join(CONSTRAINT_COLUMNS)}"
            )
        for row in reader:
            kind = row["kind"].strip()
            if kind not in _CSV_KINDS:
                raise ConfigurationError(
                    f"{path}: kind must be one of {sorted(_CSV_KINDS)}"
                )
            sigma = row["sigma"].strip()
            common = dict(
                index_id=int(row["index_id"]),
                horizon=float(row["horizon"]),
                target_el=float(row["target_el"]),
                sigma=float(sigma) if sigma else DEFAULT_SIGMA,
            )
            if kind == "tranche":
                out.append(PricingConstraint(
                    kind="tranche", k_low=float(row["k_low"]),
                    k_high=float(row["k_high"]), **common,
                ))
            else:
                bucket = RELEVANT if kind == "relevant_total" else COMPLEMENT
                out.append(PricingConstraint(
                    kind="subportfolio_total", bucket=bucket, **common,
                ))
    if not out:
        raise ConfigurationError(f"{path}: no constraints")
    return out


def load_discount_curve(path: str | Path) -> DiscountCurve:
    times, factors = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["time", "discount_factor"]:
            raise ConfigurationError(f"{path}: header must be time,discount_factor")
        for row in reader:
            times.append(float(row["time"]))
            factors.append(float(row["discount_factor"]))
    return DiscountCurve(times=tuple(times), factors=tuple(factors))


def load_tranches(path: str | Path) -> list[TrancheSpec]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["k_low", "k_high", "maturity", "frequency",
                                 "daycount"]:
            raise ConfigurationError(
                f"{path}: header must be k_low,k_high,maturity,frequency,daycount"
            )
        for row in reader:
            if row["daycount"].strip() not in ("", "yearfrac"):
                raise ConfigurationError(
                    f"{path}: daycount supports only 'yearfrac'"
                )
            out.append(TrancheSpec.with_schedule(
                k_low=float(row["k_low"]),
                k_high=float(row["k_high"]),
                maturity=float(row["maturity"]),
                frequency=int(row["frequency"]),
            ))
    if not out:
        raise ConfigurationError(f"{path}: no tranches")
    return out


def load_basecorr_curves(path: str | Path) -> dict[float, BaseCorrCurve]:
    """One curve per horizon from rows (strike, beta, horizon)."""
    pillars: dict[float, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["strike", "beta", "horizon"]:
            raise ConfigurationError(f"{path}: header must be strike,beta,horizon")
        for row in reader:
            pillars.setdefault(float(row["horizon"]), []).append(
                (float(row["strike"]), float(row["beta"]))
            )
    out = {}
    for t, pts in sorted(pillars.items()):
        pts.sort()
        out[t] = BaseCorrCurve(
            strikes=tuple(k for k, _ in pts), betas=tuple(b for _, b in pts)
        )
    return out


def parse_bespoke_spec(doc: dict, notional: float) -> BespokeSpec:
    members = tuple((int(i), str(b)) for i, b in doc.get("members", []))
    proxy = []
    for item in doc.get("proxy_el_targets", []):
        ref = (int(item["index_id"]), str(item["bucket"]))
        curve = tuple(
            (float(t), float(el)) for t, el in sorted(item["targets"].items(),
                                                      key=lambda kv: float(kv[0]))
        )
        proxy.append((ref, curve))
    return BespokeSpec(members=members, notional=notional,
                       proxy_el_targets=tuple(proxy))


# -- writers -------------------------------------------------------------


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[str | Sequence[str]]):
    """Header, then each item of `rows` in turn: a `str` is pre-formatted
    CSV text and is written verbatim, a sequence of fields is one row and
    goes through CSV quoting.  Items are consumed as they are written, so a
    generator of text blocks streams to disk."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


def _text_blocks(prefix: str, line: str,
                 *columns: np.ndarray) -> Iterator[str]:
    """CSV text of the rows `prefix + line % (c[j] for c in columns)`, in
    blocks of at most `_BLOCK_ROWS` rows.  `prefix` holds the leading
    fields shared by every row, formatted once; the fields must never need
    quoting."""
    template = prefix + line
    n = len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        fields = zip(*(c[start:stop].tolist() for c in columns))
        yield (template * (stop - start)) % tuple(chain.from_iterable(fields))


def residual_rows(horizon: float, result) -> list[list[str]]:
    rows = []
    for c, model_el, lam in zip(result.constraints, result.model_els,
                                result.lambdas):
        target = c.target_el
        rel = (model_el - target) / target * 100.0 if target > 0.0 else float("nan")
        rows.append([
            _fmt(horizon), str(c.index_id), c.label(),
            _fmt(target), _fmt(model_el), _fmt(model_el - target),
            _fmt(rel), _fmt(lam), _fmt(c.sigma),
        ])
    return rows


RESIDUAL_HEADER = ["horizon", "index_id", "constraint", "target_el",
                   "model_el", "residual", "rel_error_pct", "lambda", "sigma"]

FACTOR_HEADER = ["horizon", "m1", "m2", "z1", "z2", "prior_weight",
                 "posterior_weight"]


def factor_rows(horizon: float, result) -> list[list[str]]:
    grid = result.grid
    n2 = len(grid.nodes2)
    rows = []
    for flat, (g, h) in enumerate(zip(grid.flat_weights,
                                      result.posterior_weights)):
        m1, m2 = divmod(flat, n2)
        rows.append([
            _fmt(horizon), str(m1), str(m2),
            _fmt(grid.nodes1[m1]), _fmt(grid.nodes2[m2]),
            _fmt(g, FULL), _fmt(h, FULL),
        ])
    return rows


MEASURE_HEADER = ["horizon", "index_id", "m", "x_rel", "x_comp", "prob"]


def measure_rows(horizon: float, result) -> Iterator[str]:
    """posterior_measure.csv text for one horizon: the nonzero cells of
    each tilted conditional, by index, factor node, then C order of
    (x_rel, x_comp)."""
    t = _fmt(horizon)
    for i in result.index_ids:
        pmfs = result.tilted_conditionals[i]
        for m in range(pmfs.shape[0]):
            xs, ys = np.nonzero(pmfs[m])
            yield from _text_blocks(f"{t},{i},{m},", f"%d,%d,{FULL}\n",
                                    xs, ys, pmfs[m][xs, ys])


PRICING_HEADER = ["k_low", "k_high", "par_spread_bp", "risky_annuity",
                  "default_leg"]


def pricing_rows(prices) -> list[list[str]]:
    return [
        [
            _fmt(p.tranche.k_low), _fmt(p.tranche.k_high),
            "%.1f" % p.par_spread_bp, _fmt(p.risky_annuity),
            _fmt(p.default_leg),
        ]
        for p in prices
    ]


STATE_HEADER = ["period", "horizon", "m", "x11", "x12", "x21", "x22", "prob"]


def state_rows(states) -> Iterator[str]:
    """dynamic_states.csv text: every support row of each state in turn."""
    for state in states:
        line = "%d," * state.support.shape[1] + FULL + "\n"
        yield from _text_blocks(f"{state.period},{_fmt(state.horizon)},",
                                line, *state.support.T, state.probs)


KERNEL_HEADER = ["period", "horizon", "prev_row", "m_next", "prob"]


def kernel_rows(kernels) -> Iterator[str]:
    """dynamic_factor_kernels.csv text: the positive entries of each
    period's factor rows, by previous support row, then next node."""
    for kernel in kernels:
        rows = kernel.factor_rows
        prev, nxt = np.nonzero(rows > 0.0)
        yield from _text_blocks(f"{kernel.period},{_fmt(kernel.horizon)},",
                                f"%d,%d,{FULL}\n", prev, nxt, rows[prev, nxt])


MAPPING_HEADER = ["rule", "k_bespoke", "maturity", "bespoke_el", "index_el",
                  "k_index", "beta_at_k_index"]
