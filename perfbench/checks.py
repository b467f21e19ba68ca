"""Answer checks for one benchmark run.

Every seed gets the structural checks: the optimality identity
residual = -lambda * sigma^2, targets read back unchanged, the factor grid
against an independent construction, tranche legs against the calibrated
pool expected loss (tranche payoffs over a full strike ladder sum to the
pool loss, and both legs are linear in the EL curve), dynamic mass
conservation and monotone losses, and the probability-matching fixed point
against an independent one-factor loss law.  The default seed is also
compared with the reference fingerprints in reference.json.

Output-file sha256 digests are recorded for information only: a digest
change alone is not a failure, so a later change whose numbers drift far
below the tolerances is judged on the tolerances.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr, ndtri

import workloads

# Tolerances.  Diagnostics are printed with 10 significant digits, par
# spreads with one decimal; the solver stops at gradient inf-norm 1e-9.
KKT_TOL = 2e-9            # |residual + lambda * sigma^2|, absolute
PRINT_REL = 1e-9          # one value read back against another, relative
FIT_TOL = 1e-5            # |residual| sanity bound, absolute
MASS_TOL = 1e-10          # total mass of a dynamic state or kernel row
LEG_REL = 1e-7            # leg identities from 10-digit columns
SPREAD_PRINT_BP = 0.05 + 1e-6   # one-decimal rounding of par_spread_bp
FIXED_POINT_TOL = 1e-5    # |F_index(K_i) - F_bespoke(K_b)| at the mapped strike
# Reference fingerprints (default seed): (relative, absolute) per key.
REFERENCE_TOL = {
    "par_spread_bp": (1e-6, 1e-4),
    "max_abs_residual": (0.0, 2e-9),
    "kl_to_prior": (1e-6, 1e-12),
    "expected_loss": (1e-8, 1e-12),
    "k_index": (0.0, 2e-8),
    "beta_at_k_index": (0.0, 2e-8),
}


class Failures(list):
    def expect(self, ok: bool, message: str):
        if not ok:
            self.append(message)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def file_digests(out: Path) -> dict[str, dict]:
    """sha256, data rows (lines minus header) and bytes per output file."""
    info = {}
    for path in sorted(out.iterdir()):
        digest, lines, size = hashlib.sha256(), 0, 0
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                lines += chunk.count(b"\n")
                size += len(chunk)
        rows = lines - 1 if path.suffix == ".csv" else 0
        info[path.name] = {"sha256": digest.hexdigest(), "rows": rows,
                           "bytes": size}
    return info


# -- independent pricing pieces ---------------------------------------------


def discount_factor(times, factors, t: float) -> float:
    """Log-linear interpolation with B(0) = 1 (pillars cover every time
    the benchmark prices)."""
    if t <= 0.0:
        return 1.0
    ts = np.concatenate([[0.0], times])
    logs = np.concatenate([[0.0], np.log(factors)])
    if t > ts[-1] + 1e-12:
        raise ValueError("benchmark times stay inside the discount pillars")
    return float(np.exp(np.interp(t, ts, logs)))


def legs(horizons, els, maturity: float, curve) -> tuple[float, float]:
    """(default leg, risky annuity) of a quarterly-pay contract on an EL
    term structure, EL interpolated linearly with EL(0) = 0."""
    n = int(round(maturity * 4))
    coupons = np.arange(1, n + 1) / 4.0
    times = np.concatenate([[0.0], coupons])
    el = np.interp(times, np.concatenate([[0.0], horizons]),
                   np.concatenate([[0.0], els]))
    b = np.array([discount_factor(*curve, t) for t in times])
    dleg = float(np.sum(0.5 * (b[:-1] + b[1:]) * np.diff(el)))
    en = 1.0 - el
    annuity = float(np.sum(np.diff(times) * b[1:] * 0.5 * (en[:-1] + en[1:])))
    return dleg, annuity


def read_curve(inputs: Path):
    rows = read_rows(inputs / "discount.csv")
    return (np.array([float(r["time"]) for r in rows]),
            np.array([float(r["discount_factor"]) for r in rows]))


def check_price_rows(fails: Failures, prices: list[dict], pool_el,
                     curve, printed_bp: bool):
    """prices: dicts with k_low, k_high, maturity, par_spread_bp,
    risky_annuity, default_leg.  pool_el(maturity) gives (horizons, ELs)
    of the pool loss as a fraction of bespoke notional."""
    by_maturity: dict[float, list[dict]] = {}
    for p in prices:
        by_maturity.setdefault(p["maturity"], []).append(p)
        exact_bp = 1e4 * p["default_leg"] / p["risky_annuity"]
        fails.expect(
            math.isfinite(exact_bp) and p["default_leg"] > 0.0
            and p["risky_annuity"] > 0.0,
            f"tranche {p['k_low']}-{p['k_high']}: legs not positive")
        tol = SPREAD_PRINT_BP if printed_bp else 1e-9 * abs(exact_bp)
        fails.expect(
            abs(p["par_spread_bp"] - exact_bp) <= tol,
            f"tranche {p['k_low']}-{p['k_high']}: par spread "
            f"{p['par_spread_bp']} bp != default leg / annuity "
            f"{exact_bp:.6f} bp")
    for maturity, group in by_maturity.items():
        group.sort(key=lambda p: p["k_low"])
        ladder = [p["k_low"] for p in group] + [group[-1]["k_high"]]
        fails.expect(ladder[0] == 0.0 and ladder[-1] == 1.0 and all(
            a["k_high"] == b["k_low"] for a, b in zip(group, group[1:])),
            f"maturity {maturity}: tranches do not partition [0, 1]")
        horizons, els = pool_el(maturity)
        want_dleg, want_annuity = legs(horizons, els, maturity, curve)
        widths = [p["k_high"] - p["k_low"] for p in group]
        got_dleg = sum(w * p["default_leg"] for w, p in zip(widths, group))
        got_annuity = sum(w * p["risky_annuity"]
                          for w, p in zip(widths, group))
        fails.expect(close(got_dleg, want_dleg, LEG_REL),
                     f"maturity {maturity}: width-weighted default legs "
                     f"{got_dleg:.12g} != pool default leg {want_dleg:.12g}")
        fails.expect(close(got_annuity, want_annuity, LEG_REL),
                     f"maturity {maturity}: width-weighted annuities "
                     f"{got_annuity:.12g} != pool annuity {want_annuity:.12g}")


def constraint_label(row: dict) -> str:
    """The `constraint` column the package writes for an input row."""
    if row["kind"] == "tranche":
        return (f"i{row['index_id']}:tranche"
                f"[{float(row['k_low'])},{float(row['k_high'])}]")
    return f"i{row['index_id']}:{row['kind']}"


def check_residual_rows(fails: Failures, rows: list[dict], inputs: Path):
    """Per constraint: present once, target read back, KKT identity,
    residual arithmetic."""
    targets = {(float(r["horizon"]), constraint_label(r)): float(r["target_el"])
               for r in read_rows(inputs / "constraints.csv")}
    seen = [(float(r["horizon"]), r["constraint"]) for r in rows]
    fails.expect(sorted(seen) == sorted(targets),
                 "residual rows do not list each input constraint once")
    for (t, label), r in zip(seen, rows):
        target, model = float(r["target_el"]), float(r["model_el"])
        residual, lam = float(r["residual"]), float(r["lambda"])
        sigma = float(r["sigma"])
        where = f"horizon {t} {label}"
        fails.expect(close(target, targets.get((t, label), math.nan),
                           PRINT_REL),
                     f"{where}: target {target} is not the input target")
        fails.expect(abs(residual + lam * sigma * sigma) <= KKT_TOL,
                     f"{where}: residual {residual:.6g} != -lambda*sigma^2 "
                     f"{-lam * sigma * sigma:.6g}")
        fails.expect(abs(residual) <= FIT_TOL,
                     f"{where}: residual {residual:.3g} above {FIT_TOL}")
        fails.expect(close(model - target, residual, 0.0,
                           PRINT_REL * abs(target) + 1e-15),
                     f"{where}: model - target != residual")


def _relevant_totals(rows: list[dict]) -> dict[tuple[float, int], float]:
    return {(float(r["horizon"]), int(r["index_id"])): float(r["model_el"])
            for r in rows if r["constraint"].endswith(":relevant_total")}


def bespoke_notional(inputs: Path, members) -> float:
    doc = json.loads((inputs / "portfolios.json").read_text())
    return sum(n["notional_weight"] for n in doc["names"]
               if [n["index_id"], n["bucket"]] in members)


def _pool_el_from_totals(totals, members, notional):
    def pool_el(maturity):
        hs = sorted({t for t, _ in totals if t <= maturity + 1e-9})
        els = [sum(totals[(t, i)] for i, _ in members) / notional for t in hs]
        return np.array(hs), np.array(els)
    return pool_el


# -- per workload ------------------------------------------------------------


def check_static_cli(inputs: Path, out: Path):
    fails = Failures()
    doc = json.loads((inputs / "config.json").read_text())
    rows = read_rows(out / "calibration_residuals.csv")
    check_residual_rows(fails, rows, inputs)

    rho = json.loads((inputs / "portfolios.json").read_text())[
        "factor_params"]["rho"]
    _, weights = workloads.factor_grid(*doc["grid_size"], rho)
    by_h: dict[str, list[dict]] = {}
    for r in read_rows(out / "factor_distribution.csv"):
        by_h.setdefault(r["horizon"], []).append(r)
    for h, frows in by_h.items():
        prior = np.array([float(r["prior_weight"]) for r in frows])
        post = np.array([float(r["posterior_weight"]) for r in frows])
        fails.expect(np.allclose(prior, weights, rtol=1e-10, atol=0.0),
                     f"horizon {h}: prior factor weights differ from the "
                     "Gauss-Hermite grid")
        fails.expect(abs(post.sum() - 1.0) <= MASS_TOL and post.min() >= 0.0,
                     f"horizon {h}: posterior factor weights sum to "
                     f"{post.sum()!r}")

    members = doc["bespoke"]["members"]
    pool_el = _pool_el_from_totals(_relevant_totals(rows), members,
                                   bespoke_notional(inputs, members))
    maturity = {(float(r["k_low"]), float(r["k_high"])): float(r["maturity"])
                for r in read_rows(inputs / "tranches.csv")}
    prices = []
    for r in read_rows(out / "tranche_prices.csv"):
        k = (float(r["k_low"]), float(r["k_high"]))
        prices.append({"k_low": k[0], "k_high": k[1], "maturity": maturity[k],
                       "par_spread_bp": float(r["par_spread_bp"]),
                       "risky_annuity": float(r["risky_annuity"]),
                       "default_leg": float(r["default_leg"])})
    check_price_rows(fails, prices, pool_el, read_curve(inputs), True)
    fingerprint = {
        "par_spread_bp": [1e4 * p["default_leg"] / p["risky_annuity"]
                          for p in prices],
        "max_abs_residual": max(abs(float(r["residual"])) for r in rows),
    }
    return fails, fingerprint


def check_static_lib(inputs: Path, out: Path):
    fails = Failures()
    doc = json.loads((inputs / "config.json").read_text())
    result = json.loads((out / "library_result.json").read_text())
    rows = []
    for h in result["horizons"]:
        for index_id, label, target, model, residual, lam, sigma in zip(
                h["index_ids"], h["labels"], h["targets"], h["model_els"],
                h["residuals"], h["lambdas"], h["sigmas"]):
            rows.append({"horizon": h["horizon"], "index_id": index_id,
                         "constraint": label, "target_el": target,
                         "model_el": model, "residual": residual,
                         "lambda": lam, "sigma": sigma})
        fails.expect(h["kl_to_prior"] > 0.0 and math.isfinite(h["kl_to_prior"]),
                     f"horizon {h['horizon']}: KL to prior "
                     f"{h['kl_to_prior']!r} not positive")
    check_residual_rows(fails, rows, inputs)
    members = doc["bespoke"]["members"]
    notional = bespoke_notional(inputs, members)
    totals = _relevant_totals(rows)
    pool_el = _pool_el_from_totals(totals, members, notional)
    for h in result["horizons"]:
        _, els = pool_el(h["horizon"])
        fails.expect(close(h["bespoke_el"], els[-1], PRINT_REL),
                     f"horizon {h['horizon']}: bespoke EL {h['bespoke_el']} "
                     f"!= calibrated relevant totals {els[-1]}")
    check_price_rows(fails, result["prices"], pool_el, read_curve(inputs),
                     False)
    fingerprint = {
        "par_spread_bp": [p["par_spread_bp"] for p in result["prices"]],
        "max_abs_residual": max(abs(r["residual"]) for r in rows),
        "kl_to_prior": [h["kl_to_prior"] for h in result["horizons"]],
    }
    return fails, fingerprint


def check_dynamic(inputs: Path, out: Path):
    fails = Failures()
    rows = read_rows(out / "calibration_residuals.csv")
    check_residual_rows(fails, rows, inputs)
    ports = json.loads((inputs / "portfolios.json").read_text())
    unit = min((1.0 - n["recovery"]) * n["notional_weight"]
               for n in ports["names"])
    model_el = {(float(r["horizon"]), r["constraint"]): float(r["model_el"])
                for r in rows}
    states = np.array([[float(v) for v in r.values()]
                       for r in read_rows(out / "dynamic_states.csv")])
    labels = ("i1:relevant_total", "i1:complement_total",
              "i2:relevant_total", "i2:complement_total")
    history = []
    for period in sorted(set(states[:, 0])):
        block = states[states[:, 0] == period]
        horizon, probs = block[0, 1], block[:, 7]
        fails.expect(abs(probs.sum() - 1.0) <= MASS_TOL and probs.min() >= 0.0,
                     f"period {int(period)}: state mass {probs.sum()!r}")
        els = [float(probs @ block[:, 3 + c]) * unit for c in range(4)]
        for label, el in zip(labels, els):
            fails.expect(close(el, model_el[(horizon, label)], PRINT_REL),
                         f"period {int(period)} {label}: state EL {el:.12g} "
                         f"!= calibrated {model_el[(horizon, label)]:.12g}")
        if history:
            fails.expect(all(b >= a - 1e-15 for a, b in zip(history[-1], els)),
                         f"period {int(period)}: expected loss decreased")
        history.append(els)
    mass: dict[tuple[str, str], float] = {}
    for r in read_rows(out / "dynamic_factor_kernels.csv"):
        key = (r["period"], r["prev_row"])
        mass[key] = mass.get(key, 0.0) + float(r["prob"])
    worst = max(abs(v - 1.0) for v in mass.values())
    fails.expect(worst <= MASS_TOL, f"factor kernel row mass off by {worst:.3g}")
    fingerprint = {
        "expected_loss": history,
        "max_abs_residual": max(abs(float(r["residual"])) for r in rows),
    }
    return fails, fingerprint


def onefactor_cdf(names: list[dict], beta: float, horizon_idx: int):
    """(loss levels, cdf) of a pool under a flat one-factor copula with
    loading sqrt(beta), 31 Gauss-Hermite nodes, equal-LGD names."""
    z, w = hermegauss(31)
    w = w / math.sqrt(2.0 * math.pi)
    pmf = np.zeros((len(z), len(names) + 1))
    pmf[:, 0] = 1.0
    for n, rec in enumerate(names):
        p = min(max(rec["default_probs"][horizon_idx], 1e-12), 1.0 - 1e-12)
        q = ndtr((ndtri(p) - math.sqrt(beta) * z) / math.sqrt(1.0 - beta))
        nxt = pmf * (1.0 - q[:, None])
        nxt[:, 1:n + 2] += pmf[:, :n + 1] * q[:, None]
        pmf = nxt
    unit = (1.0 - workloads.RECOVERY) / len(names)
    return unit * np.arange(len(names) + 1), np.cumsum(w @ pmf)


def check_basecorr(inputs: Path, out: Path):
    fails = Failures()
    ports = json.loads((inputs / "portfolios.json").read_text())
    horizons = ports["horizons"]
    index = [n for n in ports["names"] if n["index_id"] == 1]
    bespoke = [n for n in index if n["bucket"] == "relevant"]
    skews: dict[float, list] = {}
    for r in read_rows(inputs / "basecorr.csv"):
        skews.setdefault(float(r["horizon"]), []).append(
            (float(r["strike"]), float(r["beta"])))

    def beta(t: float, k: float) -> float:
        """Monotone cubic in strike, flat outside the pillars."""
        ks, bs = zip(*sorted(skews[t]))
        if k <= ks[0]:
            return bs[0]
        if k >= ks[-1]:
            return bs[-1]
        return float(PchipInterpolator(ks, bs)(k))

    def pool_el(names, t):
        h = horizons.index(t)
        return sum((1.0 - n["recovery"]) * n["default_probs"][h]
                   for n in names) / len(names)

    # The CLI builds the index law once per maturity, under the skew at the
    # lowest bespoke strike, and reuses it for every strike of that maturity
    # (docs/file_formats.md, mapped_strikes.csv); the check follows suit.
    rows = read_rows(out / "mapped_strikes.csv")
    first_strike = {}
    for r in rows:
        t, k_b = float(r["maturity"]), float(r["k_bespoke"])
        first_strike[t] = min(first_strike.get(t, k_b), k_b)
    mapped = {}
    for r in rows:
        t, k_b = float(r["maturity"]), float(r["k_bespoke"])
        k_i, b_i = float(r["k_index"]), float(r["beta_at_k_index"])
        mapped[(t, k_b)] = (k_i, b_i)
        where = f"maturity {t} strike {k_b}"
        fails.expect(close(float(r["bespoke_el"]), pool_el(bespoke, t),
                           PRINT_REL), f"{where}: bespoke EL")
        fails.expect(close(float(r["index_el"]), pool_el(index, t), PRINT_REL),
                     f"{where}: index EL")
        fails.expect(abs(b_i - beta(t, k_i)) <= 1e-8,
                     f"{where}: beta {b_i} != skew at mapped strike")
        h = horizons.index(t)
        xs_i, cdf_i = onefactor_cdf(index, beta(t, first_strike[t]), h)
        xs_b, cdf_b = onefactor_cdf(bespoke, beta(t, k_i), h)
        gap = abs(np.interp(k_i, xs_i, cdf_i) - np.interp(k_b, xs_b, cdf_b))
        fails.expect(gap <= FIXED_POINT_TOL,
                     f"{where}: probability-matching gap {gap:.3g}")

    def pool_el_curve(maturity):
        b = mapped[(maturity, 1.0)][1]
        hs = [t for t in horizons if t <= maturity + 1e-9]
        els = []
        for t in hs:
            xs, cdf = onefactor_cdf(bespoke, b, horizons.index(t))
            els.append(float(np.diff(np.concatenate([[0.0], cdf])) @ xs))
        return np.array(hs), np.array(els)

    tranche_rows = read_rows(inputs / "tranches.csv")
    prices = []
    for spec, r in zip(tranche_rows, read_rows(out / "basecorr_prices.csv")):
        prices.append({"k_low": float(r["k_low"]), "k_high": float(r["k_high"]),
                       "maturity": float(spec["maturity"]),
                       "par_spread_bp": float(r["par_spread_bp"]),
                       "risky_annuity": float(r["risky_annuity"]),
                       "default_leg": float(r["default_leg"])})
    check_price_rows(fails, prices, pool_el_curve, read_curve(inputs), True)
    keys = sorted(mapped)
    fingerprint = {
        "k_index": [mapped[k][0] for k in keys],
        "beta_at_k_index": [mapped[k][1] for k in keys],
        "par_spread_bp": [1e4 * p["default_leg"] / p["risky_annuity"]
                          for p in prices],
    }
    return fails, fingerprint


CHECKS = {
    "static-price-10x10": check_static_cli,
    "static-lib-30x30": check_static_lib,
    "dynamic-3x3": check_dynamic,
    "basecorr-probmatch": check_basecorr,
}


def compare_reference(fingerprint: dict, reference: dict) -> list[str]:
    fails = []
    for key, want in reference.items():
        got = fingerprint.get(key)
        rel, abs_ = REFERENCE_TOL[key]
        got_flat = np.ravel(np.asarray(got, dtype=float)) if got is not None \
            else np.array([])
        want_flat = np.ravel(np.asarray(want, dtype=float))
        if got_flat.shape != want_flat.shape:
            fails.append(f"{key}: shape {got_flat.shape} != reference "
                         f"{want_flat.shape}")
            continue
        for n, (g, w) in enumerate(zip(got_flat, want_flat)):
            if not close(float(g), float(w), rel, abs_):
                fails.append(f"{key}[{n}]: {g!r} != reference {w!r}")
    return fails


def check_run(workload: str, inputs: Path, out: Path,
              reference: dict | None) -> tuple[list[str], dict]:
    """(failures, fingerprint) of one finished run; a missing or unreadable
    output is a failure, never an exception."""
    try:
        fails, fingerprint = CHECKS[workload](inputs, out)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"], {}
    if reference is not None:
        fails.extend(compare_reference(fingerprint, reference))
    return list(fails), fingerprint
