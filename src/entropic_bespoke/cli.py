"""Batch front end.

One JSON config drives a run; flags only pick the config path, override
the mode or thread count, and select the output directory.  Outputs are
deterministic: identical inputs produce byte-identical files regardless of
thread count.  On failure every partially written output is removed and a
single machine-parsable error line, `ERROR <code>: message` with the
`code` of the error's class, goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import warnings
from itertools import chain
from pathlib import Path

from . import __version__, basecorr, io as fmt, pricing
from .calibrate import calibrate
from .dynamic import DynamicModel, TimeGrid
from .errors import ConfigurationError, EntropicBespokeError, MappingConvergenceError
from .loss import (LossGrid, build_conditional_prior, check_loss_unit,
                   default_loss_unit, index_capacities, name_loss_units)
from .prior import RELEVANT, IndexPortfolio, build_market_grid
from .solver import check_stopping

# the input-file fields of a config, in the order their existence is checked
_INPUTS = ("constraints", "portfolios", "discount_curve", "tranches",
           "base_correlation")

# the options a run records in its manifest, by JSON kind: config keys
# that fill the RunConfig field of their name, and the solver block's keys
_OPTIONS = {"mapping_rule": str, "reference_index": int,
            "grid_size": (int, int), "persistence": float, "coarsen": int,
            "loss_unit": float, "threads": int}
_SOLVER_OPTIONS = {"tol": float, "max_iter": int}


@dataclasses.dataclass
class RunConfig:
    mode: str
    portfolios: Path
    output_dir: Path
    constraints: Path | None = None
    discount_curve: Path | None = None
    tranches: Path | None = None
    base_correlation: Path | None = None
    bespoke: dict = dataclasses.field(default_factory=dict)
    mapping_rule: str = "atm"
    reference_index: int = 1
    grid_size: tuple[int, int] = (10, 10)
    persistence: float = 0.9
    coarsen: int = 1
    loss_unit: float | None = None
    tol: float = 1e-9
    max_iter: int = 200
    threads: int = 1
    verbose: bool = False

    @classmethod
    def from_file(cls, path: str | Path, mode: str | None = None,
                  out: str | None = None, threads: int | None = None,
                  verbose: bool = False) -> "RunConfig":
        """The run config in the JSON file `path`, with the flags' overrides.
        Every value is read by `io.parse_field`; a key that is absent or
        null keeps its field's default.  Paths resolve against the file's
        directory, and the input files must exist."""
        path = Path(path)
        doc = fmt.load_json(path)

        def given(section: dict, kinds: dict, prefix: str = "") -> dict:
            """The keys of `kinds` that `section` sets, read as their kinds."""
            return {key: fmt.parse_field(path, prefix + key, section[key], kind)
                    for key, kind in kinds.items()
                    if section.get(key) is not None}

        run_mode = mode or doc.get("mode")
        if run_mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {run_mode!r}")
        paths = {key: path.parent / value for key, value in
                 given(doc, dict.fromkeys((*_INPUTS, "output_dir"), str)).items()
                 if value}  # an empty path is unset
        if "portfolios" not in paths:
            raise ConfigurationError("config needs a 'portfolios' path")
        paths["output_dir"] = Path(out) if out else \
            paths.get("output_dir", path.parent / "out")
        sections = given(doc, {"solver": dict, "bespoke": dict})
        options = {**given(doc, _OPTIONS), **given(
            sections.get("solver", {}), _SOLVER_OPTIONS, "solver.")}
        if "bespoke" in sections:
            options["bespoke"] = fmt.parse_bespoke(path, sections["bespoke"])
        where, field = path, "threads"  # the source of the threads value
        if threads is not None:
            options["threads"], where, field = threads, "command line", "--threads"
        elif "threads" not in options and "ENTROPIC_BESPOKE_THREADS" in os.environ:
            where, field = "environment", "ENTROPIC_BESPOKE_THREADS"
            options["threads"] = fmt.parse_field(where, field, os.environ[field], int)
        cfg = cls(mode=run_mode, verbose=verbose, **paths, **options)
        if cfg.threads < 1:
            raise ConfigurationError(
                f"{where}: {field} must be at least 1, got {cfg.threads!r}")
        with fmt._named(path):
            check_stopping(cfg.tol, cfg.max_iter, "solver.")
            if cfg.loss_unit is not None:
                check_loss_unit(cfg.loss_unit, "loss_unit")
        for key in _INPUTS:
            if key in paths and not paths[key].exists():
                raise ConfigurationError(f"{key} file not found: {paths[key]}")
        return cfg


class _Reporter:
    """Tracks written outputs so a failed run leaves nothing behind."""

    def __init__(self, out_dir: Path, verbose: bool):
        self.out_dir = out_dir
        self.verbose = verbose
        self.written: list[Path] = []

    def csv(self, name: str, header, rows):
        path = self.out_dir / name
        self.written.append(path)  # before opening: a failed write is removed
        fmt.write_csv(path, header, rows)
        self.log(f"wrote {path}")

    def json(self, name: str, payload: dict):
        path = self.out_dir / name
        self.written.append(path)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self.log(f"wrote {path}")

    def log(self, msg: str):
        if self.verbose:
            print(msg, file=sys.stderr)

    def rollback(self):
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def _manifest(config: RunConfig, reporter: _Reporter):
    inputs = {}
    for key in _INPUTS:
        path = getattr(config, key)
        if path is not None:
            inputs[key] = {"path": str(path), "sha256":
                           hashlib.sha256(path.read_bytes()).hexdigest()}
    reporter.json("manifest.json", {
        "package": "entropic-bespoke",
        "version": __version__,
        "mode": config.mode,
        "inputs": inputs,
        "options": {key: getattr(config, key)
                    for key in (*_OPTIONS, *_SOLVER_OPTIONS)},
        "outputs": sorted(p.name for p in reporter.written),
    })


def _calibration_setup(config, params, portfolios, constraints):
    """(loss grids, factor grid, sorted constraint horizons) of a
    calibrating mode: each index's loss grid holds all of its names."""
    unit = (default_loss_unit(*portfolios.values())
            if config.loss_unit is None else config.loss_unit)
    with fmt._named(config.portfolios):  # a name's weight sets its units
        grids = {i: LossGrid(unit, sum(name_loss_units(n, unit)
                                       for n in p.names))
                 for i, p in portfolios.items()}
        for i, p in portfolios.items():  # before any array is built
            index_capacities(p, grids[i])
    grid = build_market_grid(*config.grid_size, params)
    return grids, grid, sorted({c.horizon for c in constraints})


def _calibrate_all_horizons(config, params, portfolios, constraints, reporter):
    grids, grid, horizons = _calibration_setup(config, params, portfolios,
                                               constraints)
    results = {}
    for t in horizons:
        priors = {
            i: build_conditional_prior(p, grid, grids[i], t, params,
                                       threads=config.threads)
            for i, p in sorted(portfolios.items())
        }
        subset = [c for c in constraints if c.horizon == t]
        results[t] = calibrate(grid, priors, subset,
                               tol=config.tol, max_iter=config.max_iter)
        reporter.log(f"horizon {t}: {results[t].iterations} Newton steps")
    residual_rows, factor_rows_ = [], []
    for t in horizons:
        residual_rows.extend(fmt.residual_rows(t, results[t]))
        factor_rows_.extend(fmt.factor_rows(t, results[t]))
    reporter.csv("calibration_residuals.csv", fmt.RESIDUAL_HEADER, residual_rows)
    reporter.csv("factor_distribution.csv", fmt.FACTOR_HEADER, factor_rows_)
    reporter.csv("posterior_laws.csv", fmt.LAWS_HEADER, chain.from_iterable(
        fmt.law_rows(t, results[t].laws) for t in horizons
    ))
    return results


def _bespoke_spec(config, portfolios) -> pricing.BespokeSpec:
    """The config's bespoke block, by default every index's relevant
    bucket, with its notional summed over the member buckets."""
    block = {"members": tuple((i, RELEVANT) for i in sorted(portfolios)),
             **config.bespoke}
    spec = pricing.BespokeSpec(notional=1.0, **block)  # checks the block
    notional = 0.0
    for i, bucket in spec.members:
        if i not in portfolios:
            raise ConfigurationError(f"bespoke references unknown index {i}")
        notional += sum(n.notional_weight
                        for n in portfolios[i].bucket_names(bucket))
    with fmt._named(config.portfolios):  # the members' weights sum to it
        return dataclasses.replace(spec, notional=notional)


def _mode_calibrate_static(config, reporter):
    params, portfolios, _ = fmt.load_portfolios(config.portfolios)
    constraints = fmt.load_constraints(config.constraints)
    _calibrate_all_horizons(config, params, portfolios, constraints, reporter)


def _mode_price_bespoke(config, reporter):
    params, portfolios, _ = fmt.load_portfolios(config.portfolios)
    spec = _bespoke_spec(config, portfolios)
    constraints = fmt.load_constraints(config.constraints)
    curve = fmt.load_discount_curve(config.discount_curve)
    tranches = fmt.load_tranches(config.tranches)
    results = _calibrate_all_horizons(config, params, portfolios,
                                      constraints, reporter)
    dists = pricing.bespoke_loss_dist(results, spec)
    prices = [pricing.price_tranche(dists, tr, curve) for tr in tranches]
    reporter.csv("tranche_prices.csv", fmt.PRICING_HEADER,
                 fmt.pricing_rows(prices))


def _mode_calibrate_dynamic(config, reporter):
    params, portfolios, _ = fmt.load_portfolios(config.portfolios)
    constraints = fmt.load_constraints(config.constraints)
    grids, grid, horizons = _calibration_setup(config, params, portfolios,
                                               constraints)
    model = DynamicModel(
        grid, params, portfolios, grids, TimeGrid(horizons=tuple(horizons)),
        persistence=config.persistence, coarsen=config.coarsen,
    )
    per_period = [
        [c for c in constraints if c.horizon == t] for t in horizons
    ]
    states, kernels = model.bootstrap_all(per_period, tol=config.tol,
                                          max_iter=config.max_iter)
    residual_rows = []
    for kernel in kernels:
        residual_rows.extend(fmt.residual_rows(kernel.horizon, kernel))
    reporter.csv("calibration_residuals.csv", fmt.RESIDUAL_HEADER, residual_rows)
    reporter.csv("dynamic_states.csv", fmt.STATE_HEADER, fmt.state_rows(states))
    reporter.csv("dynamic_factor_kernels.csv", fmt.KERNEL_HEADER,
                 fmt.kernel_rows(kernels))


def _standalone_pool(portfolios, members) -> IndexPortfolio:
    """Bucket union rescaled so the pool notional is 1, whose names must
    fit one lattice."""
    names = []
    for i, bucket in members:
        names.extend(portfolios[i].bucket_names(bucket))
    total = sum(n.notional_weight for n in names)
    if total <= 0.0:
        raise ConfigurationError("bespoke pool has no notional")
    rescaled = tuple(
        dataclasses.replace(n, index_id=0, notional_weight=n.notional_weight / total)
        for n in names
    )
    pool = IndexPortfolio(index_id=0, names=rescaled)
    basecorr.pool_units(pool)
    return pool


def _pool_expected_loss(pool: IndexPortfolio, horizon: float) -> float:
    return sum(n.lgd * n.default_prob(horizon) for n in pool.names)


def _mode_map_basecorr(config, reporter):
    params, portfolios, _ = fmt.load_portfolios(config.portfolios)
    del params  # the reference pricer is one-factor
    curves = fmt.load_basecorr_curves(config.base_correlation)
    tranches = fmt.load_tranches(config.tranches)
    curve = fmt.load_discount_curve(config.discount_curve) \
        if config.discount_curve else pricing.DiscountCurve.flat(0.0)
    members = _bespoke_spec(config, portfolios).members
    if config.reference_index not in portfolios:
        raise ConfigurationError(
            f"reference index {config.reference_index} not in the portfolio file"
        )
    with fmt._named(config.portfolios):  # the names' weights set the pools
        bespoke_pool = _standalone_pool(portfolios, members)
        index_pool = _standalone_pool(
            portfolios, [(config.reference_index, "relevant"),
                         (config.reference_index, "complement")])
    rule = basecorr.MappingRule(config.mapping_rule)
    horizons = sorted(curves)

    def curve_at(t: float) -> basecorr.BaseCorrCurve:
        past = [u for u in horizons if u <= t + 1e-9]
        return curves[past[-1] if past else horizons[0]]

    strikes = sorted({k for tr in tranches for k in (tr.k_low, tr.k_high) if k > 0})
    maturities = sorted({tr.maturity for tr in tranches})
    mapping_rows = []
    mapped: dict[tuple[float, float], tuple[float, float]] = {}
    for t in maturities:
        skew = curve_at(t)
        l_b = _pool_expected_loss(bespoke_pool, t)
        l_i = _pool_expected_loss(index_pool, t)
        if rule.variant == basecorr.PROBABILITY_MATCHING:
            [index_dist] = basecorr.onefactor_loss_dist(
                index_pool, [skew.beta(strikes[0])], t)
            try:
                index_strikes = basecorr.map_strike(
                    rule, strikes, l_b, l_i, index_loss_dist=index_dist,
                    bespoke_dist_provider=lambda betas: basecorr.onefactor_loss_dist(
                        bespoke_pool, betas, t),
                    curve=skew,
                )
            except MappingConvergenceError as exc:
                raise MappingConvergenceError(
                    f"maturity {t:g}: {exc.args[0]}", exc.residual,
                    exc.iterations) from None
        else:
            index_strikes = basecorr.map_strike(rule, strikes, l_b, l_i)
        for k_b, k_i in zip(strikes, index_strikes):
            beta = skew.beta(k_i)
            mapped[(t, k_b)] = (k_i, beta)
            mapping_rows.append([
                rule.variant, fmt._fmt(k_b), fmt._fmt(t), fmt._fmt(l_b),
                fmt._fmt(l_i), fmt._fmt(k_i), fmt._fmt(beta),
            ])
    reporter.csv("mapped_strikes.csv", fmt.MAPPING_HEADER, mapping_rows)

    # reference prices with the mapped correlations: adjacent tranches share
    # strikes, so each (maturity, strike) base EL a horizon needs is priced
    # once, and all of a horizon's come from one batch of one-factor laws
    def price_horizons(tr) -> list[float]:
        return [t for t in sorted({*horizons, tr.maturity})
                if t <= tr.maturity + 1e-9]

    def legs(tr) -> list[tuple[float, float]]:
        return [(k, sign) for k, sign in ((tr.k_high, 1.0), (tr.k_low, -1.0))
                if k > 0.0]

    wanted: dict[float, dict[tuple[float, float], None]] = {}
    for tr in tranches:
        for t in price_horizons(tr):
            for k, _ in legs(tr):
                wanted.setdefault(t, {})[(tr.maturity, k)] = None
    base_els = {}
    for t, pairs in wanted.items():
        els = basecorr.base_tranche_el(
            bespoke_pool, [k for _, k in pairs], [mapped[p][1] for p in pairs], t)
        base_els.update(((t, *p), el) for p, el in zip(pairs, els))

    price_rows = []
    for tr in tranches:
        els = {  # in time order
            t: sum(sign * k * base_els[(t, tr.maturity, k)] for k, sign in legs(tr))
            / (tr.k_high - tr.k_low)
            for t in price_horizons(tr)
        }
        price_rows.append(pricing.price_el_curve(
            list(els), list(els.values()), tr, curve))
    reporter.csv("basecorr_prices.csv", fmt.PRICING_HEADER,
                 fmt.pricing_rows(price_rows))


# mode -> (runner, the inputs it needs), in the order argparse lists them
_MODES = {
    "calibrate-static": (_mode_calibrate_static, ("constraints",)),
    "calibrate-dynamic": (_mode_calibrate_dynamic, ("constraints",)),
    "price-bespoke": (_mode_price_bespoke,
                      ("constraints", "discount_curve", "tranches")),
    "map-basecorr": (_mode_map_basecorr, ("base_correlation", "tranches")),
}
MODES = tuple(_MODES)


def run(config: RunConfig) -> int:
    """Execute one mode; returns the process exit status."""
    runner, needs = _MODES[config.mode]
    for key in needs:
        if getattr(config, key) is None:
            raise ConfigurationError(f"mode {config.mode} needs a '{key}' input")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    reporter = _Reporter(config.output_dir, config.verbose)
    try:
        runner(config, reporter)
        _manifest(config, reporter)
    except BaseException:
        reporter.rollback()
        raise
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="entropic-bespoke",
        description="Calibrate credit-index loss measures and price bespoke "
                    "CDO tranches",
    )
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the mode in the config")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (fallback: ENTROPIC_BESPOKE_THREADS)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # a library warning is one line
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            config = RunConfig.from_file(
                args.config, mode=args.mode, out=args.out,
                threads=args.threads, verbose=args.verbose,
            )
            return run(config)
    except EntropicBespokeError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
