"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them)."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import entropic_bespoke as eb
from entropic_bespoke.calibrate import (
    FactorOnlyCalibrator,
    MceCalibrator,
    PricingConstraint,
    prior_expected_losses,
)
from entropic_bespoke.dynamic import DynamicModel, TimeGrid
from entropic_bespoke.loss import (
    LossGrid,
    build_conditional_prior,
    default_loss_unit,
)
from entropic_bespoke.pricing import (
    BespokeSpec,
    DiscountCurve,
    TrancheSpec,
    adjust_bespoke_names,
    assemble_bespoke,
    price_tranche,
)
from entropic_bespoke.prior import (
    FactorParams,
    IndexPortfolio,
    build_market_grid,
    derive_two_factor_loadings,
    pairwise_correlation,
    _conditional_prob_rows,
)

from conftest import (
    assert_cells_close,
    assert_lattice_matches_reference,
    lattice_payoff,
    make_name,
    state_of_rows,
    tilted_blocks,
    toy_portfolio,
)


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[ACCEPTANCE] {status} {name}: {detail}")
    assert condition, f"{name}: {detail}"
    return condition


def toy_problem(seed, grid_n=3, n_rel=3, n_comp=3, sigma=1e-3, shift=1.15,
                horizon=5.0, rho=0.35, alpha=0.25):
    params = FactorParams(rho=rho, alpha=alpha)
    grid = build_market_grid(grid_n, grid_n, params)
    ports = {i: toy_portfolio(i, n_rel, n_comp, seed=seed + 7 * i)
             for i in (1, 2)}
    unit = min(default_loss_unit(p) for p in ports.values())
    priors = {
        i: build_conditional_prior(
            p, grid, LossGrid(unit=unit, max_units=60), horizon, params
        )
        for i, p in ports.items()
    }
    shells = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.2,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=1, kind="subportfolio_total",
                          bucket="relevant", target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="tranche", k_low=0.0, k_high=0.2,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="subportfolio_total",
                          bucket="complement", target_el=0.0, sigma=sigma),
    ]
    els = prior_expected_losses(grid, priors, shells)
    cons = [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low, k_high=c.k_high,
            bucket=c.bucket, target_el=float(el * shift), sigma=sigma,
        )
        for c, el in zip(shells, els)
    ]
    return params, grid, ports, priors, unit, cons


def test_oracle_equivalence_brute_force_mce():
    """Full posterior matches a direct primal minimization over all lattice
    probabilities within 1e-6 total variation in under 10 seconds."""
    cp = pytest.importorskip("cvxpy")
    start = time.perf_counter()
    params, grid, ports, priors, unit, cons = toy_problem(
        seed=1, grid_n=2, sigma=1e-3, shift=1.15
    )
    res = eb.calibrate(grid, priors, cons)

    m = grid.n_nodes
    s1a, s1b = priors[1].shape
    s2a, s2b = priors[2].shape
    q = np.einsum(
        "m,mab,mcd->mabcd", grid.flat_weights, priors[1].pmfs, priors[2].pmfs
    ).reshape(-1)
    rows = []
    for c in cons:
        pay = lattice_payoff(c, priors[c.index_id])
        if c.index_id == 1:
            full = np.broadcast_to(
                pay[None, :, :, None, None], (m, s1a, s1b, s2a, s2b)
            )
        else:
            full = np.broadcast_to(
                pay[None, None, None, :, :], (m, s1a, s1b, s2a, s2b)
            )
        rows.append(full.reshape(-1))
    payoff_mat = np.array(rows)
    targets = np.array([c.target_el for c in cons])
    sigmas = np.array([c.sigma for c in cons])
    model = np.einsum(
        "m,mab,mcd->mabcd", res.posterior_weights,
        res.laws[1].pmfs, res.laws[2].pmfs,
    ).reshape(-1)

    mask = q > 0
    p = cp.Variable(int(mask.sum()), nonneg=True)
    resid = payoff_mat[:, mask] @ p - targets
    objective = cp.Minimize(
        cp.sum(cp.rel_entr(p, q[mask]))
        + 0.5 * cp.sum_squares(cp.multiply(1.0 / sigmas, resid))
    )
    problem = cp.Problem(objective, [cp.sum(p) == 1])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problem.solve(solver="CLARABEL", tol_gap_abs=1e-14, tol_gap_rel=1e-14,
                      tol_feas=1e-14, tol_ktratio=1e-9, max_iter=200)
    assert problem.status in ("optimal", "optimal_inaccurate")
    tv = 0.5 * float(np.abs(p.value - model[mask]).sum())
    elapsed = time.perf_counter() - start
    check(
        "oracle-equivalence",
        tv < 1e-6 and elapsed < 10.0,
        f"TV={tv:.3e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )


def test_oracle_equivalence_factor_only_primal():
    """Factor-only posterior weights match a direct primal minimization of
    KL(h || g) + 0.5 * sum ((h . mu - EL) / sigma)^2 over softmax-
    parametrized node weights (L-BFGS-B) within 1e-8 total variation."""
    from scipy.optimize import minimize

    _, grid, _, priors, _, cons = toy_problem(
        seed=1, grid_n=2, sigma=1e-3, shift=1.15
    )
    res = eb.factor_only_calibrate(grid, priors, cons)
    g = grid.flat_weights
    mu = np.array([
        np.einsum("mxy,xy->m", priors[c.index_id].pmfs,
                  lattice_payoff(c, priors[c.index_id]))
        for c in cons]).T
    targets = np.array([c.target_el for c in cons])
    sigmas = np.array([c.sigma for c in cons])

    def primal(z):
        h = np.exp(z - z.max())
        h /= h.sum()
        r = (h @ mu - targets) / sigmas
        d_h = np.log(h / g) + 1.0 + mu @ (r / sigmas)
        return float(h @ np.log(h / g)) + 0.5 * float(r @ r), \
            h * (d_h - h @ d_h)

    out = minimize(primal, np.log(g), jac=True, method="L-BFGS-B",
                   options=dict(ftol=0.0, gtol=1e-14, maxiter=1000))
    h = np.exp(out.x - out.x.max())
    h /= h.sum()
    tv = 0.5 * float(np.abs(h - res.posterior_weights).sum())
    check(
        "oracle-equivalence-factor-only",
        tv <= 1e-8,
        f"TV={tv:.3e} (tol 1e-8) after {out.nit} L-BFGS-B iterations",
    )


def test_gradient_and_hessian_finite_differences():
    """Dual gradient/Hessian vs central differences: rel err < 1e-6 / 1e-5
    on 20 random toy instances in under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_g, worst_h = 0.0, 0.0
    for trial in range(20):
        _, grid, _, priors, _, cons = toy_problem(
            seed=100 + trial, grid_n=2,
            sigma=float(rng.uniform(5e-4, 5e-3)),
            shift=float(rng.uniform(0.9, 1.25)),
        )
        cal = MceCalibrator(grid, priors, cons)
        lam = rng.normal(scale=1.5, size=len(cons))
        _, g = cal.dual_objective_and_gradient(lam)
        hess = cal.dual_hessian(lam)
        fd_g = np.zeros_like(g)
        fd_h = np.zeros_like(hess)
        for k in range(len(cons)):
            e = np.zeros(len(cons))
            e[k] = 1e-6
            vp, gp = cal.dual_objective_and_gradient(lam + e)
            vm, gm = cal.dual_objective_and_gradient(lam - e)
            fd_g[k] = (vp - vm) / 2e-6
            fd_h[:, k] = (gp - gm) / 2e-6
        worst_g = max(worst_g,
                      np.abs(g - fd_g).max() / max(np.abs(g).max(), 1e-12))
        worst_h = max(worst_h, np.abs(hess - fd_h).max() / np.abs(hess).max())
    elapsed = time.perf_counter() - start
    check(
        "gradient-hessian-vs-fd",
        worst_g < 1e-6 and worst_h < 1e-5 and elapsed < 30.0,
        f"grad rel err {worst_g:.2e} (tol 1e-6), hess {worst_h:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (budget 30s)",
    )


def test_exact_fit_and_infinitely_soft_limits():
    """sigma=0 hits a feasible target within 1e-8; huge sigma leaves the
    prior untouched within 1e-10."""
    _, grid, _, priors, _, _ = toy_problem(seed=2)
    shell = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.2, target_el=0.0, sigma=0.0)
    prior_el = prior_expected_losses(grid, {1: priors[1]}, [shell])[0]
    hard = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                             k_high=0.2, target_el=float(prior_el * 1.1),
                             sigma=0.0)
    res_hard = eb.calibrate(grid, {1: priors[1]}, [hard])
    exact_gap = abs(res_hard.model_els[0] - hard.target_el)

    soft = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                             k_high=0.2, target_el=float(prior_el * 1.5),
                             sigma=1e8)
    res_soft = eb.calibrate(grid, {1: priors[1]}, [soft])
    prior_gap = max(
        np.abs(res_soft.posterior_weights - grid.flat_weights).max(),
        np.abs(res_soft.laws[1].pmfs - priors[1].pmfs).max(),
    )
    check(
        "exact-fit-and-soft-limits",
        exact_gap < 1e-8 and prior_gap < 1e-10,
        f"sigma=0 EL gap {exact_gap:.2e} (tol 1e-8), "
        f"sigma=1e8 posterior-prior gap {prior_gap:.2e} (tol 1e-10)",
    )


def test_no_arbitrage_in_strike_on_random_calibrations():
    """K -> E[min(X, K)] non-decreasing and concave at every lattice point
    for 50 randomized calibrations."""
    rng = np.random.default_rng(123)
    failures = 0
    for trial in range(50):
        _, grid, _, priors, unit, cons = toy_problem(
            seed=300 + trial, grid_n=2,
            n_rel=int(rng.integers(2, 4)), n_comp=int(rng.integers(2, 4)),
            sigma=float(rng.uniform(5e-4, 3e-3)),
            shift=float(rng.uniform(0.8, 1.3)),
        )
        res = eb.calibrate(grid, priors, cons)
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=1.0)
        dists = [res.index_loss_dist(1), res.index_loss_dist(2),
                 assemble_bespoke(res, spec)]
        for dist in dists:
            curve = np.array(
                [dist.pmf @ np.minimum(dist.levels, k) for k in dist.levels]
            )
            diffs = np.diff(curve)
            if not (np.all(diffs >= -1e-12)
                    and np.all(np.diff(diffs) <= 1e-12)):
                failures += 1
    check(
        "no-arbitrage-in-strike",
        failures == 0,
        f"{failures} violations over 50 randomized calibrations "
        "(tol 1e-12 on increments and curvature)",
    )


def _dynamic_toy(persistence=0.9, shift=1.15):
    params = FactorParams(rho=0.3, alpha=0.2)
    grid = build_market_grid(2, 2, params)
    ports = {}
    for i in (1, 2):
        names = (
            make_name(f"r{i}", i, "relevant",
                      [(t, 0.05 * t + 0.01 * i) for t in (1.0, 2.0, 3.0)],
                      loading=0.4, weight=0.5),
            make_name(f"c{i}", i, "complement",
                      [(t, 0.04 * t + 0.01 * i) for t in (1.0, 2.0, 3.0)],
                      loading=0.4, weight=0.5),
        )
        ports[i] = IndexPortfolio(index_id=i, names=names)
    grids = {i: LossGrid(unit=0.3, max_units=2) for i in (1, 2)}
    model = DynamicModel(grid, params, ports, grids,
                         TimeGrid(horizons=(1.0, 2.0, 3.0)),
                         persistence=persistence)
    shells = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=1e-4),
        PricingConstraint(index_id=1, kind="subportfolio_total",
                          bucket="relevant", target_el=0.0, sigma=1e-4),
        PricingConstraint(index_id=2, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=1e-4),
        PricingConstraint(index_id=2, kind="subportfolio_total",
                          bucket="complement", target_el=0.0, sigma=1e-4),
    ]
    state = model.initial_state()
    per_period = []
    for n in range(3):
        els = model.prior_period_els(n, state, shells)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, bucket=c.bucket,
                target_el=float(el * shift), sigma=1e-4,
            )
            for c, el in zip(shells, els)
        ]
        per_period.append(cons)
        kernel = model.calibrate_period(n, state, cons)
        state = model.propagate_marginal(kernel)
    return model, per_period


def test_no_arbitrage_in_time_dynamic_bootstrap():
    """3-period bootstrap: E[(X_Tn - K)^+] non-decreasing in n for every
    lattice strike; posterior kernels put zero mass on decreasing paths."""
    model, per_period = _dynamic_toy()
    states, kernels = model.bootstrap_all(per_period)
    unit = model.loss_grids[1].unit
    worst_drop = 0.0
    for cols in [(1, 2), (3, 4), (1, 3), (1, 2, 3, 4)]:
        for k_units in range(5):
            k = k_units * unit
            els = [
                s.expected_tranche_loss(cols, unit, k, 1e9) for s in states
            ]
            for a, b in zip(els, els[1:]):
                worst_drop = max(worst_drop, a - b)
    decreasing_mass = 0.0
    for kernel in kernels:
        for i in kernel.loss_tilted:
            for (x1, x2), t in tilted_blocks(kernel, i).items():
                decreasing_mass += t[:, :x1, :].sum() + t[:, :, :x2].sum()
    check(
        "no-arbitrage-in-time",
        worst_drop <= 1e-12 and decreasing_mass == 0.0,
        f"worst EL drop {worst_drop:.2e} (tol 1e-12), "
        f"mass on decreasing paths {decreasing_mass}",
    )


def test_kl_ordering_full_vs_factor_only():
    """Full calibration's KL is <= the factor-only KL on 20 shared-feasible
    instances, strictly when a nonlinear constraint binds."""
    rng = np.random.default_rng(77)
    violations = 0
    strict_checked = 0
    for trial in range(20):
        _, grid, _, priors, _, base = toy_problem(
            seed=500 + trial, grid_n=2, sigma=0.0, shift=1.0
        )
        cal = FactorOnlyCalibrator(grid, priors, base)
        lam_probe = rng.normal(scale=0.6, size=len(base))
        excess = cal.cond_mean - cal.targets[None, :]
        w = grid.flat_weights * np.exp(-(excess @ lam_probe))
        w /= w.sum()
        targets = w @ cal.cond_mean
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, bucket=c.bucket, target_el=float(t),
                sigma=0.0,
            )
            for c, t in zip(base, targets)
        ]
        full = eb.calibrate(grid, priors, cons)
        restricted = eb.factor_only_calibrate(grid, priors, cons)
        kl_full = full.kl_to_prior()
        kl_restricted = restricted.kl_to_prior()
        if kl_full > kl_restricted + 1e-12:
            violations += 1
        if abs(full.lambdas[0]) > 1e-5:  # tranche constraint binds
            strict_checked += 1
            if not kl_full < kl_restricted:
                violations += 1
    check(
        "kl-ordering",
        violations == 0 and strict_checked > 0,
        f"0 violations required, got {violations}; strict comparisons "
        f"checked: {strict_checked}",
    )


def test_posterior_dependence_conditional_mutual_information():
    """Conditional MI of buckets is 0 under the prior and > 0 after any
    equity-tranche tilt with a nonzero multiplier."""
    _, grid, _, priors, _, _ = toy_problem(seed=3)
    shells = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.1,
                          target_el=0.0, sigma=0.0)
    ]
    prior_el = prior_expected_losses(grid, {1: priors[1]}, shells)[0]
    prior_like = eb.factor_only_calibrate(
        grid, {1: priors[1]},
        [PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.1,
                           target_el=float(prior_el), sigma=1e-3)],
    )
    mi_prior = eb.conditional_mutual_information(prior_like, 1)
    tilted = eb.calibrate(
        grid, {1: priors[1]},
        [PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.1,
                           target_el=float(prior_el * 0.85), sigma=0.0)],
    )
    mi_post = eb.conditional_mutual_information(tilted, 1)
    check(
        "posterior-dependence-mi",
        abs(mi_prior) < 1e-13 and abs(tilted.lambdas[0]) > 1e-4
        and mi_post > 1e-10,
        f"prior MI {mi_prior:.2e} (~0), tilted MI {mi_post:.3e} > 0 "
        f"with lambda {tilted.lambdas[0]:.3f}",
    )


def test_bespoke_name_adjustment():
    """Adjusted mixed EL hits the target within 1e-10 and the tilt matches
    a high-precision 1D bracketing (golden-section) oracle."""
    mpmath = pytest.importorskip("mpmath")
    _, grid, _, priors, unit, cons = toy_problem(seed=4)
    res = eb.calibrate(grid, priors, cons)
    h = res.posterior_weights
    marg = res.bucket_marginals(1, "relevant")
    levels = unit * np.arange(marg.shape[1])
    current = float(h @ (marg @ levels))
    target = current * 1.2
    adjusted, lam = adjust_bespoke_names(marg, h, unit, target)
    el_gap = abs(float(h @ (adjusted @ levels)) - target)

    with mpmath.workdps(50):
        def dual(lam_):
            total = mpmath.mpf(0)
            for m in range(marg.shape[0]):
                z = mpmath.mpf(0)
                for j in range(marg.shape[1]):
                    if marg[m, j] > 0.0:
                        z += mpmath.mpf(marg[m, j]) * mpmath.exp(
                            -lam_ * mpmath.mpf(levels[j])
                        )
                total += mpmath.mpf(h[m]) * mpmath.log(z)
            return total + lam_ * mpmath.mpf(target)

        a, b = mpmath.mpf(lam - 2.0), mpmath.mpf(lam + 2.0)
        invphi = (mpmath.sqrt(5) - 1) / 2
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = dual(c), dual(d)
        for _ in range(150):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = dual(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = dual(d)
        lam_oracle = float((a + b) / 2)
        # minimality certificate for the KL among exponential tilts
        minimal = dual(lam_oracle) <= dual(lam_oracle - 1e-3) and (
            dual(lam_oracle) <= dual(lam_oracle + 1e-3)
        )
    check(
        "bespoke-name-adjustment",
        el_gap < 1e-10 and abs(lam - lam_oracle) < 1e-8 and minimal,
        f"EL gap {el_gap:.2e} (tol 1e-10), lambda vs golden-section "
        f"{abs(lam - lam_oracle):.2e} (tol 1e-8)",
    )


def test_consistency_identities():
    """Same-index pairwise correlation equals b_i*b_j to 1e-12 for any
    (rho, alpha); 10-point quadrature of conditional default probabilities
    recovers the input curve to 1e-3."""
    rng = np.random.default_rng(11)
    worst_corr = 0.0
    for _ in range(50):
        params = FactorParams(rho=float(rng.uniform(-0.9, 0.9)),
                              alpha=float(rng.uniform(0.0, 1.5)))
        b_i, b_j = rng.uniform(0.0, 0.9, size=2)
        li = derive_two_factor_loadings(float(b_i), params, home_index=1)
        lj = derive_two_factor_loadings(float(b_j), params, home_index=1)
        worst_corr = max(
            worst_corr,
            abs(pairwise_correlation(li, lj, params) - b_i * b_j),
        )
    worst_quad = 0.0
    params = FactorParams(rho=0.45, alpha=0.3)
    grid = build_market_grid(10, 10, params)
    for _ in range(30):
        b = float(rng.uniform(0.0, 0.8))
        p = float(rng.uniform(0.001, 0.5))
        l = derive_two_factor_loadings(b, params,
                                       home_index=int(rng.integers(1, 3)))
        probs = _conditional_prob_rows([p], l, grid.node_coords)[0]
        worst_quad = max(worst_quad, abs(grid.flat_weights @ probs - p))
    check(
        "consistency-identities",
        worst_corr < 1e-12 and worst_quad < 1e-3,
        f"corr gap {worst_corr:.2e} (tol 1e-12), quadrature gap "
        f"{worst_quad:.2e} (tol 1e-3)",
    )


def _big_index(index_id, n_names=125, n_relevant=50, horizons=(1, 2, 3, 4, 5),
               base_hazard=0.004, hazard_step=0.0004, loading=0.5):
    """125-name index with a hazard ladder; highest-spread names first, in
    the relevant bucket."""
    names = []
    for j in range(n_names):
        hazard = base_hazard + hazard_step * (n_names - 1 - j)
        curve = tuple(
            (float(t), 1.0 - math.exp(-hazard * t)) for t in horizons
        )
        names.append(
            make_name(
                f"i{index_id}_{j:03d}", index_id,
                "relevant" if j < n_relevant else "complement",
                curve, loading=loading, recovery=0.4, weight=1.0 / n_names,
            )
        )
    return IndexPortfolio(index_id=index_id, names=tuple(names))


def _index_constraints(index_id, strikes, horizon, targets_by_kind):
    cons = []
    for k_low, k_high in zip(strikes, strikes[1:]):
        cons.append(PricingConstraint(
            index_id=index_id, kind="tranche", k_low=k_low, k_high=k_high,
            target_el=targets_by_kind[("tranche", k_low, k_high)],
            sigma=1e-4, horizon=horizon,
        ))
    for bucket in ("relevant", "complement"):
        cons.append(PricingConstraint(
            index_id=index_id, kind="subportfolio_total", bucket=bucket,
            target_el=targets_by_kind[("total", bucket)], sigma=1e-4,
            horizon=horizon,
        ))
    return cons


def _market_targets(ports, horizons, strikes):
    """Synthetic market: tranche ELs generated by the two-factor prior at
    (rho=0.6, alpha=0.15), away from both calibration cases."""
    market_params = FactorParams(rho=0.6, alpha=0.15)
    grid = build_market_grid(10, 10, market_params)
    unit = default_loss_unit(*ports.values())
    targets = {}
    for t in horizons:
        for i, port in ports.items():
            prior = build_conditional_prior(
                port, grid, LossGrid(unit=unit, max_units=130), t,
                market_params,
            )
            shells = []
            for k_low, k_high in zip(strikes, strikes[1:]):
                shells.append(PricingConstraint(
                    index_id=i, kind="tranche", k_low=k_low, k_high=k_high,
                    target_el=0.0, sigma=1e-4,
                ))
            for bucket in ("relevant", "complement"):
                shells.append(PricingConstraint(
                    index_id=i, kind="subportfolio_total", bucket=bucket,
                    target_el=0.0, sigma=1e-4,
                ))
            els = prior_expected_losses(grid, {i: prior}, shells)
            by_kind = {}
            for c, el in zip(shells, els):
                if c.kind == "tranche":
                    by_kind[("tranche", c.k_low, c.k_high)] = float(el)
                else:
                    by_kind[("total", c.bucket)] = float(el)
            targets[(t, i)] = by_kind
    return targets, unit


def _calibrate_case(params, ports, targets, unit, horizons, strikes):
    grid = build_market_grid(10, 10, params)
    results = {}
    for t in horizons:
        priors = {
            i: build_conditional_prior(
                p, grid, LossGrid(unit=unit, max_units=130), t, params
            )
            for i, p in ports.items()
        }
        cons = []
        for i in sorted(ports):
            cons.extend(
                _index_constraints(i, strikes, t, targets[(t, i)])
            )
        results[t] = eb.calibrate(grid, priors, cons)
    return results


def test_correlation_parameter_effect_on_bespoke_spreads():
    """Moving the prior from (rho=0.5, alpha=0.3) to (rho=0.75, alpha=0)
    lowers cross-index correlation, raising the 0-3% bespoke par spread and
    lowering the 15-30% one."""
    horizons = (1.0, 2.0, 3.0, 4.0, 5.0)
    strikes = (0.0, 0.03, 0.07, 0.10, 0.15, 0.30)
    ports = {i: _big_index(i) for i in (1, 2)}
    case1 = FactorParams(rho=0.5, alpha=0.3)
    case2 = FactorParams(rho=0.75, alpha=0.0)
    # the move must lower cross-index correlations
    l1a = derive_two_factor_loadings(0.5, case1, 1)
    l1b = derive_two_factor_loadings(0.5, case1, 2)
    l2a = derive_two_factor_loadings(0.5, case2, 1)
    l2b = derive_two_factor_loadings(0.5, case2, 2)
    cross1 = pairwise_correlation(l1a, l1b, case1)
    cross2 = pairwise_correlation(l2a, l2b, case2)
    assert cross2 < cross1

    targets, unit = _market_targets(ports, horizons, strikes)
    spreads = {}
    for label, params in (("case1", case1), ("case2", case2)):
        results = _calibrate_case(params, ports, targets, unit, horizons,
                                  strikes)
        notional = sum(
            n.notional_weight for i in (1, 2)
            for n in ports[i].bucket_names("relevant")
        )
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=notional)
        dists = eb.bespoke_loss_dist(results, spec)
        curve = DiscountCurve.flat(0.02)
        spreads[label] = {
            k: price_tranche(
                dists, TrancheSpec.with_schedule(k[0], k[1], 5.0, 4), curve
            ).par_spread_bp
            for k in ((0.0, 0.03), (0.15, 0.30))
        }
    junior_up = spreads["case2"][(0.0, 0.03)] > spreads["case1"][(0.0, 0.03)]
    senior_down = (
        spreads["case2"][(0.15, 0.30)] < spreads["case1"][(0.15, 0.30)]
    )
    check(
        "correlation-effect-on-bespoke",
        junior_up and senior_down,
        f"0-3%: {spreads['case1'][(0.0, 0.03)]:.1f} -> "
        f"{spreads['case2'][(0.0, 0.03)]:.1f} bp (up), 15-30%: "
        f"{spreads['case1'][(0.15, 0.30)]:.1f} -> "
        f"{spreads['case2'][(0.15, 0.30)]:.1f} bp (down); cross-corr "
        f"{cross1:.4f} -> {cross2:.4f}",
    )


def test_performance_two_full_indices():
    """Joint static calibration of two 125-name indices on a 10x10 grid
    with 7 constraints each finishes in under 60 s single-threaded."""
    horizons = (1.0, 2.0, 3.0, 4.0, 5.0)
    strikes = (0.0, 0.03, 0.07, 0.10, 0.15, 0.30)
    ports = {i: _big_index(i) for i in (1, 2)}
    targets, unit = _market_targets(ports, horizons, strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    grid = build_market_grid(10, 10, params)
    start = time.perf_counter()
    priors = {
        i: build_conditional_prior(
            p, grid, LossGrid(unit=unit, max_units=130), 5.0, params
        )
        for i, p in ports.items()
    }
    cons = []
    for i in (1, 2):
        cons.extend(_index_constraints(i, strikes, 5.0, targets[(5.0, i)]))
    assert len(cons) == 14
    res = eb.calibrate(grid, priors, cons)
    elapsed = time.perf_counter() - start
    check(
        "performance-125-names",
        elapsed < 60.0,
        f"{elapsed:.1f}s for priors + joint calibration "
        f"({res.iterations} Newton steps; budget 60s)",
    )


def test_memory_static_calibration_30x30():
    """Priors, joint calibration and the bespoke law of two 125-name
    indices on a 30x30 grid at one horizon peak under 24 MB of traced
    allocations, below the 28 MB of one (900, 51, 76) joint lattice: no
    array with S1 * S2 cells per node is allocated."""
    strikes = (0.0, 0.03, 0.07, 0.10, 0.15, 0.30)
    ports = {i: _big_index(i) for i in (1, 2)}
    targets, unit = _market_targets(ports, (5.0,), strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    grid = build_market_grid(30, 30, params)
    cons = [c for i in (1, 2)
            for c in _index_constraints(i, strikes, 5.0, targets[(5.0, i)])]
    notional = sum(n.notional_weight for i in (1, 2)
                   for n in ports[i].bucket_names("relevant"))
    spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                       notional=notional)
    tracemalloc.start()
    try:
        priors = {
            i: build_conditional_prior(
                p, grid, LossGrid(unit=unit, max_units=130), 5.0, params
            )
            for i, p in ports.items()
        }
        res = eb.calibrate(grid, priors, cons)
        dist = eb.bespoke_loss_dist({5.0: res}, spec)[5.0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    s1, s2 = priors[1].shape
    joint_mb = 8 * grid.n_nodes * s1 * s2 / 2**20
    check(
        "memory-static-30x30",
        (s1, s2) == (51, 76) and peak / 2**20 < 24.0 < joint_mb
        and abs(dist.pmf.sum() - 1.0) < 1e-12,
        f"traced peak {peak / 2**20:.1f} MB (budget 24 MB; one joint "
        f"lattice {joint_mb:.1f} MB); {res.iterations} Newton steps",
    )


def test_memory_prior_build_30x30():
    """One 30x30 prior build of a 125-name index works in at most three
    (M, cap + 1) arrays of its larger bucket on top of the bucket pmfs it
    returns: that bucket's default probabilities, the node-minor work array
    and the one scratch buffer that becomes the result.  A second scratch
    buffer, or per-name full-width temporaries, exceed it."""
    params = FactorParams(rho=0.5, alpha=0.3)
    grid = build_market_grid(30, 30, params)
    port = _big_index(1)
    loss_grid = LossGrid(unit=default_loss_unit(port), max_units=130)
    tracemalloc.start()
    try:
        prior = build_conditional_prior(port, grid, loss_grid, 5.0, params)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array = 8 * grid.n_nodes * max(prior.shape)
    check(
        "memory-prior-build-30x30",
        prior.shape == (51, 76) and peak - returned <= 3 * array,
        f"traced peak {peak / array:.2f} arrays of (900, 76), of which "
        f"{returned / array:.2f} returned (budget 3 above the returned)",
    )


def test_performance_dynamic_bootstrap_two_indices():
    """Dynamic bootstrap of two 12-name indices (6 relevant, 6 complement)
    on a 5x5 grid over 3 annual periods (60,025 states per period)
    finishes in under 30 s single-threaded, keeps mass 1 and gives
    non-decreasing bucket ELs."""
    horizons = (1.0, 2.0, 3.0)
    strikes = (0.0, 0.15)
    ports = {i: _big_index(i, n_names=12, n_relevant=6, horizons=horizons)
             for i in (1, 2)}
    targets, unit = _market_targets(ports, horizons, strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    start = time.perf_counter()
    model = DynamicModel(
        build_market_grid(5, 5, params), params, ports,
        {i: LossGrid(unit=unit, max_units=12) for i in (1, 2)},
        TimeGrid(horizons=horizons), persistence=0.9,
    )
    per_period = [
        [c for i in (1, 2)
         for c in _index_constraints(i, strikes, t, targets[(t, i)])]
        for t in horizons
    ]
    states, kernels = model.bootstrap_all(per_period)
    elapsed = time.perf_counter() - start
    worst_mass = max(abs(s.total_mass - 1.0) for s in states)
    worst_drop = 0.0
    for col in (1, 2, 3, 4):
        els = [s.expected_tranche_loss((col,), unit, 0.0, 1e9) for s in states]
        worst_drop = max([worst_drop, *(a - b for a, b in zip(els, els[1:]))])
    check(
        "performance-dynamic-12-names",
        elapsed < 30.0 and worst_mass < 1e-9 and worst_drop <= 1e-12,
        f"{elapsed:.1f}s for 3 periods of {len(states[-1].probs)} states "
        f"(budget 30s); |mass - 1| {worst_mass:.1e}, worst bucket EL drop "
        f"{worst_drop:.1e}; Newton steps {[k.iterations for k in kernels]}",
    )


def test_performance_dynamic_bootstrap_coarsened_24_names():
    """Dynamic bootstrap of two 24-name indices (12 relevant, 12
    complement) on a 10x10 grid over 2 annual periods, the second on a
    lattice coarsened by 3 (2.85 M period-0 states), finishes in under
    12 s single-threaded, keeps mass 1 and gives bucket ELs that do not
    decrease across the coarsening."""
    horizons = (1.0, 2.0)
    strikes = (0.0, 0.15)
    ports = {i: _big_index(i, n_names=24, n_relevant=12, horizons=horizons)
             for i in (1, 2)}
    targets, unit = _market_targets(ports, horizons, strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    start = time.perf_counter()
    model = DynamicModel(
        build_market_grid(10, 10, params), params, ports,
        {i: LossGrid(unit=unit, max_units=24) for i in (1, 2)},
        TimeGrid(horizons=horizons), persistence=0.9, coarsen=3,
    )
    per_period = [
        [c for i in (1, 2)
         for c in _index_constraints(i, strikes, t, targets[(t, i)])]
        for t in horizons
    ]
    states, kernels = model.bootstrap_all(per_period)
    elapsed = time.perf_counter() - start
    worst_mass = max(abs(s.total_mass - 1.0) for s in states)
    worst_drop = 0.0
    for col, i in zip((1, 2, 3, 4), (1, 1, 2, 2)):
        els = [s.expected_tranche_loss(
            (col,), model.period_loss_grid(n, i).unit, 0.0, 1e9)
            for n, s in enumerate(states)]
        worst_drop = max([worst_drop, *(a - b for a, b in zip(els, els[1:]))])
    check(
        "performance-dynamic-24-names-coarsened",
        elapsed < 12.0 and worst_mass < 1e-9 and worst_drop <= 1e-12,
        f"{elapsed:.1f}s for 2 periods of {len(states[0].probs)} and "
        f"{len(states[1].probs)} states (budget 12s); |mass - 1| "
        f"{worst_mass:.1e}, worst bucket EL drop {worst_drop:.1e}; Newton "
        f"steps {[k.iterations for k in kernels]}",
    )


def test_dynamic_bootstrap_keeps_states_factored():
    """The coarsened 24-name bootstrap above keeps each state as the
    factors of its kernel, so `bootstrap_all` never forms the (m, x11, x12,
    x21, x22) support of the 2,854,752 period-0 states, 114 MB of int64:
    its traced peak was 300.0 MB with those rows and is 112.9 MB without
    (tracemalloc, numpy 2.4), and must stay below the first less the
    support.  Formed afterwards, the states are those of the row path:
    period 0 is U[m] T1[m, x1] T2[m, x2] to 1e-14 relative, period 1's
    lattice is the row path's (same nodes and contexts, masses to 1e-14
    relative), and period 1 propagates the kernel of that lattice.  Solved
    from the row path's lattice instead, period 1's multipliers (of order
    1e5) agree to 1e-12 and its states, on the same rows, to 1e-9."""
    horizons = (1.0, 2.0)
    strikes = (0.0, 0.15)
    ports = {i: _big_index(i, n_names=24, n_relevant=12, horizons=horizons)
             for i in (1, 2)}
    targets, unit = _market_targets(ports, horizons, strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    model = DynamicModel(
        build_market_grid(10, 10, params), params, ports,
        {i: LossGrid(unit=unit, max_units=24) for i in (1, 2)},
        TimeGrid(horizons=horizons), persistence=0.9, coarsen=3,
    )
    per_period = [
        [c for i in (1, 2)
         for c in _index_constraints(i, strikes, t, targets[(t, i)])]
        for t in horizons
    ]
    tracemalloc.start()
    try:
        states, kernels = model.bootstrap_all(per_period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 2_854_752
    check(
        "dynamic-24-names-factored-states",
        peak < 300.0e6 - rows * 5 * 8,
        f"bootstrap_all traced peak {peak / 1e6:.1f} MB (budget "
        f"{300.0 - rows * 40 / 1e6:.1f} MB: 300.0 MB with the period-0 "
        "support, less that support)",
    )
    s0, s1 = states
    k0, k1 = kernels
    assert len(s0.probs) == rows
    t1, t2 = (k0.loss_tilted[i].pmfs.reshape(100, -1) for i in (1, 2))
    outer = (t1[:, :, None] * t2[:, None, :]
             * k0.pooled_mass[0, 0][:, None, None]
             ).reshape(100, *k0.loss_tilted[1].shape, *k0.loss_tilted[2].shape)
    assert np.array_equal(np.argwhere(outer), s0.support)
    want = outer[tuple(s0.support.T)]
    assert_cells_close(s0.probs, want)
    del outer, want
    assert_lattice_matches_reference(model, 1, s0, per_period[1])
    assert s1.kernel is k1
    # the row path: period 0's rows, rounded up and summed in row order as
    # its bincount summed them, then solved and propagated
    by_rows = state_of_rows(s0, s0.support, s0.probs)
    k1_rows = model.calibrate_period(1, by_rows, per_period[1])
    s1_rows = model.propagate_marginal(k1_rows)
    assert np.abs(k1.lambdas - k1_rows.lambdas).max() <= \
        1e-12 * np.abs(k1_rows.lambdas).max()
    assert np.array_equal(s1.support, s1_rows.support)
    assert (np.abs(s1.probs - s1_rows.probs) <= 1e-9 * s1_rows.probs).all()


def test_product_form_period_dual_two_40_name_indices():
    """Dynamic bootstrap of two 40-name indices (20 relevant, 20
    complement) on a 10x10 grid over 3 annual periods, coarsened by 3
    after period 0: periods 1 and 2 each solve a dual on 100 previous nodes
    x 64 x 64 previous loss pairs (409,600 cells, 403,843 and 408,562 of
    them with mass) of 100 nodes each.  The dual holds Zhat as a row factor
    times the last index's normalizers and forms no (cells x nodes) array.
    One BLAS thread, `bootstrap_all` alone: with the broadcast dual it took
    11.2-14.8 s, a traced peak of 733.6 MB (tracemalloc, numpy 2.4) and
    748 MB ru_maxrss; in product form 0.8-0.9 s, 65.9 MB traced and
    109 MB.  Budget: 3 s and 200 MB traced, with Newton's 2, 6 and 4
    steps kept and every period's pooled mass 1."""
    horizons = (1.0, 2.0, 3.0)
    strikes = (0.0, 0.15)
    ports = {i: _big_index(i, n_names=40, n_relevant=20, horizons=horizons)
             for i in (1, 2)}
    targets, unit = _market_targets(ports, horizons, strikes)
    params = FactorParams(rho=0.5, alpha=0.3)
    model = DynamicModel(
        build_market_grid(10, 10, params), params, ports,
        {i: LossGrid(unit=unit, max_units=40) for i in (1, 2)},
        TimeGrid(horizons=horizons), persistence=0.9, coarsen=3,
    )
    per_period = [
        [c for i in (1, 2)
         for c in _index_constraints(i, strikes, t, targets[(t, i)])]
        for t in horizons
    ]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        states, kernels = model.bootstrap_all(per_period)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = [k.iterations for k in kernels]
    lattices = [k.prev_mass.shape for k in kernels]
    # each state's mass is its kernel's pooled mass (tilted laws sum to 1);
    # period 0's support alone would be about 19 M rows
    worst_mass = max(abs(k.pooled_mass.sum() - 1.0) for k in kernels)
    check(
        "dynamic-40-names-product-form-dual",
        elapsed <= 3.0 and peak <= 200e6 and steps == [2, 6, 4]
        and lattices == [(1, 1, 1), (100, 64, 64), (100, 64, 64)]
        and worst_mass < 1e-9,
        f"{elapsed:.2f} s (budget 3 s), traced peak {peak / 1e6:.1f} MB "
        f"(budget 200 MB); Newton steps {steps}, lattices {lattices}, "
        f"|mass - 1| {worst_mass:.1e}",
    )
