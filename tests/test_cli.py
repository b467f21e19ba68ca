import contextlib
import csv
import functools
import hashlib
import importlib.util
import json
import math
import operator
import os
import re
import resource
import shutil
import subprocess
import sys
from io import BytesIO, StringIO
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import entropic_bespoke as eb
from entropic_bespoke import cli, errors, io as fmt, solver
from entropic_bespoke.cli import RunConfig, main
from entropic_bespoke.io import (
    CONSTRAINT_COLUMNS,
    load_constraints,
    load_portfolios,
)
from entropic_bespoke.loss import (
    ConditionalLossDist,
    LossGrid,
    build_conditional_prior,
    default_loss_unit,
    name_loss_units,
)

from conftest import (reference_kernel_factor_rows, reference_prev_rows,
                      split_rows, toy_portfolio)


def write_portfolios(path, rho=0.4, alpha=0.2, horizons=(1.0, 3.0), n_names=6,
                     loading=0.45):
    names = []
    for idx in (1, 2):
        for j in range(n_names):
            names.append({
                "id": f"N{idx}_{j}",
                "index_id": idx,
                "bucket": "relevant" if j < n_names // 2 else "complement",
                "recovery": 0.4,
                "notional_weight": 1.0 / n_names,
                "one_factor_loading": loading,
                "default_probs": [
                    round(min(0.9, 0.02 * (j + 1) * t), 10) for t in horizons
                ],
            })
    path.write_text(json.dumps({
        "factor_params": {"rho": rho, "alpha": alpha},
        "horizons": list(horizons),
        "names": names,
    }))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@contextlib.contextmanager
def address_space_limit(extra=2 << 30):
    """Cap this process's address space at its current size plus `extra`
    bytes, so that a run asking for a huge array fails with MemoryError
    instead of exhausting the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        limit = int(fh.read().split()[0]) * resource.getpagesize() + extra
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def digits17(value) -> str:
    """A float as the dumps write it: 17 significant digits, '%.16e'."""
    return "%.16e" % float(value)


def prior_el_constraints(portfolio_path, grid_size=(4, 4), shift=1.0):
    """Constraint rows whose targets are the prior-implied values."""
    params, ports, horizons = load_portfolios(portfolio_path)
    unit = default_loss_unit(*ports.values())
    grid = eb.build_market_grid(*grid_size, params)
    rows = []
    for t in horizons:
        for i, p in sorted(ports.items()):
            cap = sum(name_loss_units(n, unit) for n in p.names)
            q = build_conditional_prior(
                p, grid, LossGrid(unit=unit, max_units=cap), t, params
            )
            shells = [
                eb.PricingConstraint(index_id=i, kind="tranche", k_low=0.0,
                                     k_high=0.3, target_el=0.0, sigma=1e-4,
                                     horizon=t),
                eb.PricingConstraint(index_id=i, kind="relevant_total",
                                     target_el=0.0, sigma=1e-4, horizon=t),
            ]
            els = eb.prior_expected_losses(grid, {i: q}, shells)
            rows.append([i, "tranche", "0.0", "0.3", t,
                         digits17(els[0] * shift), "0.0001"])
            rows.append([i, "relevant_total", "", "", t,
                         digits17(els[1] * shift), "0.0001"])
    return rows


@pytest.fixture
def workdir(tmp_path):
    write_portfolios(tmp_path / "portfolios.json")
    write_csv(tmp_path / "discount.csv", ["time", "discount_factor"],
              [[1.0, 0.98], [3.0, 0.94], [5.0, 0.9]])
    write_csv(tmp_path / "tranches.csv",
              ["k_low", "k_high", "maturity", "frequency", "daycount"],
              [[0.0, 0.1, 3.0, 4, "yearfrac"], [0.1, 0.5, 3.0, 4, "yearfrac"]])
    write_csv(tmp_path / "basecorr.csv", ["strike", "beta", "horizon"],
              [[0.03, 0.3, 3.0], [0.07, 0.4, 3.0], [0.15, 0.5, 3.0]])
    config = {
        "mode": "calibrate-static",
        "portfolios": "portfolios.json",
        "constraints": "constraints.csv",
        "discount_curve": "discount.csv",
        "tranches": "tranches.csv",
        "base_correlation": "basecorr.csv",
        "bespoke": {"members": [[1, "relevant"], [2, "relevant"]]},
        "grid_size": [4, 4],
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- reference dump formatters: one list of strings per row, one csv.writer
# row each; the streamed dumps must reproduce their bytes exactly


def reference_measure_rows(horizon, result):
    rows = []
    for i in result.index_ids:
        pmfs = result.laws[i].pmfs
        for m in range(pmfs.shape[0]):
            xs, ys = np.nonzero(pmfs[m])
            for x, y in zip(xs, ys):
                rows.append(["%.10g" % float(horizon), str(i), str(m),
                             str(int(x)), str(int(y)),
                             digits17(pmfs[m, x, y])])
    return rows


def reference_factor_rows(horizon, result):
    grid = result.grid
    n2 = len(grid.nodes2)
    rows = []
    for flat, (g, h) in enumerate(zip(grid.flat_weights,
                                      result.posterior_weights)):
        m1, m2 = divmod(flat, n2)
        rows.append(["%.10g" % float(horizon), str(m1), str(m2),
                     "%.10g" % float(grid.nodes1[m1]),
                     "%.10g" % float(grid.nodes2[m2]),
                     digits17(g), digits17(h)])
    return rows


def reference_state_rows(states):
    rows = []
    for state in states:
        for row, p in zip(state.support, state.probs):
            rows.append([str(state.period), "%.10g" % float(state.horizon)]
                        + [str(int(v)) for v in row] + [digits17(p)])
    return rows


def reference_kernel_rows(kernels):
    rows = []
    for kernel in kernels:
        for s, row in enumerate(reference_kernel_factor_rows(kernel)):
            for m in np.nonzero(row > 0.0)[0]:
                rows.append([str(kernel.period), "%.10g" % float(kernel.horizon),
                             str(s), str(int(m)), digits17(row[m])])
    return rows


def npy_bytes(array) -> bytes:
    buf = BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def reference_csv(header, rows) -> bytes:
    buf = StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.fixture
def dumped(monkeypatch):
    """Arguments of every dump producer call the CLI makes, by name:
    `factor_rows` gets each horizon's calibration result."""
    calls = {}
    for name in ("factor_rows", "state_rows", "kernel_rows"):
        def spy(*args, _real=getattr(fmt, name), _name=name):
            calls.setdefault(_name, []).append(args)
            return _real(*args)
        monkeypatch.setattr(fmt, name, spy)
    return calls


class TestCalibrateStatic:
    def test_prior_targets_give_zero_residuals_and_lambdas(self, workdir):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        assert main(["--config", str(workdir / "config.json")]) == 0
        rows = read_rows(workdir / "out" / "calibration_residuals.csv")
        assert len(rows) == 8
        for row in rows:
            assert abs(float(row["residual"])) < 1e-10
            assert abs(float(row["lambda"])) < 1e-7

    def test_determinism_across_runs_and_threads(self, workdir):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        assert main(["--config", str(workdir / "config.json"),
                     "--out", str(workdir / "o1")]) == 0
        cfg = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**cfg, "threads": 4}))
        assert main(["--config", str(workdir / "config.json"),
                     "--out", str(workdir / "o2")]) == 0
        names = ["calibration_residuals.csv", "factor_distribution.csv",
                 "posterior_laws.npz"]
        for name in names:
            assert (workdir / "o2" / name).read_bytes() == \
                (workdir / "o1" / name).read_bytes()

    def test_full_partition_warning(self, workdir, capsys):
        rows = prior_el_constraints(workdir / "portfolios.json")
        extra = [
            [1, "tranche", "0.3", "1.0", 1.0, "0.001", "0.0001"],
            [1, "complement_total", "", "", 1.0, "0.05", "0.0001"],
        ]
        # index 1 at horizon 1.0 now has tranches [0, 0.3], [0.3, 1] plus
        # both totals: linearly dependent
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  rows + extra)
        assert main(["--config", str(workdir / "config.json")]) == 0
        assert "linearly dependent" in capsys.readouterr().err

    def test_exact_full_partition_warns_and_converges(self, workdir, capsys):
        # per index the full ladder and both totals, all exact, with the
        # horizon-3 prior's ELs as horizon-1 targets: the ladder sums to the
        # two totals, so the Hessian is singular along lam_n = (1, 1, 1, 1,
        # -1, -1), and the minimum-norm Newton step keeps lam . lam_n = 0
        params, ports, _ = load_portfolios(workdir / "portfolios.json")
        unit = default_loss_unit(*ports.values())
        grid = eb.build_market_grid(4, 4, params)
        ladder = (0.0, 0.1, 0.3, 0.5, 1.0)  # the lattice unit is 0.1
        rows = []
        for i, p in sorted(ports.items()):
            shells = [eb.PricingConstraint(index_id=i, kind="tranche",
                                           k_low=lo, k_high=hi, target_el=0.0)
                      for lo, hi in zip(ladder, ladder[1:])] + [
                eb.PricingConstraint(index_id=i, kind=kind, target_el=0.0)
                for kind in ("relevant_total", "complement_total")]
            prior = build_conditional_prior(p, grid, LossGrid(
                unit=unit, max_units=sum(name_loss_units(n, unit)
                                         for n in p.names)), 3.0, params)
            els = eb.prior_expected_losses(grid, {i: prior}, shells)
            rows += [[i, c.kind, c.k_low, c.k_high, 1.0, digits17(el), 0.0]
                     for c, el in zip(shells, els)]
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        assert main(["--config", str(workdir / "config.json")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: ") for line in err)
        assert [line.rsplit(": ", 1)[1] for line in err] == \
            ["i1:complement_total", "i2:complement_total"], err
        fit = read_rows(workdir / "out" / "calibration_residuals.csv")
        assert max(abs(float(r["residual"])) for r in fit) <= 2e-9
        for i in ("1", "2"):
            lam = np.array([float(r["lambda"]) for r in fit
                            if r["index_id"] == i])
            assert abs(lam @ [1, 1, 1, 1, -1, -1]) <= 1e-8 * abs(lam).max()

    def test_dependence_warning_names_the_dependent_constraint(self, workdir,
                                                               capsys):
        # the partition of test_full_partition_warning: complement_total is
        # the two tranches less relevant_total, and is named; index 2 and
        # horizon 3 have independent sets and do not warn
        rows = prior_el_constraints(workdir / "portfolios.json")
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows + [
            [1, "tranche", "0.3", "1.0", 1.0, "0.001", "0.0001"],
            [1, "complement_total", "", "", 1.0, "0.05", "0.0001"],
        ])
        assert main(["--config", str(workdir / "config.json")]) == 0
        assert capsys.readouterr().err == (
            "warning: index 1 horizon 1: constraints linearly dependent on "
            "the prior's support, each a constant plus a combination of those "
            "before it: i1:complement_total\n")

    def test_measure_dump_bytes_match_row_formatter(self, workdir, dumped,
                                                    monkeypatch):
        # half the single-name loss as the unit: every name loses 2 units,
        # so each node's lattice has zero-mass cells the dump must skip
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["loss_unit"] = 0.05
        (workdir / "config.json").write_text(json.dumps(cfg))
        # text blocks smaller than one node's lattice, spanning several
        # nodes, and the default
        for block in (7, 100, fmt._BLOCK_ROWS):
            monkeypatch.setattr(fmt, "_BLOCK_ROWS", block)
            dumped.clear()
            assert main(["--config", str(workdir / "config.json")]) == 0
            calls = dumped["factor_rows"]
            assert [t for t, _ in calls] == [1.0, 3.0]
            pmfs = [law.pmfs for _, result in calls
                    for law in result.laws.values()]
            assert any((p[m] == 0.0).any() and p[m].any()
                       for p in pmfs for m in range(p.shape[0]))
            assert all(7 < p[0].size and 2 * np.count_nonzero(p[0]) <= 100
                       for p in pmfs)
            # the laws read back are the calibrated ones bit for bit, -inf
            # cells too
            grids = {i: law.grid for i, law in calls[0][1].laws.items()}
            laws = fmt.load_posterior_laws(
                workdir / "out" / "posterior_laws.npz", grids)
            assert list(laws) == [1.0, 3.0]
            for t, result in calls:
                assert list(laws[t]) == [1, 2]
                for i, law in laws[t].items():
                    assert np.isneginf(result.laws[i].log_a).any()
                    for name in ("log_a", "log_b", "tau", "log_z"):
                        got, want = getattr(law, name), getattr(
                            result.laws[i], name)
                        assert got.dtype == want.dtype == np.float64
                        np.testing.assert_array_equal(
                            got.view(np.uint64),
                            np.ascontiguousarray(want).view(np.uint64))
            dense = b"".join(chain.from_iterable(
                fmt.measure_rows(t, laws[t]) for t in laws))
            rows = [row for t, result in calls
                    for row in reference_measure_rows(t, result)]
            assert reference_csv(fmt.MEASURE_HEADER, []) + dense == \
                reference_csv(fmt.MEASURE_HEADER, rows)

    def test_factor_dump_bytes_match_row_formatter(self, workdir, dumped):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        assert main(["--config", str(workdir / "config.json")]) == 0
        rows = [row for t, result in dumped["factor_rows"]
                for row in reference_factor_rows(t, result)]
        assert len(rows) == 2 * 16
        assert (workdir / "out" / "factor_distribution.csv").read_bytes() == \
            reference_csv(fmt.FACTOR_HEADER, rows)

    # posterior_laws.npz of one index on a 2-node grid with a 2 x 3 lattice
    # at horizons 1 and 2, as written, then edited member by member
    @pytest.mark.parametrize("edit, message", [
        (b"horizon,index_id,factor,m,j,value\n"
         b"1,1,log_a,0,0,-5.0000000000000000e-01\n", "not an .npz archive"),
        (npy_bytes(np.zeros(3)), "not an .npz archive"),
        (b"", "not an .npz archive"),
        (lambda m: {**m, "i1_tau": np.array([None, 0.5])},
         "member 'i1_tau': Object arrays cannot be loaded"),
        (lambda m: {k: v for k, v in m.items() if k != "i1_tau"},
         "no member 'i1_tau'"),
        (lambda m: {**m, "notes": np.zeros(1)}, "unexpected member 'notes'"),
        (lambda m: {**m, "i1_log_b": m["i1_log_b"].astype(np.float32)},
         "member 'i1_log_b' must be float64, got float32"),
        (lambda m: {**m, "index_ids": np.array([1.0])},
         "member 'index_ids' must be int64, got float64"),
        (lambda m: {**m, "index_ids": np.array([[1]])},
         r"member 'index_ids' must be 1-d, got shape \(1, 1\)"),
        (lambda m: {**m, "i1_tau": m["i1_tau"][:, :3]},
         r"shapes i1_log_a \(2, 2, 2\), i1_log_b \(2, 2, 3\), i1_tau "
         r"\(2, 3\), i1_log_z \(2, 2\) do not make one law per horizon "
         "of 2"),
        (lambda m: {**m, "horizons": np.array([1.0, 2.0, 3.0]),
                    "i1_tau": np.vstack([m["i1_tau"], m["i1_tau"][:1]])},
         r"shapes i1_log_a \(2, 2, 2\), .* i1_tau \(3, 4\), .* do not make "
         "one law per horizon of 3"),
        (lambda m: {**m, "i1_log_b": np.where(m["i1_log_b"] == -0.5, np.nan,
                                              m["i1_log_b"])},
         r"member 'i1_log_b' holds NaN or \+inf"),
        (lambda m: {**m, "i1_log_a": -m["i1_log_a"]},
         r"member 'i1_log_a' holds NaN or \+inf"),
        (lambda m: {**m, "horizons": np.array([1.0, np.nan])},
         r"member 'horizons' holds NaN or \+inf"),
        (lambda m: {**m, "horizons": np.array([1.0, -np.inf])},
         r"member 'horizons' must be finite and distinct, got \[1.0, -inf\]"),
        (lambda m: {**m, "horizons": np.array([2.0, 2.0])},
         r"member 'horizons' must be finite and distinct, got \[2.0, 2.0\]"),
        (lambda m: {"horizons": m["horizons"], "index_ids": np.array([5]),
                    **{k.replace("i1_", "i5_"): v for k, v in m.items()
                       if k.startswith("i1_")}},
         "member 'index_ids': index 5 has no loss grid"),
    ], ids=["old-csv", "npy-file", "empty-file", "pickled-member",
            "missing-member", "extra-member",
            "not-float64", "index-ids-not-int64", "index-ids-not-1d",
            "short-tau", "horizon-count", "nan", "plus-inf", "nan-horizon",
            "inf-horizon", "repeated-horizon", "no-loss-grid"])
    def test_laws_reader_names_file_and_member(self, tmp_path, edit, message):
        grid = LossGrid(unit=0.1, max_units=3)
        laws = {t: {1: ConditionalLossDist.from_factors(
            1, grid, np.array([[-0.5, -1.5], [0.0, -np.inf]]) * t,
            np.array([[-1.25, -0.5, -2.5], [-0.75, -0.5, -np.inf]]),
            np.array([0.0, 0.1, -0.2, 0.3]), np.array([0.01, -0.02]))}
            for t in (1.0, 2.0)}
        path = tmp_path / "posterior_laws.npz"
        fmt.write_posterior_laws(path, laws)
        good = fmt.load_posterior_laws(path, {1: grid})
        for t in (1.0, 2.0):
            np.testing.assert_array_equal(good[t][1].pmfs, laws[t][1].pmfs)
        if isinstance(edit, bytes):  # the whole file
            path.write_bytes(edit)
        else:
            with np.load(path) as npz:
                members = edit(dict(npz))
            np.savez(path, **members)
        with pytest.raises(errors.ConfigurationError,
                           match=f"^{re.escape(str(path))}: {message}"):
            fmt.load_posterior_laws(path, {1: grid})


class TestCalibrateDynamic:
    def test_state_and_kernel_dump_bytes_match_row_formatter(
        self, tmp_path, dumped, monkeypatch
    ):
        # small text blocks, so each state and kernel spans several
        monkeypatch.setattr(fmt, "_BLOCK_ROWS", 7)
        write_portfolios(tmp_path / "portfolios.json", n_names=4)
        write_csv(tmp_path / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(tmp_path / "portfolios.json",
                                       grid_size=(3, 3), shift=1.1))
        (tmp_path / "config.json").write_text(json.dumps({
            "mode": "calibrate-dynamic",
            "portfolios": "portfolios.json",
            "constraints": "constraints.csv",
            "grid_size": [3, 3],
            "output_dir": "out",
        }))
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        (states,), = dumped["state_rows"]
        (kernels,), = dumped["kernel_rows"]
        assert len(states) == len(kernels) == 2
        assert (tmp_path / "out" / "dynamic_states.csv").read_bytes() == \
            reference_csv(fmt.STATE_HEADER, reference_state_rows(states))
        assert (tmp_path / "out" / "dynamic_factor_kernels.csv").read_bytes() \
            == reference_csv(fmt.KERNEL_HEADER, reference_kernel_rows(kernels))

    @pytest.mark.parametrize("block_rows", [7, 20, 1 << 14])
    def test_kernel_dump_streams_blocks_of_previous_rows(
        self, tmp_path, dumped, monkeypatch, block_rows
    ):
        # 3x3 nodes: blocks of 1, 2 and all previous rows; each row is
        # normalized on its own, so every block size gives the same bytes
        monkeypatch.setattr(fmt, "_BLOCK_ROWS", block_rows)
        write_portfolios(tmp_path / "portfolios.json", n_names=4)
        write_csv(tmp_path / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(tmp_path / "portfolios.json",
                                       grid_size=(3, 3), shift=1.1))
        (tmp_path / "config.json").write_text(json.dumps({
            "mode": "calibrate-dynamic", "portfolios": "portfolios.json",
            "constraints": "constraints.csv", "grid_size": [3, 3],
            "output_dir": "out",
        }))
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        (kernels,), = dumped["kernel_rows"]
        assert [len(reference_prev_rows(k)[1]) for k in kernels] == [1, 729]
        assert (tmp_path / "out" / "dynamic_factor_kernels.csv").read_bytes() \
            == reference_csv(fmt.KERNEL_HEADER, reference_kernel_rows(kernels))

    def test_coarse_unit_wider_than_a_tranche_warns(self, tmp_path, capsys):
        # 4 names of LGD 0.15 per index: coarsened by 3 from period 1, the
        # unit 0.45 is wider than the 0-30% tranche
        write_portfolios(tmp_path / "portfolios.json", n_names=4)
        write_csv(tmp_path / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(tmp_path / "portfolios.json",
                                       grid_size=(3, 3)))
        (tmp_path / "config.json").write_text(json.dumps({
            "mode": "calibrate-dynamic",
            "portfolios": "portfolios.json",
            "constraints": "constraints.csv",
            "grid_size": [3, 3],
            "coarsen": 3,
            "output_dir": "out",
        }))
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: index {i}, period 1: coarse loss unit 0.45 is wider "
            "than the narrowest tranche, 0.3 wide; its target may not be "
            "met\n" for i in (1, 2))

    def test_coarsened_dumps_join_through_the_aligned_states(
        self, tmp_path, dumped, monkeypatch
    ):
        monkeypatch.setattr(fmt, "_BLOCK_ROWS", 7)
        write_portfolios(tmp_path / "portfolios.json", n_names=4)
        write_csv(tmp_path / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(tmp_path / "portfolios.json",
                                       grid_size=(3, 3), shift=1.1))
        (tmp_path / "config.json").write_text(json.dumps({
            "mode": "calibrate-dynamic",
            "portfolios": "portfolios.json",
            "constraints": "constraints.csv",
            "grid_size": [3, 3],
            "coarsen": 2,
            "output_dir": "out",
        }))
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        (states,), = dumped["state_rows"]
        (kernels,), = dumped["kernel_rows"]
        assert len(states) == len(kernels) == 2
        assert (tmp_path / "out" / "dynamic_states.csv").read_bytes() == \
            reference_csv(fmt.STATE_HEADER, reference_state_rows(states))
        assert (tmp_path / "out" / "dynamic_factor_kernels.csv").read_bytes() \
            == reference_csv(fmt.KERNEL_HEADER, reference_kernel_rows(kernels))
        # docs/file_formats.md: period 1's prev_row indexes the period-0
        # rows with every loss split between its two nearest coarse levels
        # (halves of 2), equal rows merged and sorted lexicographically
        period0 = [r for r in read_rows(tmp_path / "out/dynamic_states.csv")
                   if r["period"] == "0"]
        split, masses = split_rows(
            np.array([[int(r[x]) for x in ("m", "x11", "x12", "x21", "x22")]
                      for r in period0]),
            np.array([float(r["prob"]) for r in period0]), 2)
        mapped = {}
        for key, p in zip(map(tuple, split.tolist()), masses):
            mapped[key] = mapped.get(key, 0.0) + p
        assert len(mapped) < len(split)  # some rows merged
        support, probs = reference_prev_rows(kernels[1])
        assert [tuple(row) for row in support.tolist()] == sorted(mapped)
        assert probs == pytest.approx([mapped[k] for k in sorted(mapped)],
                                      rel=1e-12)
        sums = {}
        for r in read_rows(tmp_path / "out" / "dynamic_factor_kernels.csv"):
            if r["period"] == "1":
                sums[int(r["prev_row"])] = \
                    sums.get(int(r["prev_row"]), 0.0) + float(r["prob"])
        assert sorted(sums) == list(range(len(mapped)))
        assert list(sums.values()) == pytest.approx([1.0] * len(sums),
                                                    abs=1e-12)


class TestPriceBespoke:
    def test_single_bucket_equals_direct_pricing(self, workdir):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        cfg["bespoke"] = {"members": [[1, "relevant"]]}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 0
        rows = read_rows(workdir / "out" / "tranche_prices.csv")

        # independent pricing pass through the library
        params, ports, horizons = load_portfolios(workdir / "portfolios.json")
        constraints = load_constraints(workdir / "constraints.csv")
        unit = default_loss_unit(*ports.values())
        grid = eb.build_market_grid(4, 4, params)
        results = {}
        for t in horizons:
            priors = {}
            for i, p in sorted(ports.items()):
                cap = sum(name_loss_units(n, unit) for n in p.names)
                priors[i] = build_conditional_prior(
                    p, grid, LossGrid(unit=unit, max_units=cap), t, params
                )
            subset = [c for c in constraints if c.horizon == t]
            results[t] = eb.calibrate(grid, priors, subset)
        notional = sum(n.notional_weight
                       for n in ports[1].bucket_names("relevant"))
        spec = eb.BespokeSpec(members=((1, "relevant"),), notional=notional)
        dists = eb.bespoke_loss_dist(results, spec)
        curve = eb.DiscountCurve(times=(1.0, 3.0, 5.0),
                                 factors=(0.98, 0.94, 0.9))
        for row in rows:
            tranche = eb.TrancheSpec.with_schedule(
                float(row["k_low"]), float(row["k_high"]), 3.0, 4
            )
            price = eb.price_tranche(dists, tranche, curve)
            assert float(row["par_spread_bp"]) == pytest.approx(
                price.par_spread_bp, abs=0.051
            )
            assert float(row["risky_annuity"]) == pytest.approx(
                price.risky_annuity, rel=1e-9
            )

    def test_manifest_records_mode_options_outputs_and_inputs(self,
                                                             workdir):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg.update({"mode": "price-bespoke", "persistence": 0.8, "coarsen": 2,
                    "loss_unit": None, "mapping_rule": "absolute",
                    "reference_index": 2, "threads": 3})
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 0
        # each input's path as the config wrote it, relative to its directory
        inputs = {key: cfg[key] for key in
                  ("constraints", "portfolios", "discount_curve", "tranches",
                   "base_correlation")}
        assert json.loads((workdir / "out" / "manifest.json").read_text()) == {
            "package": "entropic-bespoke",
            "version": eb.__version__,
            "mode": "price-bespoke",
            "inputs": {key: {"path": path, "sha256": hashlib.sha256(
                           (workdir / path).read_bytes()).hexdigest()}
                       for key, path in inputs.items()},
            "options": {"grid_size": [4, 4], "persistence": 0.8,
                        "coarsen": 2, "loss_unit": None,
                        "mapping_rule": "absolute", "reference_index": 2,
                        "threads": 3},
            "outputs": ["calibration_residuals.csv", "factor_distribution.csv",
                        "posterior_laws.npz", "tranche_prices.csv"],
        }

    def test_copies_of_one_input_tree_give_one_manifest(self, workdir,
                                                        tmp_path_factory):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        base = tmp_path_factory.mktemp("copies")
        manifests = []
        for copy in (base / "a", base / "b" / "deeper"):
            shutil.copytree(workdir, copy)
            assert main(["--config", str(copy / "config.json"), "--mode",
                         "price-bespoke"]) == 0
            manifests.append((copy / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert str(base) not in manifests[0].decode()

    def test_posterior_measure_roundtrip_reprices_identically(
            self, workdir, dumped):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 0

        # the posterior from the written files alone: the laws of
        # posterior_laws.npz and the weights of factor_distribution.csv
        params, ports, horizons = load_portfolios(workdir / "portfolios.json")
        unit = default_loss_unit(*ports.values())
        grids = {i: LossGrid(unit=unit, max_units=sum(
                     name_loss_units(n, unit) for n in p.names))
                 for i, p in ports.items()}
        laws = fmt.load_posterior_laws(workdir / "out" / "posterior_laws.npz",
                                       grids)
        factors = read_rows(workdir / "out" / "factor_distribution.csv")
        assert list(laws) == horizons
        restored = {}
        for t in horizons:
            restored[t] = SimpleNamespace(
                posterior_weights=np.array([float(r["posterior_weight"])
                                            for r in factors
                                            if float(r["horizon"]) == t]),
                laws=laws[t],
                bucket_marginals=lambda i, bucket, _laws=laws[t]:
                    _laws[i].relevant_marginals())
        spec = eb.BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                              notional=sum(
                                  n.notional_weight for i in (1, 2)
                                  for n in ports[i].bucket_names("relevant")))
        dists = eb.bespoke_loss_dist(restored, spec)
        # the same loss laws as the run's, bit for bit
        calibrated = dict(dumped["factor_rows"])
        for t, dist in eb.bespoke_loss_dist(calibrated, spec).items():
            np.testing.assert_array_equal(dists[t].pmf, dist.pmf)
        curve = eb.DiscountCurve(times=(1.0, 3.0, 5.0),
                                 factors=(0.98, 0.94, 0.9))
        out_rows = read_rows(workdir / "out" / "tranche_prices.csv")
        for row in out_rows:
            tranche = eb.TrancheSpec.with_schedule(
                float(row["k_low"]), float(row["k_high"]), 3.0, 4
            )
            price = eb.price_tranche(dists, tranche, curve)
            assert "%.1f" % price.par_spread_bp == row["par_spread_bp"]
            assert "%.10g" % price.risky_annuity == row["risky_annuity"]
            assert "%.10g" % price.default_leg == row["default_leg"]

    def test_proxy_el_targets_price_like_the_library(self, workdir):
        # index 2's relevant bucket stands in for off-index names: its
        # per-node marginals are tilted to the block's EL at each horizon
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        cfg["bespoke"]["proxy_el_targets"] = [
            {"index_id": 2, "bucket": "relevant",
             "targets": {"3.0": 0.05, "1.0": 0.02}}]
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 0

        params, ports, horizons = load_portfolios(workdir / "portfolios.json")
        constraints = load_constraints(workdir / "constraints.csv")
        unit = default_loss_unit(*ports.values())
        grid = eb.build_market_grid(4, 4, params)
        results = {}
        for t in horizons:
            priors = {i: build_conditional_prior(
                          p, grid, LossGrid(unit, sum(name_loss_units(n, unit)
                                                      for n in p.names)),
                          t, params)
                      for i, p in sorted(ports.items())}
            results[t] = eb.calibrate(
                grid, priors, [c for c in constraints if c.horizon == t])
        members = ((1, "relevant"), (2, "relevant"))
        spec = eb.BespokeSpec(
            members=members,
            notional=sum(n.notional_weight for i, b in members
                         for n in ports[i].bucket_names(b)),
            proxy_el_targets=(((2, "relevant"), ((1.0, 0.02), (3.0, 0.05))),))
        dists = eb.bespoke_loss_dist(results, spec)
        plain = eb.bespoke_loss_dist(
            results, eb.BespokeSpec(members=members, notional=spec.notional))
        for t, target in zip(horizons, (0.02, 0.05)):
            # the bucket's EL moved from its calibrated value to the target
            marg = results[t].bucket_marginals(2, "relevant")
            el = results[t].posterior_weights @ marg @ (
                unit * np.arange(marg.shape[1]))
            assert abs(el - target) > 5e-3
            assert (dists[t].mean() - plain[t].mean()) * spec.notional == \
                pytest.approx(target - el, abs=1e-12)
        curve = fmt.load_discount_curve(workdir / "discount.csv")
        prices = [eb.price_tranche(dists, tr, curve)
                  for tr in fmt.load_tranches(workdir / "tranches.csv")]
        with open(workdir / "out" / "tranche_prices.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == fmt.pricing_rows(prices)


class TestMapBasecorr:
    def test_atm_derived_example(self, tmp_path):
        # bespoke pool EL 0.06, index pool EL 0.04, K_b = 0.03 -> K_i = 0.02
        names = []
        for j in range(4):
            names.append({
                "id": f"I{j}", "index_id": 1,
                "bucket": "relevant" if j < 2 else "complement",
                "recovery": 0.4, "notional_weight": 0.25,
                "one_factor_loading": 0.4,
                "default_probs": [1.0 / 15.0],
            })
        for j in range(3):
            names.append({
                "id": f"B{j}", "index_id": 2, "bucket": "relevant",
                "recovery": 0.4, "notional_weight": 1.0 / 3.0,
                "one_factor_loading": 0.4,
                "default_probs": [0.1],
            })
        (tmp_path / "portfolios.json").write_text(json.dumps({
            "factor_params": {"rho": 0.3, "alpha": 0.0},
            "horizons": [3.0],
            "names": names,
        }))
        write_csv(tmp_path / "tranches.csv",
                  ["k_low", "k_high", "maturity", "frequency", "daycount"],
                  [[0.0, 0.03, 3.0, 4, "yearfrac"]])
        write_csv(tmp_path / "basecorr.csv", ["strike", "beta", "horizon"],
                  [[0.03, 0.3, 3.0], [0.15, 0.5, 3.0]])
        (tmp_path / "config.json").write_text(json.dumps({
            "mode": "map-basecorr",
            "portfolios": "portfolios.json",
            "tranches": "tranches.csv",
            "base_correlation": "basecorr.csv",
            "bespoke": {"members": [[2, "relevant"]]},
            "mapping_rule": "atm",
            "reference_index": 1,
            "output_dir": "out",
        }))
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        rows = read_rows(tmp_path / "out" / "mapped_strikes.csv")
        assert len(rows) == 1
        assert float(rows[0]["bespoke_el"]) == pytest.approx(0.06, abs=1e-12)
        assert float(rows[0]["index_el"]) == pytest.approx(0.04, abs=1e-12)
        assert float(rows[0]["k_index"]) == pytest.approx(0.02, abs=1e-12)
        assert (tmp_path / "out" / "basecorr_prices.csv").exists()


    def test_each_reference_base_el_is_built_once(self, workdir, monkeypatch):
        # the tranches 0-10% and 10-50% share the 10% strike, on two
        # horizons: six base ELs are priced from four distinct ones, in one
        # batch per horizon
        write_csv(workdir / "basecorr.csv", ["strike", "beta", "horizon"],
                  [[0.03, 0.3, 1.0], [0.15, 0.5, 1.0],
                   [0.03, 0.3, 3.0], [0.15, 0.5, 3.0]])
        calls = []
        real = eb.basecorr.base_tranche_el

        def counted(pool, ks, betas, horizon):
            calls.append([(k, beta, horizon) for k, beta in zip(ks, betas)])
            return real(pool, ks, betas, horizon)

        monkeypatch.setattr(eb.basecorr, "base_tranche_el", counted)
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["constraints"]
        cfg["mode"] = "map-basecorr"
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 0
        assert len(calls) == 2
        assert sorted((k, t) for batch in calls for k, _, t in batch) == [
            (0.1, 1.0), (0.1, 3.0), (0.5, 1.0), (0.5, 3.0)]
        assert len(read_rows(workdir / "out" / "basecorr_prices.csv")) == 2

    def test_benchmark_mapping_builds_about_100_laws(self, tmp_path,
                                                     monkeypatch):
        # the seed-0 basecorr-probmatch inputs: 12 strikes mapped on a
        # 50-name bespoke, two index laws and 48 reference base ELs; the
        # damped fixed point built 333 one-factor laws, the secant about
        # 100, and batching builds them in about 18 calls
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads",
            Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        config = workloads.generate("basecorr-probmatch", 0, tmp_path)
        calls = []
        real = eb.basecorr.onefactor_loss_dist

        def counted(pool, betas, horizon):
            calls.append(len(betas))
            return real(pool, betas, horizon)

        monkeypatch.setattr(eb.basecorr, "onefactor_loss_dist", counted)
        assert main(["--config", str(config)]) == 0
        assert sum(calls) <= 110
        assert len(calls) <= 20
        assert len(read_rows(tmp_path / "out" / "mapped_strikes.csv")) == 12

    def test_mapping_error_names_maturity_and_strike(self, workdir,
                                                      monkeypatch, capsys):
        # a fixed point that never settles: every bespoke law is a point
        # mass, at 0 and at the pool's whole loss (above every strike) by
        # turns; the index pool is the one with complement names
        flip = []

        def provider_law(pool, betas, horizon):
            laws = real(pool, betas, horizon)
            if any(n.bucket == "complement" for n in pool.names):
                return laws
            flip.append(len(flip) % 2)
            for law in laws:
                law.pmf[:] = 0.0
                law.pmf[-1 if flip[-1] else 0] = 1.0
            return laws

        real = eb.basecorr.onefactor_loss_dist
        monkeypatch.setattr(eb.basecorr, "onefactor_loss_dist", provider_law)
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["constraints"]
        cfg["mode"] = "map-basecorr"
        cfg["mapping_rule"] = "probability_matching"
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 1
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line.startswith("ERROR MAPPING: maturity 3: probability "
                               "matching did not converge at bespoke strike "
                               "0.1 (|K_target - K_i| ")
        assert line.endswith(", iterations 100)")


# one instance of every error class and the code its CLI line carries
ERROR_CASES = [
    (errors.EntropicBespokeError("base class"), "ERROR"),
    (errors.ConfigurationError("bad input"), "CONFIG"),
    (errors.InvalidLoadingError("no room for the idiosyncratic term",
                                "N1_0"), "CONFIG"),
    (errors.CalibrationError("no convergence", gradient_norm=1e-3,
                             iterations=7), "CALIBRATION"),
    (errors.InfiniteDivergenceError("KL is +inf"), "ERROR"),
    (errors.InfeasibleAdjustmentError("EL out of reach", (0.0, 0.1)),
     "INFEASIBLE"),
    (errors.MappingConvergenceError("no fixed point", residual=0.01,
                                    iterations=50), "MAPPING"),
    (errors.UndefinedSpreadError("zero annuity"), "SPREAD"),
]


class TestFailureHandling:
    def test_missing_input_errors_cleanly(self, workdir, capsys):
        # no constraints.csv on disk
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR CONFIG:")
        assert not (workdir / "out").exists()

    def test_partial_outputs_removed_on_failure(self, workdir, capsys):
        # constraints reference an index that does not exist: the residual
        # table for horizon 1.0 would be written before the failure at 3.0
        rows = prior_el_constraints(workdir / "portfolios.json")
        rows.append([9, "tranche", "0.0", "0.3", 3.0, "0.01", "0.0001"])
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG:")
        assert not (workdir / "out").exists()

    def test_rollback_after_partial_write(self, workdir, capsys):
        # calibration outputs are written before pricing; a tranche beyond
        # the last constrained horizon fails afterwards and must take the
        # already-written files with it
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        write_csv(workdir / "tranches.csv",
                  ["k_low", "k_high", "maturity", "frequency", "daycount"],
                  [[0.0, 0.1, 30.0, 4, "yearfrac"]])
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        (workdir / "config.json").write_text(json.dumps(cfg))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG:")
        assert not (workdir / "out").exists()

    def test_rollback_removes_the_directories_it_made(self, workdir, capsys):
        # the same late failure, with an output directory whose parents
        # the run makes too: every directory it made goes with the files
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        write_csv(workdir / "tranches.csv",
                  ["k_low", "k_high", "maturity", "frequency", "daycount"],
                  [[0.0, 0.1, 30.0, 4, "yearfrac"]])
        before = sorted(workdir.iterdir())
        rc = main(["--config", str(workdir / "config.json"),
                   "--mode", "price-bespoke",
                   "--out", str(workdir / "made" / "for" / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG:")
        assert sorted(workdir.iterdir()) == before

    def test_failed_streamed_dump_is_removed(self, workdir, monkeypatch,
                                             capsys):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))

        # the laws' archive fails on its third member, two written
        members, write_array = [], np.lib.format.write_array

        def failing_write_array(fid, array, **kwargs):
            members.append(array)
            if len(members) == 3:
                raise OSError("disk full")
            write_array(fid, array, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing_write_array)
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR IO: disk full")
        assert len(members) == 3
        assert not (workdir / "out").exists()

    def test_tranche_frequency_zero_is_a_config_error(self, workdir, capsys):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        write_csv(workdir / "tranches.csv",
                  ["k_low", "k_high", "maturity", "frequency", "daycount"],
                  [[0.0, 0.1, 3.0, 4, "yearfrac"],
                   [0.1, 0.5, 3.0, 0, "yearfrac"]])
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        (workdir / "config.json").write_text(json.dumps(cfg))
        (workdir / "out").mkdir()
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG: {workdir / 'tranches.csv'} line 3: frequency "
            "must be finite and positive, got 0\n")
        assert not any((workdir / "out").iterdir())

    @pytest.mark.parametrize("target, rows, message", [
        ("discount.csv", [[1.0, 0.98], [3.0, "nan"]],
         "discount.csv: discount factors must be positive and "
         "non-increasing from B(0,0)=1, got nan"),
        ("basecorr.csv", [[0.03, 0.3, 3.0], ["nan", 0.4, 3.0]],
         "basecorr.csv horizon 3: strike pillars must be finite and "
         "increasing, got nan"),
    ], ids=["discount-factor", "strike"])
    def test_nan_curve_pillar_names_the_file(self, workdir, capsys, target,
                                             rows, message):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        header = {"discount.csv": ["time", "discount_factor"],
                  "basecorr.csv": ["strike", "beta", "horizon"]}[target]
        write_csv(workdir / target, header, rows)
        rc = main(["--config", str(workdir / "config.json"), "--mode",
                   "price-bespoke" if target == "discount.csv"
                   else "map-basecorr"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / message}\n"
        assert not (workdir / "out").exists()

    def test_non_finite_constraint_input(self, workdir, capsys):
        rows = prior_el_constraints(workdir / "portfolios.json")
        rows[0][5] = "nan"
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG: {workdir / 'constraints.csv'} line 2: target_el "
            "must be finite, got nan\n")
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("target, edit, message", [
        ("tranches.csv", lambda rows: rows[1].pop(),
         "tranches.csv line 3: 4 fields, the header has 5"),
        ("tranches.csv", lambda rows: rows[0].append("extra"),
         "tranches.csv line 2: 6 fields, the header has 5"),
        ("constraints.csv", lambda rows: rows[2].pop(),
         "constraints.csv line 4: 6 fields, the header has 7"),
        ("constraints.csv", lambda rows: rows[0].extend(["", "extra"]),
         "constraints.csv line 2: 9 fields, the header has 7"),
        ("constraints.csv", lambda rows: rows[1].__setitem__(1, "total"),
         "constraints.csv line 3: kind must be one of ['complement_total', "
         "'relevant_total', 'tranche'], got 'total'"),
        ("tranches.csv", lambda rows: rows[1].__setitem__(4, "act360"),
         "tranches.csv line 3: daycount supports only 'yearfrac', got "
         "'act360'"),
    ], ids=["short-tranche", "long-tranche", "short-constraint",
            "long-constraint", "kind", "daycount"])
    def test_bad_csv_row_names_file_and_line(self, workdir, capsys, target,
                                             edit, message):
        # a row is read only when its field count is the header's, so no
        # field is silently missing or dropped
        files = {
            "constraints.csv": (CONSTRAINT_COLUMNS,
                                prior_el_constraints(workdir / "portfolios.json")),
            "tranches.csv": (["k_low", "k_high", "maturity", "frequency",
                              "daycount"],
                             [[0.0, 0.1, 3.0, 4, "yearfrac"],
                              [0.1, 0.5, 3.0, 4, "yearfrac"]]),
        }
        edit(files[target][1])
        for name, (header, rows) in files.items():
            write_csv(workdir / name, header, rows)
        rc = main(["--config", str(workdir / "config.json"), "--mode",
                   "price-bespoke"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / message}\n"
        assert not (workdir / "out").exists()

    def test_empty_basecorr_file_is_a_config_error(self, workdir, capsys):
        # the mapping looks up a skew for every maturity, so a curve file
        # without rows fails at load
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        write_csv(workdir / "basecorr.csv", ["strike", "beta", "horizon"], [])
        rc = main(["--config", str(workdir / "config.json"), "--mode",
                   "map-basecorr"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / 'basecorr.csv'}: no curves\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("mode", ["calibrate-dynamic", "price-bespoke"])
    def test_non_finite_horizon_names_the_line(self, workdir, capsys, mode):
        # a nan horizon used to surface as a non-finite prior probability
        # (calibrate-dynamic) or as "need at least one constraint"
        rows = prior_el_constraints(workdir / "portfolios.json")
        rows[2][4] = "nan"
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = mode
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG: {workdir / 'constraints.csv'} line 4: horizon "
            "must be finite and > 0, got nan\n")

    @pytest.mark.parametrize("case, mode", [
        ("alpha", "calibrate-static"), ("loading", "calibrate-dynamic"),
        ("weight", "price-bespoke"), ("notional", "price-bespoke"),
        ("maturity", "price-bespoke"), ("frequency", "map-basecorr"),
        ("horizon-0", "calibrate-static"), ("horizon-neg", "price-bespoke"),
        ("notional", "map-basecorr"), ("lattice", "calibrate-static"),
        ("lattice", "price-bespoke"), ("lattice", "map-basecorr"),
        ("grid-size", "calibrate-static"),
        ("grid-size-huge", "calibrate-dynamic"),
        ("home-index", "calibrate-static"), ("one-index", "calibrate-dynamic"),
        ("bespoke-index", "price-bespoke"),
        ("constraint-index", "calibrate-static"),
    ])
    def test_out_of_range_input_is_one_config_line(self, workdir, capsys,
                                                   case, mode):
        # each ended in an OverflowError traceback, a MemoryError traceback
        # (the lattice) or, for the horizons, fitted a model EL of 0 and
        # exited 0; the bespoke notional's error and the last six did not
        # name the file, and the huge grid size printed as int(1e308)
        port, tranches = workdir / "portfolios.json", workdir / "tranches.csv"
        config = workdir / "config.json"
        constraints = prior_el_constraints(port)
        unit = default_loss_unit(*load_portfolios(port)[1].values())
        doc = json.loads(port.read_text())
        cfg = json.loads(config.read_text())
        schedule = [[0.0, 0.1, 3.0, 4, "yearfrac"]]
        if case in ("grid-size", "grid-size-huge"):
            cfg["grid_size"] = [3, -1] if case == "grid-size" else [1e308, 3]
            want = (f"{config}: grid size must be in [1, 64], got "
                    + ("-1" if case == "grid-size" else "1e+308"))
        elif case == "home-index":
            doc["names"][0]["index_id"] = 0
            want = f"{port}: home_index must be 1 or 2, got 0"
        elif case == "one-index":
            for name in doc["names"]:
                name["index_id"] = 1
            want = f"{port}: the dynamic model tracks exactly two indices"
        elif case == "bespoke-index":
            cfg["bespoke"] = {"members": [[-1, "relevant"]]}
            want = f"{config}: bespoke references unknown index -1"
        elif case == "constraint-index":
            constraints[0][0] = 0
            want = (f"{workdir / 'constraints.csv'}: constraints reference "
                    "unknown index ids: [0]")
        elif case == "alpha":
            doc["factor_params"]["alpha"] = 1e308
            want = (f"{port}: 1 + 2*alpha*rho + alpha^2 must be finite and "
                    "positive, got inf")
        elif case == "loading":
            doc["names"][4]["one_factor_loading"] = 1e308
            want = f"{port}: name N1_4: one-factor loading b=1e+308 needs b^2 < 1"
        elif case == "weight":
            doc["names"][4]["notional_weight"] = 1e308
            want = (f"{port}: name N1_4: notional_weight 1e+308 gives inf "
                    f"loss units of {unit}, not a finite number")
        elif case == "notional":  # two relevant names: the sum overflows
            for name in doc["names"][:2]:
                name["notional_weight"] = 1e308
            want = f"{port}: bespoke notional must be finite and > 0, got inf"
        elif case == "lattice":  # finite, but 600,000,002 units of 0.1
            doc["names"][0]["notional_weight"] = 1e8
            want = f"{port}: " + (
                "pool of 6 names needs 600000005 loss units"
                if mode == "map-basecorr" else
                "index 1 needs 600000002 relevant and 3 complement loss "
                "units, 600000005 in all") + \
                ", more than the 4096 a lattice may span"
        elif case in ("maturity", "frequency"):
            schedule[0][2 if case == "maturity" else 3] = \
                1e308 if case == "maturity" else 10**308
            want = (f"{tranches} line 2: maturity * frequency must be at "
                    f"most 100000 coupons, got {schedule[0][2]} * "
                    f"{schedule[0][3]}")
        else:
            constraints[0][4] = "0" if case == "horizon-0" else "-1"
            want = (f"{workdir / 'constraints.csv'} line 2: horizon must be "
                    f"finite and > 0, got {float(constraints[0][4])}")
        port.write_text(json.dumps(doc))
        config.write_text(json.dumps(cfg))
        write_csv(tranches, ["k_low", "k_high", "maturity", "frequency",
                             "daycount"], schedule)
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, constraints)
        with address_space_limit():
            assert main(["--config", str(config), "--mode", mode]) == 1
        assert capsys.readouterr().err == f"ERROR CONFIG: {want}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("field, value, error, message", [
        ("notional_weight", "nan", errors.ConfigurationError,
         "notional_weight must be finite and > 0, got nan"),
        ("one_factor_loading", 1.5, errors.InvalidLoadingError,
         "one-factor loading b=1.5 needs b^2 < 1"),
        ("rho", 1.5, errors.ConfigurationError,
         "rho must lie in (-1, 1), got 1.5"),
    ], ids=["nan-weight", "loading", "rho"])
    def test_portfolio_value_checks_name_the_file(self, workdir, capsys,
                                                  field, value, error,
                                                  message):
        # the value objects name the name (or field) but not the file; the
        # loader adds the file and keeps the error's class and fields
        path = workdir / "portfolios.json"
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(path))
        doc = json.loads(path.read_text())
        if field == "rho":
            doc["factor_params"]["rho"] = value
            want = f"{path}: {message}"
        else:
            doc["names"][4][field] = value
            want = f"{path}: name N1_4: {message}"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as exc:
            load_portfolios(path)
        assert type(exc.value) is error and str(exc.value) == want
        if error is errors.InvalidLoadingError:
            assert exc.value.name_id == "N1_4"
        assert main(["--config", str(workdir / "config.json")]) == 1
        assert capsys.readouterr().err == f"ERROR CONFIG: {want}\n"

    @pytest.mark.parametrize("failure", ["line_search", "max_iter"])
    def test_calibration_error_line_ends_with_gradient_and_iterations(
        self, workdir, monkeypatch, capsys, failure
    ):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        if failure == "line_search":
            # no trial point at all: the first step cannot lower the dual
            monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 0)
            reason = "line search failed to reduce the dual objective"
        else:
            monkeypatch.setattr(
                sys.modules["entropic_bespoke.calibrate"], "newton_minimize",
                functools.partial(solver.newton_minimize, max_iter=1))
            reason = "no convergence within the iteration limit"
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        err = capsys.readouterr().err
        match = re.fullmatch(
            rf"ERROR CALIBRATION: {reason} "
            r"\(grad inf-norm (\S+), iterations 1\)\n", err)
        assert match, err
        assert float(match.group(1)) > 1e-9
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("mode", ["calibrate-static",
                                      "calibrate-dynamic"])
    def test_unattainable_exact_target_fails_before_newton(
        self, workdir, capsys, mode
    ):
        # the three relevant names of index 1 lose at most 0.3 together
        rows = prior_el_constraints(workdir / "portfolios.json")
        assert rows[1][:2] == [1, "relevant_total"]
        rows[1][5:] = ["0.9", "0"]
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        rc = main(["--config", str(workdir / "config.json"), "--mode", mode])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"ERROR CONFIG: exact target 0\.9 of i1:relevant_total is "
            r"outside the attainable range \[0\.0, 0\.3\d*\]\n", err), err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("mode", ["price-bespoke", "map-basecorr"])
    @pytest.mark.parametrize("member, reason", [
        ([2, "relevnt"], "bespoke index 2: bucket must be 'relevant' or "
                         "'complement', got 'relevnt'"),
        ([7, "relevant"], "bespoke references unknown index 7"),
    ], ids=["misspelled-bucket", "unknown-index"])
    def test_bad_bespoke_member_is_a_config_error(self, workdir, capsys, mode,
                                                  member, reason, monkeypatch):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))

        def calibrate(*args, **kwargs):
            pytest.fail("calibrated before the bespoke block was resolved")

        monkeypatch.setattr(cli, "calibrate", calibrate)
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = mode
        cfg["bespoke"] = {"members": [[1, "relevant"], member]}
        (workdir / "config.json").write_text(json.dumps(cfg))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / 'config.json'}: {reason}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("case, message", [
        ("k_low", "constraints.csv line 2: k_low must be a number, got ''"),
        ("target_el",
         "constraints.csv line 2: target_el must be a number, got 'abc'"),
        ("frequency",
         "tranches.csv line 2: frequency must be an integer, got 'four'"),
        ("rho", "portfolios.json: factor_params.rho must be a number, "
                "got 'x'"),
        ("grid_size", "config.json: grid_size must be an integer, got 'a'"),
    ])
    def test_malformed_number_is_a_config_error(self, workdir, capsys, case,
                                                message):
        rows = prior_el_constraints(workdir / "portfolios.json")
        assert rows[0][1] == "tranche"
        if case == "k_low":
            rows[0][2] = ""
        elif case == "target_el":
            rows[0][5] = "abc"
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS, rows)
        if case == "frequency":
            write_csv(workdir / "tranches.csv",
                      ["k_low", "k_high", "maturity", "frequency", "daycount"],
                      [[0.0, 0.1, 3.0, "four", "yearfrac"]])
        if case == "rho":
            doc = json.loads((workdir / "portfolios.json").read_text())
            doc["factor_params"]["rho"] = "x"
            (workdir / "portfolios.json").write_text(json.dumps(doc))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        if case == "grid_size":
            cfg["grid_size"] = ["a", 3]
        (workdir / "config.json").write_text(json.dumps(cfg))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("target, edit, message", [
        ("config.json", lambda doc: [],
         "config.json: the top level must be an object"),
        ("config.json", lambda doc: {**doc, "portfolios": 5},
         "config.json: portfolios must be a string, got 5"),
        ("config.json", lambda doc: {**doc, "constraints": ["c.csv"]},
         "config.json: constraints must be a string, got ['c.csv']"),
        ("config.json", lambda doc: {**doc, "output_dir": 5},
         "config.json: output_dir must be a string, got 5"),
        ("config.json", lambda doc: {**doc, "bespoke": {"members": 5}},
         "config.json: bespoke.members must be a list, got 5"),
        ("config.json", lambda doc: {**doc, "bespoke": {"members": [5]}},
         "config.json: bespoke.members[0] must be a list of 2 items, got 5"),
        ("config.json", lambda doc: {**doc, "bespoke": {
            **doc["bespoke"], "proxy_el_targets": [
                {"index_id": 2, "targets": {"3.0": 0.05}}]}},
         "config.json: bespoke.proxy_el_targets[0].bucket must be a "
         "string, got None"),
        ("config.json", lambda doc: {**doc, "bespoke": {
            **doc["bespoke"], "proxy_el_targets": [
                {"index_id": 2, "bucket": "relevant", "targets": [0.05]}]}},
         "config.json: bespoke.proxy_el_targets[0].targets must be an "
         "object, got [0.05]"),
        ("portfolios.json", lambda doc: [],
         "portfolios.json: the top level must be an object"),
        ("portfolios.json", lambda doc: {**doc, "names": 5},
         "portfolios.json: names must be a list, got 5"),
        ("portfolios.json", lambda doc: {**doc, "names": ["x"]},
         "portfolios.json: names[0] must be an object, got 'x'"),
        ("portfolios.json", lambda doc: {**doc, "factor_params": 5},
         "portfolios.json: factor_params must be an object, got 5"),
        ("portfolios.json", lambda doc: {**doc, "horizons": 5},
         "portfolios.json: horizons must be a list, got 5"),
        ("portfolios.json", lambda doc: {**doc, "names": [
            {**doc["names"][0], "default_probs": 5}, *doc["names"][1:]]},
         "portfolios.json: name N1_0: default_probs must be a list, got 5"),
    ], ids=["config-list", "portfolios-path", "constraints-path",
            "output-dir", "members", "member", "proxy-bucket",
            "proxy-targets", "portfolio-list", "names", "name",
            "factor-params", "horizons", "default-probs"])
    def test_malformed_json_shape_is_a_config_error(self, workdir, capsys,
                                                    target, edit, message):
        # each of these used to exit with a Python traceback
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        (workdir / "config.json").write_text(json.dumps(cfg))
        path = workdir / target
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("exc, code", ERROR_CASES, ids=lambda case:
                             type(case).__name__
                             if isinstance(case, Exception) else None)
    def test_error_line_carries_the_class_code(self, workdir, monkeypatch,
                                               capsys, exc, code):
        def runner(config, reporter):
            raise exc

        assert {type(e) for e, _ in ERROR_CASES} == {
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.EntropicBespokeError)}
        (workdir / "constraints.csv").write_text("")
        monkeypatch.setitem(cli._MODES, "calibrate-static", (runner, ()))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"ERROR {code}: {exc}\n"

    @pytest.mark.parametrize("key", ["solver", "bespoke"])
    def test_non_object_section_is_a_config_error(self, workdir, capsys,
                                                  key):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "price-bespoke"
        cfg[key] = 5
        (workdir / "config.json").write_text(json.dumps(cfg))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        # the solver block is gone: the dual stops at the solver's defaults
        message = {"solver": "unknown key 'solver'",
                   "bespoke": "bespoke must be an object, got 5"}[key]
        assert capsys.readouterr().err == \
            f"ERROR CONFIG: {workdir / 'config.json'}: {message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("settings, message", [
        ({"coarsen": 2.7}, "{config}: coarsen must be an integer, got 2.7"),
        ({"threads": True}, "{config}: threads must be an integer, got True"),
        ({"grid_size": [3.5, 3]},
         "{config}: grid_size must be an integer, got 3.5"),
        ({"persistence": False},
         "{config}: persistence must be a number, got False"),
        ({"loss_unit": 0},
         "{config}: loss_unit must be finite and > 0, got 0.0"),
        ({"loss_unit": -0.05},
         "{config}: loss_unit must be finite and > 0, got -0.05"),
        ({"loss_unit": float("inf")},
         "{config}: loss_unit must be finite and > 0, got inf"),
        ({"threads": -3}, "{config}: threads must be at least 1, got -3"),
        ({"coarsen": 0}, "{config}: coarsening factor must be >= 1, got 0"),
        ({"persistence": 1.5},
         "{config}: persistence must lie in [0, 1], got 1.5"),
        ({"persistence": -0.1},
         "{config}: persistence must lie in [0, 1], got -0.1"),
        ({"mode": "bogus"},
         "{config}: mode must be one of ('calibrate-static', "
         "'calibrate-dynamic', 'price-bespoke', 'map-basecorr'), got 'bogus'"),
        ({"portfolios": ""}, "{config}: config needs a 'portfolios' path"),
        ({"mode": "price-bespoke", "tranches": ""},
         "{config}: mode price-bespoke needs a 'tranches' input"),
        ({"mode": "map-basecorr", "reference_index": 9},
         "{config}: reference index 9 not in the portfolio file"),
        ({"mapping_rule": "foo"},
         "{config}: mapping rule must be one of ('absolute', 'atm', "
         "'probability_matching'), got 'foo'"),
    ], ids=["coarsen", "threads", "grid-size", "persistence", "unit-zero",
            "unit-negative", "unit-inf", "threads-negative", "coarsen-zero",
            "persistence-above-one", "persistence-negative", "mode-unknown",
            "portfolios-empty", "tranches-empty", "reference-index",
            "mapping-rule"])
    def test_bad_option_value_is_a_config_error(self, workdir, capsys,
                                                settings, message):
        # each of these used to run, on a truncated or default value, or
        # fail without naming the config
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        cfg = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**cfg, **settings}))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert capsys.readouterr().err == "ERROR CONFIG: " + \
            message.format(config=workdir / "config.json") + "\n"
        # the output directory is made at the first output, so a run that
        # fails before it leaves none
        assert not (workdir / "out").exists()

    def test_infinite_solver_tol_is_a_config_error(self, workdir, capsys):
        # a solver block once set the dual's tol, and 1e400 (read as inf)
        # made the run exit 0 with the uncalibrated prior; the block is now
        # an unknown key, so a stale one fails instead of running at the
        # defaults
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json", shift=1.1))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["solver"] = {"tol": "TOL"}
        (workdir / "config.json").write_text(
            json.dumps(cfg).replace('"TOL"', "1e400"))
        assert main(["--config", str(workdir / "config.json")]) == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG: {workdir / 'config.json'}: unknown key 'solver'\n")
        assert not (workdir / "out").exists()

    def test_unknown_key_is_a_config_error(self, workdir, capsys):
        # a typo used to run silently on the default; the first unknown key
        # in the file is named
        cfg = json.loads((workdir / "config.json").read_text())
        cfg.update(grid_sise=[3, 3], Threads=2)
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json")]) == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG: {workdir / 'config.json'}: unknown key "
            "'grid_sise'\n")
        assert not (workdir / "out").exists()

    def test_infinite_portfolio_horizon_is_a_config_error(self, workdir,
                                                          capsys):
        path = workdir / "portfolios.json"
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(path))
        doc = json.loads(path.read_text())
        doc["horizons"] = [1.0, "HORIZON"]
        path.write_text(json.dumps(doc).replace('"HORIZON"', "1e400"))
        want = (f"{path}: name N1_0: horizons must be finite, positive and "
                "increasing, got inf")
        with pytest.raises(errors.ConfigurationError) as exc:
            load_portfolios(path)
        assert str(exc.value) == want
        assert main(["--config", str(workdir / "config.json")]) == 1
        assert capsys.readouterr().err == f"ERROR CONFIG: {want}\n"

    def test_invalid_mode(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["mode"] = "explode"
        (workdir / "config.json").write_text(json.dumps(cfg))
        rc = main(["--config", str(workdir / "config.json")])
        assert rc == 1
        assert "ERROR CONFIG" in capsys.readouterr().err


# The mutation table: one bad value, as JSON and as CSV text, at one site
# of the toy inputs, in one mode.  The CSVs each mode reads besides
# config.json and portfolios.json:
_BAD_VALUES = ((math.nan, "nan"), (math.inf, "inf"), (-1, "-1"), (0, "0"),
               (1e308, "1e308"), ("abc", "abc"), (None, ""))
_MODE_CSVS = {
    "calibrate-static": ("constraints.csv",),
    "calibrate-dynamic": ("constraints.csv",),
    "price-bespoke": ("constraints.csv", "discount.csv", "tranches.csv"),
    "map-basecorr": ("discount.csv", "tranches.csv", "basecorr.csv"),
}


def numeric_leaves(doc, path=()):
    """The paths of the numbers in a JSON document, booleans excluded."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items
                for leaf in numeric_leaves(value, (*path, key))]
    is_number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return [path] if is_number else []


def mutation_table(workdir):
    """Every (mode, file, site, bad value): each numeric leaf of config.json
    and of portfolios.json, whose names count only by the first of each
    index, and each cell of the first data row of each CSV the mode
    reads."""
    port = json.loads((workdir / "portfolios.json").read_text())
    firsts = {}
    for k, name in enumerate(port["names"]):
        firsts.setdefault(name["index_id"], k)
    sites = {
        "config.json": numeric_leaves(
            json.loads((workdir / "config.json").read_text())),
        "portfolios.json": [leaf for leaf in numeric_leaves(port)
                            if leaf[0] != "names" or leaf[1] in
                            firsts.values()],
    }
    for name in sorted(set(chain(*_MODE_CSVS.values()))):
        with open(workdir / name, newline="") as fh:
            sites[name] = list(range(len(list(csv.reader(fh))[1])))
    return [(mode, name, site, bad) for mode, csvs in _MODE_CSVS.items()
            for name in ("config.json", "portfolios.json", *csvs)
            for site in sites[name] for bad in _BAD_VALUES]


def run_mutated(base, case_dir, mode, name, site, bad):
    """Run `mode` in process on a copy of the inputs in `base` with one
    mutation, under an address-space limit; returns (exit status, the
    output directory)."""
    shutil.copytree(base, case_dir)
    path = case_dir / name
    if name.endswith(".json"):
        doc = json.loads(path.read_text())
        *parents, key = site
        functools.reduce(operator.getitem, parents, doc)[key] = bad[0]
        path.write_text(json.dumps(doc))
    else:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        rows[0][site] = bad[1]
        write_csv(path, header, rows)
    out = case_dir / "out"
    with address_space_limit():
        status = main(["--config", str(case_dir / "config.json"),
                       "--mode", mode, "--out", str(out)])
    return status, out


class TestMutatedInputs:
    def test_a_run_exits_0_or_prints_one_error_line(
            self, workdir, tmp_path_factory, capsys):
        # every row of the mutation table (826 runs in process, about 2 s):
        # no input may end in a traceback, and a run that fails leaves one
        # ERROR line and no outputs (a warning line may precede it)
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        cases = mutation_table(workdir)
        assert len(cases) == 826
        cases_dir = tmp_path_factory.mktemp("mutated")
        for n, case in enumerate(cases):
            try:
                status, out = run_mutated(workdir, cases_dir / str(n), *case)
            except Exception as exc:  # a traceback at the command line
                pytest.fail(f"{case}: {exc!r}")
            lines = capsys.readouterr().err.splitlines()
            errors_ = [line for line in lines if line.startswith("ERROR ")]
            assert all(line.startswith("warning: ") for line in lines
                       if line not in errors_), (case, lines)
            if status == 0:
                assert not errors_ and (out / "manifest.json").is_file(), case
            else:
                assert status == 1 and len(errors_) == 1, (case, lines)
                assert not out.exists(), case


class TestConfig:
    def test_numbers_convert_but_booleans_and_fractions_do_not(self):
        read = functools.partial(fmt.parse_field, "f.json", "x")
        assert [read(v, int) for v in (2, 2.0, "2", -3)] == [2, 2, 2, -3]
        assert [read(v) for v in (0.5, 1, "0.25")] == [0.5, 1.0, 0.25]
        for value, kind in [(2.7, int), ("2.7", int), (True, int),
                            (False, float), (float("inf"), int), (None, float)]:
            with pytest.raises(errors.ConfigurationError,
                               match=r"^f\.json: x must be "):
                read(value, kind)

    def test_relative_paths_resolve_against_config(self, workdir):
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json"))
        cfg = RunConfig.from_file(workdir / "config.json")
        assert cfg.portfolios == workdir / "portfolios.json"
        assert cfg.output_dir == workdir / "out"


# scipy.special alone pulls in numpy.f2py, numpy.testing and
# charset_normalizer through its array-API backends
HEAVY_MODULES = ("scipy", "numpy.f2py", "numpy.testing", "charset_normalizer")


def test_every_config_key_has_a_row_in_the_docs():
    # a config key cannot ship undocumented: each key a config may set has
    # a row in the run-config table of docs/file_formats.md
    text = (Path(__file__).parents[1] / "docs" / "file_formats.md").read_text()
    section = text.split("### Run config (JSON)\n")[1].split("\n#")[0]
    documented = {key for line in section.splitlines() if line.startswith("|")
                  for key in re.findall(r"`([^`]+)`", line.split("|")[1])}
    keys = set(cli._KEYS)
    assert len(keys) == 15 and keys <= documented, keys - documented


@pytest.mark.parametrize("mode", cli.MODES)
def test_every_output_has_a_section_in_the_docs(workdir, mode):
    # an output file cannot ship undocumented: each file a toy run of a mode
    # writes has a `###` heading under `## Outputs` of docs/file_formats.md
    text = (Path(__file__).parents[1] / "docs" / "file_formats.md").read_text()
    section = text.split("\n## Outputs\n")[1].split("\n## ")[0]
    documented = {name for line in section.splitlines()
                  if line.startswith("### ")
                  for name in re.findall(r"[\w.]+\.\w+", line)}
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["mode"] = mode
    if mode == "calibrate-dynamic":
        cfg["grid_size"] = [3, 3]
    write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
              prior_el_constraints(workdir / "portfolios.json",
                                   grid_size=tuple(cfg["grid_size"]),
                                   shift=1.1))
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert main(["--config", str(workdir / "config.json")]) == 0
    outputs = json.loads((workdir / "out" / "manifest.json").read_text())[
        "outputs"]
    assert len(outputs) >= 2
    assert {*outputs, "manifest.json"} <= documented, \
        {*outputs, "manifest.json"} - documented


def heavy_modules_loaded(config):
    """Run the CLI on `config` in a fresh interpreter.  Return the heavy
    modules loaded by `import entropic_bespoke.cli`, the exit code of
    `main` and the heavy modules loaded after it."""
    src = str(Path(eb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = f"sorted(m for m in sys.modules if m.startswith({HEAVY_MODULES!r}))"
    code = ("import json, sys, entropic_bespoke.cli; "
            f"after_import = {loaded}; "
            f"code = entropic_bespoke.cli.main(['--config', {str(config)!r}]); "
            f"print(json.dumps([after_import, code, {loaded}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return tuple(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("mode, rule", [
    ("price-bespoke", None),
    ("calibrate-dynamic", None),
    ("map-basecorr", "probability_matching"),
    ("map-basecorr", "atm"),
    ("map-basecorr", "absolute"),
])
def test_cli_modes_load_no_scipy(workdir, mode, rule):
    # only the factor-only convex-hull check and implied_base_correlation,
    # which no mode calls, import scipy (lazily)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["mode"] = mode
    if mode == "map-basecorr":
        cfg["mapping_rule"] = rule
        del cfg["constraints"]
    else:
        grid = (3, 3) if mode == "calibrate-dynamic" else (4, 4)
        cfg["grid_size"] = list(grid)
        write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
                  prior_el_constraints(workdir / "portfolios.json",
                                       grid_size=grid, shift=1.1))
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert heavy_modules_loaded(workdir / "config.json") == ([], 0, [])
    written = {"price-bespoke": "tranche_prices.csv",
               "calibrate-dynamic": "dynamic_states.csv",
               "map-basecorr": "mapped_strikes.csv"}[mode]
    assert (workdir / "out" / written).exists()
    if mode == "map-basecorr":
        rows = read_rows(workdir / "out" / "mapped_strikes.csv")
        assert {r["rule"] for r in rows} == {rule}


def test_import_builds_no_formatter_tables():
    # the dump formatter's tables are built on first use, so import time
    # (the benchmark's setup_s) does not pay for them
    src = str(Path(eb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import entropic_bespoke.cli; "
            "from entropic_bespoke import io; "
            "print(io._e16_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["0"]


def test_benchmark_trace_hooks_still_find_their_names():
    # the traced benchmark run wraps these functions and class-level
    # methods by name; a rename or a move to a base class breaks it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src"), str(root / "perfbench"),
                *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import entropic_bespoke.cli, tracing; "
            "tracing.Tracer('hooks').install()")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_benchmark_trace_names_resolve_without_the_tracer():
    # every module-level FUNCTIONS entry of perfbench/tracing.py is an
    # attribute of its module, and every METHODS entry sits in its class's
    # own __dict__, where the tracer looks it up and wraps it; its
    # propagate_marginal hook reads a state's `probs`, and the library run
    # of perfbench/child.py sizes its grids by a `LossGrid` probe
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for _, module, attr in tracing.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    missing += [
        f"{module}.{cls}.{attr}" for _, module, cls, attr in tracing.METHODS
        if attr not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert not missing
    assert hasattr(eb.DynamicState, "probs")
    names = toy_portfolio(1, 3, 3).names
    probe = LossGrid(unit=0.05, max_units=10**9)
    assert [name_loss_units(n, probe) for n in names] == \
        [name_loss_units(n, 0.05) for n in names] == [2] * 6


def test_benchmark_trace_hook_counts_the_last_states_rows(tmp_path):
    # the traced benchmark run counts the rows of the last propagated
    # state through its propagate_marginal hook, which reads
    # `len(state.probs)`; run here as `perfbench/run.py --trace 1` runs it
    write_portfolios(tmp_path / "portfolios.json", n_names=4)
    write_csv(tmp_path / "constraints.csv", CONSTRAINT_COLUMNS,
              prior_el_constraints(tmp_path / "portfolios.json",
                                   grid_size=(3, 3), shift=1.1))
    (tmp_path / "config.json").write_text(json.dumps({
        "mode": "calibrate-dynamic", "portfolios": "portfolios.json",
        "constraints": "constraints.csv", "grid_size": [3, 3],
        "output_dir": "out"}))
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src"), str(root / "perfbench"),
                *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, entropic_bespoke.cli as cli, tracing; "
            "tracer = tracing.Tracer('hook'); tracer.install(); "
            "assert cli.main(['--config', sys.argv[1]]) == 0; "
            "print(tracer.counts['dynamic.state_rows'])")
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "config.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "out" / "dynamic_states.csv", newline="") as f:
        periods = [int(row["period"]) for row in csv.DictReader(f)]
    assert int(out.stdout) == periods.count(max(periods)) > 0


def test_blas_thread_count_moves_results_within_tolerance(workdir):
    # the static dual's matrix products may change the last digits with
    # the BLAS thread count; docs/file_formats.md states the tolerance
    write_csv(workdir / "constraints.csv", CONSTRAINT_COLUMNS,
              prior_el_constraints(workdir / "portfolios.json", shift=1.1))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["mode"] = "price-bespoke"
    (workdir / "config.json").write_text(json.dumps(cfg))
    src = str(Path(eb.__file__).resolve().parents[1])
    tables = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = workdir / f"blas{threads}"
        subprocess.run([sys.executable, "-m", "entropic_bespoke.cli",
                        "--config", str(workdir / "config.json"),
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        tables[threads] = {name: read_rows(out / name) for name in
                           ("calibration_residuals.csv",
                            "factor_distribution.csv")}
    for name, rows in tables["1"].items():
        other = tables["2"][name]
        assert len(rows) == len(other) > 0
        for row, row2 in zip(rows, other):
            assert row.keys() == row2.keys()
            for key, text in row.items():
                if key == "constraint":
                    assert text == row2[key]
                    continue
                a, b = float(text), float(row2[key])
                assert abs(a - b) <= 1e-7 * max(abs(a), abs(b)) + 1e-15, \
                    (name, key, text, row2[key])
