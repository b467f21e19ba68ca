"""Tests of the benchmark itself: input generation, span arithmetic and the
answer checks.  Run with `PYTHONPATH=src python -m pytest perfbench/tests`."""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 11])
def test_same_seed_gives_identical_bytes(tmp_path, workload, seed):
    workloads.generate(workload, seed, tmp_path / "a")
    workloads.generate(workload, seed, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_default_seed_is_the_hazard_ladder_and_seeds_keep_sizes(tmp_path):
    base = workloads.generate("static-price-10x10", 0, tmp_path / "base")
    other = workloads.generate("static-price-10x10", 11, tmp_path / "other")
    docs = [json.loads((p.parent / "portfolios.json").read_text())
            for p in (base, other)]
    first = docs[0]["names"][0]
    hazard = 0.004 + 0.0004 * 124
    assert first["bucket"] == "relevant"
    assert first["one_factor_loading"] == 0.5
    assert first["default_probs"][-1] == pytest.approx(
        1.0 - math.exp(-hazard * 5.0), rel=1e-15)

    def shape(doc):
        return sorted((n["index_id"], n["bucket"]) for n in doc["names"])

    assert shape(docs[0]) == shape(docs[1])
    assert docs[0]["names"] != docs[1]["names"]
    rows = [checks.read_rows(p.parent / "constraints.csv") for p in (base, other)]
    assert len(rows[0]) == len(rows[1]) == 14 * len(workloads.HORIZONS)
    assert [(r["index_id"], r["kind"], r["k_low"], r["horizon"]) for r in rows[0]] \
        == [(r["index_id"], r["kind"], r["k_low"], r["horizon"]) for r in rows[1]]


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6]; a has child c [2, 3]
    spans = [
        [0, "root", None, 0.0, 10.0],
        [1, "a", 0, 1.0, 4.0],
        [2, "c", 1, 2.0, 3.0],
        [3, "b", 0, 3.0, 6.0],
    ]
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(5.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(3.0)}


def test_nested_same_name_counts_calls_but_not_time_twice():
    spans = [
        [0, "x", None, 0.0, 5.0],
        [1, "x", 0, 1.0, 2.0],
        [2, "y", None, 6.0, 7.5],
    ]
    totals, calls = tracing.layer_totals(spans)
    assert totals == {"x": pytest.approx(5.0), "y": pytest.approx(1.5)}
    assert calls == {"x": 2, "y": 1}
    assert tracing.self_by_name(spans)["x"] == pytest.approx(5.0)


@pytest.fixture
def small_static_run(tmp_path, monkeypatch):
    """The static-price workload shrunk to 10-name indices, run through
    the CLI in process."""
    from entropic_bespoke.cli import main

    monkeypatch.setattr(workloads, "STATIC_INDEX", dict(
        n_names=10, n_relevant=4, base_hazard=0.01, hazard_step=0.004,
        loading=0.5))
    config = workloads.generate("static-price-10x10", 3, tmp_path / "inputs")
    doc = json.loads(config.read_text())
    doc["grid_size"] = [4, 4]
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    return config.parent, out


def _bump_first_spread(out: Path, delta_bp: float):
    path = out / "tranche_prices.csv"
    rows = checks.read_rows(path)
    rows[0]["par_spread_bp"] = "%.1f" % (float(rows[0]["par_spread_bp"]) + delta_bp)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checks_accept_program_output(small_static_run):
    inputs, out = small_static_run
    failures, fingerprint = checks.check_run("static-price-10x10", inputs, out,
                                             None)
    assert failures == []
    assert len(fingerprint["par_spread_bp"]) == 6


def test_checks_reject_par_spread_moved_by_one_bp(small_static_run):
    inputs, out = small_static_run
    _, fingerprint = checks.check_run("static-price-10x10", inputs, out, None)
    moved = dict(fingerprint, par_spread_bp=[fingerprint["par_spread_bp"][0]
                                             + 1.0,
                                             *fingerprint["par_spread_bp"][1:]])
    assert checks.compare_reference(fingerprint, fingerprint) == []
    assert checks.compare_reference(moved, fingerprint)
    _bump_first_spread(out, 1.0)
    failures, _ = checks.check_run("static-price-10x10", inputs, out,
                                   fingerprint)
    assert any("par spread" in f for f in failures)


def test_missing_output_is_a_failure_not_an_error(small_static_run):
    inputs, out = small_static_run
    (out / "tranche_prices.csv").unlink()
    failures, _ = checks.check_run("static-price-10x10", inputs, out, None)
    assert failures and failures[0].startswith("output unreadable")
