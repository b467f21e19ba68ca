"""Process-side half of the benchmark; every call runs in a fresh interpreter
started by run.py with PYTHONPATH pointing at the checkout's `src`.

    child.py setup  WORKLOAD INPUTS          import + load and validate inputs
    child.py lib    WORKLOAD INPUTS OUT      library pipeline (no file dump)
    child.py traced WORKLOAD INPUTS OUT SPANS  traced CLI or library run

Untraced CLI runs do not use this file: run.py starts
`python -m entropic_bespoke.cli` directly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LIB_WORKLOAD = "static-lib-30x30"


def load_inputs(workload: str, inputs: Path):
    """Load and validate every input file through the package readers."""
    from entropic_bespoke import io
    from entropic_bespoke.cli import RunConfig

    config_path = inputs / "config.json"
    doc = json.loads(config_path.read_text())
    if workload != LIB_WORKLOAD:
        RunConfig.from_file(config_path)
    io.load_portfolios(inputs / doc["portfolios"])
    readers = (("constraints", io.load_constraints),
               ("discount_curve", io.load_discount_curve),
               ("tranches", io.load_tranches),
               ("base_correlation", io.load_basecorr_curves))
    for key, reader in readers:
        if key in doc:
            reader(inputs / doc[key])


def run_library(inputs: Path, out: Path):
    """The static pipeline as a desk would call it in process:
    grid -> priors -> calibrate per horizon -> bespoke law -> tranche legs."""
    import entropic_bespoke as eb
    from entropic_bespoke import io
    from entropic_bespoke.loss import name_loss_units

    doc = json.loads((inputs / "config.json").read_text())
    params, ports, _ = io.load_portfolios(inputs / doc["portfolios"])
    constraints = io.load_constraints(inputs / doc["constraints"])
    curve = io.load_discount_curve(inputs / doc["discount_curve"])
    tranches = io.load_tranches(inputs / doc["tranches"])

    grid = eb.build_market_grid(*doc["grid_size"], params)
    unit = eb.default_loss_unit(*ports.values())
    probe = eb.LossGrid(unit=unit, max_units=10**9)
    loss_grids = {
        i: eb.LossGrid(unit=unit, max_units=sum(
            name_loss_units(n, probe) for n in p.names))
        for i, p in ports.items()
    }
    results = {}
    for t in sorted({c.horizon for c in constraints}):
        priors = {
            i: eb.build_conditional_prior(p, grid, loss_grids[i], t, params)
            for i, p in sorted(ports.items())
        }
        results[t] = eb.calibrate(grid, priors,
                                  [c for c in constraints if c.horizon == t])
    members = tuple((int(i), str(b)) for i, b in doc["bespoke"]["members"])
    notional = sum(n.notional_weight for i, b in members
                   for n in ports[i].bucket_names(b))
    spec = eb.BespokeSpec(members=members, notional=notional)
    dists = eb.bespoke_loss_dist(results, spec)
    prices = [eb.price_tranche(dists, tr, curve) for tr in tranches]

    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "horizons": [
            {
                "horizon": t,
                "index_ids": [c.index_id for c in r.constraints],
                "labels": [c.label() for c in r.constraints],
                "targets": [c.target_el for c in r.constraints],
                "sigmas": [c.sigma for c in r.constraints],
                "model_els": r.model_els.tolist(),
                "residuals": r.residuals.tolist(),
                "lambdas": r.lambdas.tolist(),
                "iterations": r.iterations,
                "kl_to_prior": r.kl_to_prior(),
                "bespoke_el": dists[t].mean(),
            }
            for t, r in sorted(results.items())
        ],
        "prices": [
            {"k_low": p.tranche.k_low, "k_high": p.tranche.k_high,
             "maturity": p.tranche.maturity,
             "par_spread_bp": p.par_spread_bp,
             "risky_annuity": p.risky_annuity, "default_leg": p.default_leg}
            for p in prices
        ],
    }
    (out / "library_result.json").write_text(json.dumps(summary, indent=1))


def run_workload(workload: str, inputs: Path, out: Path) -> int:
    if workload == LIB_WORKLOAD:
        run_library(inputs, out)
        return 0
    from entropic_bespoke.cli import main
    return main(["--config", str(inputs / "config.json"), "--out", str(out)])


def main(argv: list[str]) -> int:
    command, workload, inputs = argv[0], argv[1], Path(argv[2])
    if command == "setup":
        import entropic_bespoke.cli  # import is part of set-up
        load_inputs(workload, inputs)
        print(entropic_bespoke.cli.__file__)
        return 0
    if command == "lib":
        run_library(inputs, Path(argv[3]))
        return 0
    if command == "traced":
        out, spans_path = Path(argv[3]), Path(argv[4])
        start = time.perf_counter()
        import entropic_bespoke.cli  # noqa: F401
        import_s = time.perf_counter() - start
        from tracing import Tracer
        tracer = Tracer(run_id=f"{workload}:{out.name}")
        tracer.install()
        status = run_workload(workload, inputs, out)
        tracer.dump(spans_path, import_s=import_s, status=status)
        return status
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
