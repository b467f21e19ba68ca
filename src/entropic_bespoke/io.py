"""File formats: portfolio JSON, constraint/curve/tranche CSVs, measure
dumps.  Column layouts are documented in docs/file_formats.md; diagnostic
numbers are written with 10 significant digits, measure dumps and factor
weights with 17 (so a reload reprices bit-identically).  The 17-digit text
comes from one vectorized formatter, `_g17`, whose bytes are identical to
`'%.17g' % x`; it falls back to that, one value at a time, for zero,
negative, non-finite and near-tie values.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .basecorr import BaseCorrCurve
from .calibrate import PricingConstraint, DEFAULT_SIGMA
from .errors import ConfigurationError
from .pricing import BespokeSpec, DiscountCurve, TrancheSpec
from .prior import COMPLEMENT, RELEVANT, FactorParams, IndexPortfolio, NameSpec

NUM = "%.10g"

# Rows per text block of a streamed dump; bounds the text held in memory.
_BLOCK_ROWS = 1 << 16

CONSTRAINT_COLUMNS = ["index_id", "kind", "k_low", "k_high", "horizon",
                      "target_el", "sigma"]
_CSV_KINDS = {"tranche", "relevant_total", "complement_total"}


def _fmt(value: float) -> str:
    return NUM % float(value)


def parse_field(where, field: str, value, kind: type = float):
    """`kind(value)` (float or int) for one input field; a value that does
    not convert is a ConfigurationError naming `where` and the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(
            f"{where}: {field} must be {what}, got {value!r}") from exc


def _csv_rows(path: str | Path, header: list[str]) -> Iterator[tuple[str, dict]]:
    """(where, row) per row of a CSV file whose header must be `header`;
    `where` names the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ConfigurationError(f"{path}: header must be {','.join(header)}")
        for row in reader:
            yield f"{path} line {reader.line_num}", row


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
        params = FactorParams(*(parse_field(path, f"factor_params.{k}", fp[k])
                                for k in ("rho", "alpha")))
        horizons = [parse_field(path, "horizons", t) for t in doc["horizons"]]
        names: dict[int, list[NameSpec]] = {}
        for rec in doc["names"]:
            where = f"{path}: name {rec.get('id')}"
            probs = [parse_field(where, "default_probs", p)
                     for p in rec["default_probs"]]
            if len(probs) != len(horizons):
                raise ConfigurationError(
                    f"{path}: name {rec.get('id')} has {len(probs)} default "
                    f"probabilities for {len(horizons)} horizons"
                )
            name = NameSpec(
                id=str(rec["id"]),
                index_id=parse_field(where, "index_id", rec["index_id"], int),
                bucket=str(rec["bucket"]),
                default_prob_curve=tuple(zip(horizons, probs)),
                **{key: parse_field(where, key, rec[key]) for key in
                   ("recovery", "notional_weight", "one_factor_loading")},
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
    for where, row in _csv_rows(path, CONSTRAINT_COLUMNS):
        def num(field, kind=float):
            return parse_field(where, field, row[field], kind)

        kind = row["kind"].strip()
        if kind not in _CSV_KINDS:
            raise ConfigurationError(
                f"{path}: kind must be one of {sorted(_CSV_KINDS)}"
            )
        common = dict(
            index_id=num("index_id", int),
            horizon=num("horizon"),
            target_el=num("target_el"),
            sigma=num("sigma") if row["sigma"].strip() else DEFAULT_SIGMA,
        )
        if kind == "tranche":
            out.append(PricingConstraint(
                kind="tranche", k_low=num("k_low"), k_high=num("k_high"),
                **common,
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
    for where, row in _csv_rows(path, ["time", "discount_factor"]):
        times.append(parse_field(where, "time", row["time"]))
        factors.append(parse_field(where, "discount_factor",
                                   row["discount_factor"]))
    return DiscountCurve(times=tuple(times), factors=tuple(factors))


_TRANCHE_FIELDS = {"k_low": float, "k_high": float, "maturity": float,
                   "frequency": int}


def load_tranches(path: str | Path) -> list[TrancheSpec]:
    out = []
    for where, row in _csv_rows(path, [*_TRANCHE_FIELDS, "daycount"]):
        if row["daycount"].strip() not in ("", "yearfrac"):
            raise ConfigurationError(
                f"{path}: daycount supports only 'yearfrac'"
            )
        out.append(TrancheSpec.with_schedule(**{
            field: parse_field(where, field, row[field], kind)
            for field, kind in _TRANCHE_FIELDS.items()
        }))
    if not out:
        raise ConfigurationError(f"{path}: no tranches")
    return out


def load_basecorr_curves(path: str | Path) -> dict[float, BaseCorrCurve]:
    """One curve per horizon from rows (strike, beta, horizon)."""
    pillars: dict[float, list[tuple[float, float]]] = {}
    header = ["strike", "beta", "horizon"]
    for where, row in _csv_rows(path, header):
        strike, beta, horizon = (parse_field(where, field, row[field])
                                 for field in header)
        pillars.setdefault(horizon, []).append((strike, beta))
    out = {}
    for t, pts in sorted(pillars.items()):
        pts.sort()
        out[t] = BaseCorrCurve(
            strikes=tuple(k for k, _ in pts), betas=tuple(b for _, b in pts)
        )
    return out


def parse_bespoke_spec(doc: dict, notional: float) -> BespokeSpec:
    members = tuple((parse_field("bespoke", "members", i, int), str(b))
                    for i, b in doc.get("members", []))
    proxy, where = [], "bespoke proxy_el_targets"
    for item in doc.get("proxy_el_targets", []):
        ref = (parse_field(where, "index_id", item["index_id"], int),
               str(item["bucket"]))
        curve = tuple(sorted(
            ((parse_field(where, "targets", t),
              parse_field(where, "targets", el))
             for t, el in item["targets"].items()), key=lambda te: te[0]))
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


# -- 17-digit text --------------------------------------------------------
#
# `_g17` gives the bytes of `'%.17g' % v` for a whole float64 array.  A
# positive finite v = mant * 2**e (mant in [1, 2)) is scaled by the
# correctly rounded double-double T(e) = 2**e * 10**(16 - X0(e)), where
# X0(e) = floor(log10(2**e)), so that mant * T(e) lies in [1e16, 2e17).  The
# product, exact to far below 1e-9, rounds half-even to the 17 significant
# digits; when that reaches 1e17 the value's decimal exponent is X0 + 1 and
# T(e) / 10 is used instead.  The digits are then laid out by the `%g`
# rules.  Zero, negative and non-finite values, and values whose product is
# within `_TIE_MARGIN` of a rounding tie, are formatted by `'%.17g' % v`
# itself, so every byte equals `%`.

_G17_WIDTH = 24  # the longest text, '-2.2250738585072014e-308'
_TIE_MARGIN = 1e-9
_EXP_MIN = -1074  # binary exponent of the smallest subnormal
_X_OFFSET = 400  # decimal exponents index their tables at X + 400

# A value's source row: 28 bytes (seven uint32 words) holding the first
# digit, '0', '.', 'e', the other 16 digits, the exponent as '%+04d' and
# NUL padding.  `_g17_layout` picks bytes from it.
_SRC_D0, _SRC_ZERO, _SRC_DOT, _SRC_E, _SRC_DIGITS = 0, 1, 2, 3, 4
_SRC_SIGN, _SRC_NUL, _SRC_WORDS = 20, 24, 7
_SRC_HEAD = int.from_bytes(b"00.e", "little")  # first word, less d0


def _g17_layout(x: int, s: int) -> list[int]:
    """Source-row byte of each output byte of `'%.17g'` for a value with
    decimal exponent `x` and `s` significant digits (trailing zeros of the
    17 dropped)."""
    digits = [_SRC_D0] + list(range(_SRC_DIGITS, _SRC_DIGITS + 16))
    if 0 <= x < 17:
        text = digits[:x + 1]
        if s > x + 1:
            text += [_SRC_DOT] + digits[x + 1:s]
    elif -4 <= x < 0:
        text = [_SRC_ZERO, _SRC_DOT] + [_SRC_ZERO] * (-x - 1) + digits[:s]
    else:
        text = digits[:1]
        if s > 1:
            text += [_SRC_DOT] + digits[1:s]
        exponent = [_SRC_SIGN + 1] if abs(x) >= 100 else []
        text += [_SRC_E, _SRC_SIGN, *exponent, _SRC_SIGN + 2, _SRC_SIGN + 3]
    return text + [_SRC_NUL] * (_G17_WIDTH - len(text))


@functools.cache
def _g17_tables() -> dict[str, np.ndarray]:
    """Read-only lookup tables of `_g17`, built on first use from exact
    integer arithmetic.  `scale[up][:, e - _EXP_MIN]` is T(e) / 10**up as
    t0 + t1 + t2: the 26-bit halves of its nearest double, then the
    nearest double to the rest."""
    x0 = np.array([len(str(1 << e)) - 1 if e >= 0 else -len(str(1 << -e))
                   for e in range(_EXP_MIN, 1024)])
    pow5 = {}  # 10**k = 2**k * 5**k; the power of two scales exactly
    for k in range(16 - int(x0[-1]) - 1, 16 - int(x0[0]) + 1):
        num, den = (5**k, 1) if k >= 0 else (1, 5**-k)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        pow5[k] = hi, (num * b - a * den) / (den * b)
    scale = []
    for up in (0, 1):
        hi, lo = np.array([[math.ldexp(v, e + 16 - up - x)
                            for v in pow5[16 - up - x]]
                           for e, x in zip(range(_EXP_MIN, 1024),
                                           x0.tolist())]).T
        split = 134217729.0 * hi  # Dekker: hi as two 26-bit halves
        top = split - (split - hi)
        scale.append((top, hi - top, lo))
    # layout rows: fixed notation for X in -4..16, then the exponent form
    # with two and with three exponent digits
    classes = [*range(-4, 17), 17, 100]
    layout = np.array([_g17_layout(x, s) for x in classes
                       for s in range(1, 18)], dtype=np.intp)
    xs = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    layout_class = np.where((xs >= -4) & (xs < 17), xs + 4,
                            np.where(np.abs(xs) >= 100, 22, 21))
    four = np.arange(10000)
    powers = 10 ** np.arange(4)
    tables = {
        "scale": np.array(scale),
        "x0": x0,
        "layout": layout,
        "layout_row": layout_class * 17 - 1,  # + s gives the layout row
        "digits4": (four[:, None] // powers[::-1] % 10 + ord("0"))
        .astype(np.uint8).view("<u4").ravel(),
        "zeros4": sum(four % (10 * p) == 0 for p in powers),
        "exponent": np.frombuffer(b"".join(b"%+04d" % x for x in xs),
                                  dtype="<u4"),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(mant, t0, t1, t2):
    """Integer part and fraction of mant * (t0 + t1 + t2): Dekker's exact
    product of mant (split at 2**-26) and t0 + t1, plus mant * t2."""
    mh = np.floor(mant * 67108864.0) * (1.0 / 67108864.0)
    ml = mant - mh
    p = mant * (t0 + t1)  # an integer: p >= 1e16 > 2**53
    lo = ((mh * t0 - p) + mh * t1 + ml * t0) + ml * t1 + mant * t2
    floor = np.floor(lo)
    return p.astype(np.int64) + floor.astype(np.int64), lo - floor


def _g17_digits(values: np.ndarray):
    """The 17 significant digits of each float64 of `values` as an integer
    in [1e16, 1e17), its decimal exponent, and a mask of the values that
    `'%.17g' %` must format instead: zero, negative or non-finite, or
    within `_TIE_MARGIN` of a rounding tie."""
    t = _g17_tables()
    fast = np.isfinite(values) & (values > 0.0)
    mant, e = np.frexp(np.where(fast, values, 1.0))
    mant *= 2.0
    j = e - 1 - _EXP_MIN
    exponent = t["x0"].take(j)
    sig, frac = _scaled(mant, *(row.take(j) for row in t["scale"][0]))
    near_tie = np.abs(frac - 0.5) <= _TIE_MARGIN
    sig += frac > 0.5
    up = np.flatnonzero(sig >= 10**17)  # 18 digits: T(e) / 10 gives the 17
    near_tie[up] &= sig[up] == 10**17  # a tie that made the 18th digit
    sig_up, frac = _scaled(mant[up], *(row.take(j[up])
                                       for row in t["scale"][1]))
    sig[up] = sig_up + (frac > 0.5)
    exponent[up] += 1
    near_tie[up] |= np.abs(frac - 0.5) <= _TIE_MARGIN
    slow = ~fast | near_tie
    return sig, exponent, slow


def _g17(values: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` for each float64 of `values`, as the rows of an
    (n, 24) uint8 matrix, left aligned and padded with NUL bytes."""
    t = _g17_tables()
    values = np.asarray(values, dtype=np.float64)
    sig, exponent, slow = _g17_digits(values)
    # the digits as d0 and four groups of four, and trailing zeros by group
    high, low = np.divmod(sig, 10**8)
    d0, high = np.divmod(high, 10**8)
    groups = [*np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    src = np.empty((len(values), _SRC_WORDS), dtype="<u4")
    src[:, 0] = d0 + _SRC_HEAD
    for col, group in enumerate(groups, start=1):
        src[:, col] = t["digits4"].take(group)
    src[:, 5] = t["exponent"].take(exponent + _X_OFFSET)
    src[:, 6] = 0
    zeros = np.zeros(len(values), dtype=np.int64)
    run = np.ones(len(values), dtype=bool)
    for group in reversed(groups):
        zeros += run * t["zeros4"].take(group)
        run &= group == 0
    rows = t["layout_row"].take(exponent + _X_OFFSET) + (17 - zeros)
    index = t["layout"].take(rows, axis=0)
    row_bytes = 4 * _SRC_WORDS
    index += np.arange(0, len(values) * row_bytes, row_bytes)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    for r in np.flatnonzero(slow).tolist():
        text = b"%.17g" % values[r]
        out[r] = 0
        out[r, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _g17_text(values: np.ndarray) -> list[str]:
    """`'%.17g' % v` for each v of `values`."""
    text = _g17(values).view(f"S{_G17_WIDTH}").ravel()
    return [v.decode("ascii") for v in text.tolist()]


def _int_text(values: np.ndarray) -> np.ndarray:
    """Decimal text of non-negative integers as the rows of a uint8 matrix,
    right aligned and padded with NUL bytes."""
    digits4 = _g17_tables()["digits4"]
    width = len(str(int(values.max()) if len(values) else 0))
    words = np.empty((len(values), -(-width // 4)), dtype="<u4")
    rest = values
    for col in range(words.shape[1] - 1, -1, -1):
        rest, group = np.divmod(rest, 10**4)
        words[:, col] = digits4.take(group)
    text = words.view(np.uint8)[:, 4 * words.shape[1] - width:]
    powers = 10 ** np.arange(width - 1, 0, -1)
    text[:, :-1][values[:, None] < powers] = 0  # leading zeros
    return text


def _text_blocks(prefix: str, columns: Sequence[np.ndarray],
                 values: np.ndarray) -> Iterator[str]:
    """CSV text of the rows `prefix`, then the integers of `columns`
    (non-negative), then `'%.17g' % value`, in blocks of at most
    `_BLOCK_ROWS` rows.  `prefix` holds the leading fields shared by every
    row, formatted once; the fields must never need quoting.  Each block is
    a NUL-padded uint8 matrix, one row per line, with the NULs dropped."""
    head = np.frombuffer(prefix.encode(), dtype=np.uint8)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        fields = [_int_text(column[block]) for column in columns]
        fields.append(_g17(values[block]))
        width = len(head) + sum(f.shape[1] + 1 for f in fields)
        rows = np.empty((len(fields[-1]), width), dtype=np.uint8)
        rows[:, :len(head)] = head
        col = len(head)
        for field in fields:
            rows[:, col:col + field.shape[1]] = field
            col += field.shape[1]
            rows[:, col] = ord(",")
            col += 1
        rows[:, -1] = ord("\n")  # in place of the last comma
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


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
    for flat, (g, h) in enumerate(zip(_g17_text(grid.flat_weights),
                                      _g17_text(result.posterior_weights))):
        m1, m2 = divmod(flat, n2)
        rows.append([
            _fmt(horizon), str(m1), str(m2),
            _fmt(grid.nodes1[m1]), _fmt(grid.nodes2[m2]), g, h,
        ])
    return rows


MEASURE_HEADER = ["horizon", "index_id", "m", "x_rel", "x_comp", "prob"]


def measure_rows(horizon: float, result) -> Iterator[str]:
    """posterior_measure.csv text for one horizon: the nonzero cells of
    each tilted conditional, by index, factor node, then C order of
    (x_rel, x_comp).  Each index's joint is looked up in turn (a
    product-form result forms it then from its bucket-level factors), so
    one index's joint is held at a time."""
    t = _fmt(horizon)
    for i in result.index_ids:
        pmfs = result.tilted_conditionals[i]
        for m in range(pmfs.shape[0]):
            xs, ys = np.nonzero(pmfs[m])
            yield from _text_blocks(f"{t},{i},{m},", (xs, ys),
                                    pmfs[m][xs, ys])


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
        yield from _text_blocks(f"{state.period},{_fmt(state.horizon)},",
                                state.support.T, state.probs)


KERNEL_HEADER = ["period", "horizon", "prev_row", "m_next", "prob"]


def kernel_rows(kernels) -> Iterator[str]:
    """dynamic_factor_kernels.csv text: the positive entries of each
    period's factor rows, by previous support row, then next node."""
    for kernel in kernels:
        rows = kernel.factor_rows
        prev, nxt = np.nonzero(rows > 0.0)
        yield from _text_blocks(f"{kernel.period},{_fmt(kernel.horizon)},",
                                (prev, nxt), rows[prev, nxt])


MAPPING_HEADER = ["rule", "k_bespoke", "maturity", "bespoke_el", "index_el",
                  "k_index", "beta_at_k_index"]
