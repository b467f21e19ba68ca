"""File formats: portfolio JSON, constraint/curve/tranche CSVs, dumps.
JSON files open through `load_json`, and `parse_field` reads every input
value or names the file and field it rejects.  Column layouts are in
docs/file_formats.md; diagnostic numbers are written with 10 significant
digits, dumps and factor weights with 17 significant digits in the
one layout `'%.16e' % x` (so a reload reprices bit-identically).  The
calibrated posterior is written as the factors of its tilted laws
(`law_rows`) and read back by `load_posterior_laws`; `measure_rows` forms
its dense cells.  Dump lines are assembled from word-table lookups
(`_text_blocks`), byte for byte `'%d'` and `'%.16e' % x`; `'%.16e' %`
itself formats, one value at a time, zero, non-finite and near-tie
values.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .basecorr import BaseCorrCurve
from .calibrate import PricingConstraint, DEFAULT_SIGMA
from .errors import ConfigurationError
from .loss import ConditionalLossDist, LossGrid
from .pricing import DiscountCurve, TrancheSpec
from .prior import COMPLEMENT, RELEVANT, FactorParams, IndexPortfolio, NameSpec

NUM = "%.10g"

# Rows per text block of a streamed dump; bounds the text held in memory.
# A dense measure block is then about 0.8 MB of words and each column
# temporary 128 KB: a block fits in a 2 MB L2 cache, and the temporaries
# are reused from the heap instead of being mapped anew for each block.
_BLOCK_ROWS = 1 << 14

CONSTRAINT_COLUMNS = ["index_id", "kind", "k_low", "k_high", "horizon",
                      "target_el", "sigma"]
_CSV_KINDS = {"tranche", "relevant_total", "complement_total"}


def _fmt(value: float) -> str:
    return NUM % float(value)


_KIND_NAMES = {float: "a number", int: "an integer", dict: "an object",
               list: "a list", str: "a string"}


def parse_field(where, field: str, value, kind=float):
    """One input field as `kind`: float and int convert `value` (no
    boolean, and for int no fraction); dict, list and str require it to be
    one; `[k]` requires a list and reads item i, named `field[i]`, as k; a
    tuple of kinds requires a list of as many items and reads each as its
    kind.  A value that does not fit is a ConfigurationError naming `where`
    and the field."""
    if kind in (float, int):
        try:
            number = kind(value)
            if not isinstance(value, bool) and (
                    kind is float or isinstance(value, str) or number == value):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(kind, list):
        return [parse_field(where, f"{field}[{i}]", item, kind[0])
                for i, item in enumerate(parse_field(where, field, value, list))]
    elif isinstance(kind, tuple):
        if isinstance(value, list) and len(value) == len(kind):
            return tuple(map(functools.partial(parse_field, where, field),
                             value, kind))
    elif isinstance(value, kind):
        return value
    what = (f"a list of {len(kind)} items" if isinstance(kind, tuple)
            else _KIND_NAMES[kind])
    raise ConfigurationError(f"{where}: {field} must be {what}, got {value!r}")


def load_json(path: str | Path) -> dict:
    """The object at the top level of the JSON file `path`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: the top level must be an object")
    return doc


def _csv_rows(path: str | Path, header: list[str]) -> Iterator[tuple[str, dict]]:
    """(where, row) per row of a CSV file whose header must be `header`;
    `where` names the file and the line.  Blank lines are skipped; a row
    with more or fewer fields than the header is a ConfigurationError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ConfigurationError(
                f"{path} line 1: header must be {','.join(header)}")
        for fields in reader:
            if not fields:
                continue
            where = f"{path} line {reader.line_num}"
            if len(fields) != len(header):
                raise ConfigurationError(
                    f"{where}: {len(fields)} fields, the header has "
                    f"{len(header)}")
            yield where, dict(zip(header, fields))


@contextlib.contextmanager
def _named(where):
    """Prefix `where` to the message of a ConfigurationError raised in the
    block, which keeps its class and fields: a value object's check names
    the field but not the file."""
    try:
        yield
    except ConfigurationError as exc:
        exc.args = (f"{where}: {exc.args[0]}", *exc.args[1:])
        raise


def load_portfolios(
    path: str | Path,
) -> tuple[FactorParams, dict[int, IndexPortfolio], list[float]]:
    """Portfolio definition file: factor_params block, horizon list and one
    record per name with default probabilities aligned to the horizons."""
    doc = load_json(path)
    try:
        fp = parse_field(path, "factor_params", doc["factor_params"], dict)
        rho, alpha = (parse_field(path, f"factor_params.{k}", fp[k])
                      for k in ("rho", "alpha"))
        with _named(path):
            params = FactorParams(rho, alpha)
        horizons = parse_field(path, "horizons", doc["horizons"], [float])
        names: dict[int, list[NameSpec]] = {}
        for rec in parse_field(path, "names", doc["names"], [dict]):
            where = f"{path}: name {rec.get('id')}"
            probs = parse_field(where, "default_probs", rec["default_probs"],
                                [float])
            if len(probs) != len(horizons):
                raise ConfigurationError(
                    f"{where} has {len(probs)} default probabilities for "
                    f"{len(horizons)} horizons")
            index_id = parse_field(where, "index_id", rec["index_id"], int)
            fields = {key: parse_field(where, key, rec[key]) for key in
                      ("recovery", "notional_weight", "one_factor_loading")}
            with _named(path):  # NameSpec names the name, not the file
                name = NameSpec(id=str(rec["id"]), index_id=index_id,
                                bucket=str(rec["bucket"]),
                                default_prob_curve=tuple(zip(horizons, probs)),
                                **fields)
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
                f"{where}: kind must be one of {sorted(_CSV_KINDS)}, "
                f"got {kind!r}")
        fields = dict(
            index_id=num("index_id", int),
            horizon=num("horizon"),
            target_el=num("target_el"),
            sigma=num("sigma") if row["sigma"].strip() else DEFAULT_SIGMA,
        )
        if kind == "tranche":
            fields.update(kind="tranche", k_low=num("k_low"),
                          k_high=num("k_high"))
        else:
            fields.update(kind="subportfolio_total", bucket=RELEVANT
                          if kind == "relevant_total" else COMPLEMENT)
        with _named(where):
            out.append(PricingConstraint(**fields))
    if not out:
        raise ConfigurationError(f"{path}: no constraints")
    return out


def load_discount_curve(path: str | Path) -> DiscountCurve:
    times, factors = [], []
    for where, row in _csv_rows(path, ["time", "discount_factor"]):
        times.append(parse_field(where, "time", row["time"]))
        factors.append(parse_field(where, "discount_factor",
                                   row["discount_factor"]))
    with _named(path):
        return DiscountCurve(times=tuple(times), factors=tuple(factors))


_TRANCHE_FIELDS = {"k_low": float, "k_high": float, "maturity": float,
                   "frequency": int}


def load_tranches(path: str | Path) -> list[TrancheSpec]:
    out = []
    for where, row in _csv_rows(path, [*_TRANCHE_FIELDS, "daycount"]):
        if row["daycount"].strip() not in ("", "yearfrac"):
            raise ConfigurationError(
                f"{where}: daycount supports only 'yearfrac', got "
                f"{row['daycount']!r}")
        fields = {field: parse_field(where, field, row[field], kind)
                  for field, kind in _TRANCHE_FIELDS.items()}
        with _named(where):
            out.append(TrancheSpec.with_schedule(**fields))
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
        with _named(f"{path} horizon {_fmt(t)}"):
            out[t] = BaseCorrCurve(strikes=tuple(k for k, _ in pts),
                                   betas=tuple(b for _, b in pts))
    if not out:
        raise ConfigurationError(f"{path}: no curves")
    return out


def parse_bespoke(where, doc: dict) -> dict:
    """The `bespoke` block of a run config as `BespokeSpec` fields: the
    `members` bucket references and the `proxy_el_targets` curves sorted
    by horizon, each only when the block sets it."""
    read = functools.partial(parse_field, where)
    out = {}
    if doc.get("members") is not None:
        out["members"] = tuple(read("bespoke.members", doc["members"],
                                    [(int, str)]))
    if doc.get("proxy_el_targets") is not None:
        proxy = []
        for k, item in enumerate(read("bespoke.proxy_el_targets",
                                      doc["proxy_el_targets"], [dict])):
            field = f"bespoke.proxy_el_targets[{k}]"
            ref = (read(f"{field}.index_id", item.get("index_id"), int),
                   read(f"{field}.bucket", item.get("bucket"), str))
            targets = read(f"{field}.targets", item.get("targets"), dict)
            proxy.append((ref, tuple(sorted(
                ((read(f"{field}.targets", t), read(f"{field}.targets", el))
                 for t, el in targets.items()), key=lambda te: te[0]))))
        out["proxy_el_targets"] = tuple(proxy)
    return out


# -- writers -------------------------------------------------------------


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[bytes | Sequence[str]]):
    """Header, then each item of `rows` in turn: `bytes` is pre-formatted
    CSV text and is written verbatim to the binary buffer, a sequence of
    fields is one row and goes through CSV quoting.  Items are consumed as
    they are written, so a generator of text blocks streams to disk."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, bytes):
                fh.flush()
                fh.buffer.write(row)
            else:
                writer.writerow(row)


# -- 17-digit text --------------------------------------------------------
#
# `_put_e16` writes `'%.16e\n' % v` for a float64 array as seven uint32
# words per value, NUL-padded.  A finite nonzero |v| = mant * 2**e (mant
# in [1, 2)) is scaled by the correctly rounded double-double
# T(e) = 2**e * 10**(16 - X0(e)), X0(e) = floor(log10(2**e)), so that
# mant * T(e) lies in [1e16, 2e17); the product, exact to far below 1e-9,
# rounds half-even to the 17 significant digits.  When that reaches 1e17,
# the decimal exponent X is X0 + 1 and T(e) / 10 gives the digits.  Every
# word is a table lookup: a head by (sign, first digit) gives 'd.' or
# '-d.', four words hold the other 16 digits, and a suffix by X gives
# 'e+02\n' to 'e-324\n'.  Zero, non-finite values and values within
# `_TIE_MARGIN` of a rounding tie are formatted by `'%.16e' % v` itself.

_VALUE_WORDS = 7  # head (one word), the 16 digits (four), suffix (two)
_TIE_MARGIN = 1e-9
_EXP_MIN = -1074  # binary exponent of the smallest subnormal
_X_OFFSET = 400  # decimal exponents index their tables at X + 400


@functools.cache
def _e16_tables() -> dict[str, np.ndarray]:
    """Read-only lookup tables of the dump formatter, built on first use.
    `scale[up][:, e - _EXP_MIN]` is T(e) / 10**up as t0 + t1 + t2, from
    exact integer arithmetic: the 26-bit halves of its nearest double, then
    the nearest double to the rest.  The others are words of text padded
    with NUL bytes; an integer table in two halves holds the variant with
    NUL for the leading zeros, then the plain digits at + 1000 or + 10000."""
    e = np.arange(_EXP_MIN, 1024)
    x0 = (e * 78913) >> 18  # floor(log10(2**e)), exact on this range
    k_min = 16 - int(x0[-1]) - 1
    pow5 = []  # 10**k = 2**k * 5**k; the power of two scales exactly
    for k in range(k_min, 16 - int(x0[0]) + 1):
        num, den = (5**k, 1) if k >= 0 else (1, 5**-k)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        pow5.append((hi, (num * b - a * den) / (den * b)))
    scale = []
    for up in (0, 1):
        k = 16 - up - x0
        hi, lo = np.ldexp(np.array(pow5)[k - k_min], (e + k)[:, None]).T
        split = 134217729.0 * hi  # Dekker: hi as two 26-bit halves
        top = split - (split - hi)
        scale.append((top, hi - top, lo))
    digits = (np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
              + ord("0")).astype(np.uint8)
    leading = np.logical_and.accumulate(digits == ord("0"), axis=1)
    three = np.c_[digits[:1000, 1:], np.full(1000, ord(","), np.uint8)]
    leading3 = np.c_[leading[:1000, 1:3], np.zeros((1000, 2), bool)]
    suffix = [b"e%+03d\n" % x for x in range(-_X_OFFSET, _X_OFFSET + 1)]
    tables = {
        "scale": np.array(scale),
        "x0": x0,
        # the 16 digits after the first, by four
        "frac4": digits.view("<u4").ravel(),
        # integer fields: leading zeros as NUL; the last word holds three
        # digits and the comma, and keeps the digit of 0
        "int4": np.r_[digits * ~leading, digits].view("<u4").ravel(),
        "int3": np.r_[three * ~leading3, three].view("<u4").ravel(),
        # by 10 * negative + first digit: 'd.' or '-d.'
        "head": np.array([sign + b"%d." % d for sign in (b"", b"-")
                          for d in range(10)], "S4").view("<u4"),
        # by X + _X_OFFSET, its two words as two rows
        "suffix": np.array(suffix, "S8").view("<u4").reshape(-1, 2).T.copy(),
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


def _e16_digits(values: np.ndarray):
    """The 17 significant digits of |v| for each float64 v of `values` as
    an integer in [1e16, 1e17), its decimal exponent, and a mask of the
    values that `'%.16e' %` must format instead: zero or non-finite, or
    within `_TIE_MARGIN` of a rounding tie."""
    t = _e16_tables()
    magnitude = np.abs(values)
    fast = np.isfinite(magnitude) & (magnitude > 0.0)
    mant, e = np.frexp(np.where(fast, magnitude, 1.0))
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


def _put_e16(values: np.ndarray, out: np.ndarray):
    """Write `'%.16e\n' % v` for each float64 of `values` into the
    `_VALUE_WORDS` uint32 words of the matching row of `out`, padded with
    NUL bytes."""
    t = _e16_tables()
    sig, exponent, slow = _e16_digits(values)
    # the last 16 digits by four from the right (// by a constant is fast,
    # % and divmod are not)
    d0 = sig
    for col in (4, 3, 2, 1):
        high = d0 // 10**4
        out[:, col] = t["frac4"].take(d0 - high * 10**4)
        d0 = high
    out[:, 0] = t["head"].take(d0 + 10 * (values < 0.0))
    x = exponent + _X_OFFSET
    out[:, 5] = t["suffix"][0].take(x)
    out[:, 6] = t["suffix"][1].take(x)
    for r in np.flatnonzero(slow).tolist():
        text = (b"%.16e\n" % values[r]).ljust(4 * _VALUE_WORDS, b"\0")
        out[r] = np.frombuffer(text, dtype="<u4")


def _e16_text(values: np.ndarray) -> list[str]:
    """`'%.16e' % v` for each v of `values`."""
    values = np.asarray(values, dtype=np.float64)
    words = np.empty((len(values), _VALUE_WORDS), dtype="<u4")
    _put_e16(values, words)
    return words.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _int_words(top: int) -> int:
    """uint32 words of an integer field whose largest value is `top`: its
    digits and a comma."""
    return len(str(top)) // 4 + 1


def _put_int(values: np.ndarray, out: np.ndarray):
    """Write each non-negative integer of `values` and a comma into the
    uint32 words of its row of `out`, NUL-padded: three digits and the
    comma in the last word, four digits in each word before it."""
    t = _e16_tables()
    rest, last = values, out.shape[1] - 1
    for col in range(last, 0, -1):
        table, base = (t["int3"], 1000) if col == last else (t["int4"], 10000)
        high = rest // base
        out[:, col] = table.take(rest - high * base + base * (high != 0))
        rest = high
    out[:, 0] = (t["int4"] if last else t["int3"]).take(rest)


def _text_blocks(prefix: str, columns: Sequence[np.ndarray],
                 values: np.ndarray) -> Iterator[bytes]:
    """CSV text of the rows `prefix`, then the integers of `columns`
    (non-negative), then `'%.16e' % value`, in blocks of at most
    `_BLOCK_ROWS` rows.  `prefix` holds the leading fields shared by every
    row; they must never need quoting.  A block is a matrix of uint32
    words, one row per line, written by column; its NUL bytes are
    dropped."""
    widths = [_int_words(c.max() if len(c) else 0) for c in columns]
    head = prefix.encode()
    lead = -(-len(head) // 4)
    head = np.frombuffer(head.rjust(4 * lead, b"\0"), dtype="<u4")
    edges = np.cumsum([lead, *widths]).tolist()
    for start in range(0, len(values), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = np.empty((len(values[block]), edges[-1] + _VALUE_WORDS),
                        dtype="<u4")
        rows[:, :lead] = head
        for column, a, b in zip(columns, edges, edges[1:]):
            _put_int(column[block], rows[:, a:b])
        _put_e16(values[block], rows[:, edges[-1]:])
        yield rows.tobytes().translate(None, b"\0")


def _cell_blocks(prefix: str, array: np.ndarray) -> Iterator[bytes]:
    """`_text_blocks` of the positive cells of the non-negative `array` in C
    order: `prefix`, the cell's indices and its value.  The indices are cut
    from the flat positions by `//`, faster here than `np.unravel_index`."""
    flat = np.flatnonzero(array)
    sizes = [math.prod(array.shape[k + 1:]) for k in range(array.ndim - 1)]
    for start in range(0, len(flat), _BLOCK_ROWS):
        cells = rest = flat[start:start + _BLOCK_ROWS]
        index = []
        for size in sizes:
            high = rest // size
            index.append(high)
            rest = rest - high * size
        yield from _text_blocks(prefix, (*index, rest), array.take(cells))


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
    for flat, (g, h) in enumerate(zip(_e16_text(grid.flat_weights),
                                      _e16_text(result.posterior_weights))):
        m1, m2 = divmod(flat, n2)
        rows.append([
            _fmt(horizon), str(m1), str(m2),
            _fmt(grid.nodes1[m1]), _fmt(grid.nodes2[m2]), g, h,
        ])
    return rows


LAWS_HEADER = ["horizon", "index_id", "factor", "m", "j", "value"]

# the factors of a tilted law in file order, with the (m, j) grid of each
# as a 2-D array: (node, x_rel), (node, x_comp), (0, s), (node, 0)
_LAW_FACTORS = {
    "log_a": lambda law: law.log_a,
    "log_b": lambda law: law.log_b,
    "tau": lambda law: law.tau[None, :],
    "log_z": lambda law: law.log_z[:, None],
}


def law_rows(horizon: float, laws: Mapping[int, ConditionalLossDist]
             ) -> Iterator[bytes]:
    """posterior_laws.csv text for one horizon: by index, the factors
    log_a, log_b, tau and log_z of its tilted law, each in C order of
    (m, j).  A cell of zero prior mass is `-inf`."""
    t = _fmt(horizon)
    for i in sorted(laws):
        for name, factor in _LAW_FACTORS.items():
            values = factor(laws[i])
            yield from _text_blocks(f"{t},{i},{name},",
                                    np.indices(values.shape).reshape(2, -1),
                                    values.ravel())


def load_posterior_laws(path: str | Path, loss_grids: Mapping[int, LossGrid]
                        ) -> dict[float, dict[int, ConditionalLossDist]]:
    """The tilted laws of a posterior_laws.csv, by horizon and index id,
    each on the loss grid of its index.  Each factor's rows must run over
    its (m, j) grid in C order, and an index needs all four factors with
    one node count and a tau over the total-loss lattice; a breach is a
    ConfigurationError naming the file and a line."""
    table, where = _law_table(path)
    laws: dict[float, dict[int, ConditionalLossDist]] = {}
    for t, i in sorted(set(zip(table["horizon"].tolist(),
                               table["index_id"].tolist()))):
        in_law = (table["horizon"] == t) & (table["index_id"] == i)
        what = f"{where(np.argmax(in_law))}: index {i} at horizon {_fmt(t)}"
        if i not in loss_grids:
            raise ConfigurationError(f"{what} has no loss grid")
        rows = {name: np.flatnonzero(in_law & (table["factor"] == name))
                for name in _LAW_FACTORS}
        missing = [name for name in _LAW_FACTORS if not len(rows[name])]
        if missing:
            raise ConfigurationError(f"{what} has no {missing[0]} rows")
        log_a, log_b, tau, log_z = (_factor_grid(table, rows[name], where)
                                    for name in _LAW_FACTORS)
        if not (len(log_a) == len(log_b) == len(log_z) and len(tau) == 1
                and tau.shape[1] == log_a.shape[1] + log_b.shape[1] - 1
                and log_z.shape[1] == 1):
            raise ConfigurationError(
                f"{what}: factor shapes log_a {log_a.shape}, log_b "
                f"{log_b.shape}, tau {tau.shape} and log_z {log_z.shape} do "
                "not make one law")
        laws.setdefault(t, {})[i] = ConditionalLossDist.from_factors(
            i, loss_grids[i], log_a, log_b, tau[0], log_z[:, 0])
    return laws


_LAW_RECORD = [("horizon", float), ("index_id", np.int64), ("factor", "U16"),
               ("m", np.int64), ("j", np.int64), ("value", float)]


def _law_table(path: str | Path):
    """The rows of a posterior_laws.csv as `_LAW_RECORD` records, and the
    `where` of a row by its position.  The columns are parsed at once by
    `np.loadtxt`; a file that does not parse so, one row per line, with
    known factors, finite horizons and values finite or -inf, is read row
    by row through `parse_field`, which names its first malformed line."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    try:
        if len(lines) < 2 or lines[0] != ",".join(LAWS_HEADER):
            raise ValueError("not one plain row per line")
        table = np.loadtxt(lines[1:], delimiter=",", comments=None,
                           dtype=_LAW_RECORD, ndmin=1)
        if (len(table) == len(lines) - 1
                and np.isin(table["factor"], list(_LAW_FACTORS)).all()
                and np.isfinite(table["horizon"]).all()
                and (table["value"] < math.inf).all()):
            return table, lambda row: f"{path} line {row + 2}"
    except ValueError:
        pass
    records, wheres = [], []
    for where, row in _csv_rows(path, LAWS_HEADER):
        def read(field, kind=float):
            return parse_field(where, field, row[field], kind)

        if row["factor"] not in _LAW_FACTORS:
            raise ConfigurationError(
                f"{where}: factor must be one of {', '.join(_LAW_FACTORS)}, "
                f"got {row['factor']!r}")
        value = read("value")
        if not value < math.inf:
            raise ConfigurationError(
                f"{where}: value must be finite or -inf, got {row['value']!r}")
        horizon = read("horizon")
        if not math.isfinite(horizon):
            raise ConfigurationError(
                f"{where}: horizon must be finite, got {row['horizon']!r}")
        records.append((horizon, read("index_id", int), row["factor"],
                        read("m", int), read("j", int), value))
        wheres.append(where)
    return np.array(records, dtype=_LAW_RECORD), wheres.__getitem__


def _factor_grid(table: np.ndarray, rows: np.ndarray, where) -> np.ndarray:
    """The (M, S) array of the values of one factor's `rows` of `table`,
    whose (m, j) must run over (0..M-1) x (0..S-1) in C order; otherwise a
    ConfigurationError names the first row out of place, or the last row
    of a short grid."""
    m, j = table["m"][rows], table["j"][rows]
    s = max(int(j.max()), 0) + 1
    k = np.arange(len(rows))
    bad = np.flatnonzero((m != k // s) | (j != k % s))
    if bad.size or len(rows) % s:
        b = bad[0] if bad.size else len(rows) - 1
        raise ConfigurationError(
            f"{where(rows[b])}: (m, j) = ({m[b]}, {j[b]}) breaks the factor's "
            "grid; its rows run over (0..M-1) x (0..S-1) in C order")
    return table["value"][rows].reshape(-1, s)


MEASURE_HEADER = ["horizon", "index_id", "m", "x_rel", "x_comp", "prob"]


def measure_rows(horizon: float, laws: Mapping[int, ConditionalLossDist]
                 ) -> Iterator[bytes]:
    """The dense posterior measure for one horizon (header
    `MEASURE_HEADER`): the nonzero cells of each law's joint, by index,
    factor node, then C order of (x_rel, x_comp).  One index's joint is
    formed and held at a time.  The laws that `load_posterior_laws` reads
    back give the same bytes as the calibrated laws themselves."""
    t = _fmt(horizon)
    for i in sorted(laws):
        yield from _cell_blocks(f"{t},{i},", laws[i].pmfs)


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


def state_rows(states) -> Iterator[bytes]:
    """dynamic_states.csv text: every support row of each propagated state
    in turn.  A state is formed one factor node at a time from its
    kernel's factors, by the products that form its whole marginal, so no
    state's support is held."""
    for state in states:
        prefix = f"{state.period},{_fmt(state.horizon)},"
        for m in range(state.kernel.pooled_mass.shape[-1]):
            yield from _cell_blocks(f"{prefix}{m},",
                                    state.kernel.marginal(slice(m, m + 1))[0])


KERNEL_HEADER = ["period", "horizon", "prev_row", "m_next", "prob"]


def kernel_rows(kernels) -> Iterator[bytes]:
    """dynamic_factor_kernels.csv text: the positive entries of each
    period's factor rows, by previous row (the cells of `prev_mass` with
    mass, in C order), then next node.  The rows are formed a block of
    previous rows at a time (at most `_BLOCK_ROWS` entries), so no
    kernel's whole factor rows are held."""
    for kernel in kernels:
        prefix = f"{kernel.period},{_fmt(kernel.horizon)},"
        step = max(1, _BLOCK_ROWS // kernel.log_factor_rows.shape[1])
        for start in range(0, np.count_nonzero(kernel.prev_mass), step):
            rows = kernel.factor_rows_of(slice(start, start + step))
            s, m = np.nonzero(rows)
            yield from _text_blocks(prefix, (s + start, m), rows[s, m])


MAPPING_HEADER = ["rule", "k_bespoke", "maturity", "bespoke_el", "index_el",
                  "k_index", "beta_at_k_index"]
