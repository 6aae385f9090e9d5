"""Command-line front end: configured experiments, CSV/npy/JSON/xy artifacts.

Every command reads one JSON config, checks it against its JSON Schema in
``SCHEMAS`` (unknown fields rejected) with a small validator of just the
keywords those schemas use, runs the corresponding library verification,
and writes its artifacts into the output directory: CSV and ``.npy``
tables with full-precision numbers (the per-sample phase tables are
structured ``.npy`` arrays whose field names are their column names, each
with a CSV of its columns' min, max and mean beside it; ``solve``'s
solution is ``solution.npy``, its grid in ``solution.json``), a
``summary.json`` with the pass/fail verdict, and whitespace separated xy
files for plotting.  A per-sample value, such as a certificate's ratio,
is a field of its phase table and is written nowhere else.  The certify
commands read one seeded point source: chunk makers in a fixed order, each
making the same points at every call, which worker threads run while the
rows are written in chunk order; so no byte depends on --threads, and no
whole-sample column is held but garding's two terms.  Importing this
module loads neither jsonschema nor scipy, nor ``concurrent.futures``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import carleman as carl
from . import fields, geometry, solver, symbols
from .fractional import (MultiTermSpec, TimeGrid, _caputo_l1_final,
                         caputo_oracle, caputo_power_rule)


# rows per block: enough to amortize the "%" call of the text writers,
# few enough that a block's text stays near a MB
WRITE_BLOCK = 4096


def _as_2d(columns):
    """``columns`` as 2-D float arrays, without copying float input.

    ``columns`` holds 1-D arrays (one column each) and 2-D arrays (one
    column per entry of their second axis), all with the same row count.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    return [c[:, None] if c.ndim == 1 else c for c in columns]


def _blocks(columns):
    """Blocks of ``WRITE_BLOCK`` rows of ``columns``, side by side.

    Each block is sliced from the columns as a float array, so the whole
    table is never stacked into one array.
    """
    columns = _as_2d(columns)
    for start in range(0, len(columns[0]), WRITE_BLOCK):
        yield np.concatenate([c[start:start + WRITE_BLOCK] for c in columns],
                             axis=1)


def _write_rows(path, columns, header=None, delimiter=" "):
    """Write ``"%.17g"`` rows, the bytes of ``np.savetxt``, block by block."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for block in _blocks(columns):
            line = delimiter.join(["%.17g"] * block.shape[1]) + "\n"
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_csv(path, header, columns):
    """Header line, then one comma-separated row per index of ``columns``."""
    _write_rows(path, columns, header=",".join(header), delimiter=",")


def write_xy(path, columns):
    """One whitespace-separated row per index of ``columns``."""
    _write_rows(path, columns)


@contextlib.contextmanager
def write_npy(path, header, rows):
    """A structured array of at most ``rows`` rows, one ``<f8`` field per
    name of ``header``; the yielded ``append(columns)`` writes a part of it
    block by block, as ``write_csv`` does.  If the block raises, the file
    is removed.  The bytes are those of ``np.save`` of the stacked table:
    the header is rewritten in place for the rows appended, which numpy's
    padding of the row count keeps at its length; a header of another
    length raises ``RuntimeError`` and removes the file.
    """
    dtype = np.dtype([(name, "<f8") for name in header])

    def write_header(count):
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": (count,)})

    def append(columns):
        width = sum(c.shape[1] for c in _as_2d(columns))
        if width != len(header):
            raise ValueError(f"{len(header)} field names for {width} columns")
        for block in _blocks(columns):
            fh.write(block.astype("<f8", copy=False).tobytes())

    with open(path, "w+b") as fh:
        try:
            write_header(rows)
            start = fh.tell()
            yield append
            count = (fh.tell() - start) // dtype.itemsize
            fh.seek(0)
            write_header(count)
            if fh.tell() != start:
                raise RuntimeError(
                    f"the .npy header for {count} rows is {fh.tell()} bytes, "
                    f"not the {start} written for {rows}")
        except BaseException:
            fh.close()
            os.remove(path)
            raise


# ---------------------------------------------------------------------------
# config schemas


def _object(required, **properties):
    return {"type": "object", "properties": properties,
            "required": list(required), "additionalProperties": False}


_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}
_NATURAL = {"type": "integer", "minimum": 0}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1}

_SPEC = _object(("orders", "weights"), orders=_NUMS, weights=_NUMS)
_TERM = _object(("coeff", "t_pow", "y_pows"), coeff=_NUM, t_pow=_NATURAL,
                y_pows={"type": "array", "items": _NATURAL})
_TABLE = _object(("j", "k", "terms"), j=_NATURAL, k=_NATURAL,
                 terms={"type": "array", "items": _TERM})
_COEFFS = {
    **_object(("preset", "n"),
              preset={"enum": ["identity", "diagonal-variable",
                               "rotating-anisotropic", "polynomial"]},
              n=_POSINT, amplitude=_NUM, ratio=_NUM, spin=_NUM, shear=_NUM,
              delta=_NUM, tables={"type": "array", "items": _TABLE}),
    # the polynomial preset is built from its tables and declared delta
    "if": {"properties": {"preset": {"const": "polynomial"}},
           "required": ["preset"]},
    "then": {"required": ["tables", "delta"]},
}
_MAP = _object(("c", "X", "T"), y_hat={"type": "array", "items": _NUM},
               c=_NUM, X=_NUM, T=_NUM)
_WEIGHT = _object(("X",), X=_NUM)
_REGION = {
    "type": "object",
    "properties": {"t": _PAIR, "xn": _PAIR, "xprime_halfwidth": _NUM},
    "additionalProperties": False,
}
_GRID = _object(("bounds", "shape", "n_steps", "t_final"),
                bounds={"type": "array", "items": _PAIR, "minItems": 1},
                shape={"type": "array", "items": _POSINT, "minItems": 1},
                n_steps=_POSINT, t_final=_NUM)

# fields shared by the phase-space commands, and those of the
# characteristic-set samplers
_SYMBOL_REQUIRED = ("spec", "coeffs", "map", "weight", "n_samples")
_SYMBOL = dict(spec=_SPEC, coeffs=_COEFFS, map=_MAP, weight=_WEIGHT,
               region=_REGION, n_samples=_POSINT)
_CHAR = dict(_SYMBOL, tol=_NUM, sigma_range=_PAIR)

SCHEMAS = {
    "caputo-check": _object(("alphas", "n_steps"), alphas=_NUMS,
                            n_steps=_POSINT, t_final=_NUM, power=_NUM,
                            tol_apply=_NUM, tol_oracle=_NUM),
    "symbol-bracket": _object(_SYMBOL_REQUIRED, **_SYMBOL,
                              magnitude_range=_PAIR),
    "lemma21": _object(_SYMBOL_REQUIRED, **_CHAR),
    "garding": _object(_SYMBOL_REQUIRED, **_SYMBOL, varpi_max=_NUM,
                       magnitude_range=_PAIR),
    "lemma61": _object(_SYMBOL_REQUIRED + ("stage",), **_CHAR, stage=_POSINT),
    "solve": _object(("spec", "coeffs", "grid"), spec=_SPEC, coeffs=_COEFFS,
                     grid=_GRID,
                     source=_object((), center=_NUMS, width=_NUM)),
    "carleman-sweep": _object(
        ("spec", "coeffs", "map", "weight", "grid", "betas"),
        spec=_SPEC, coeffs=_COEFFS, map=_MAP, weight=_WEIGHT, grid=_GRID,
        betas={"type": "array", "items": _NUM, "minItems": 2},
        n_bumps=_POSINT, include_drift={"type": "boolean"}, spread_max=_NUM),
    "ucp-demo": _object(
        ("spec", "coeffs", "grid", "omega", "t_prime", "source_centers"),
        spec=_SPEC, coeffs=_COEFFS, grid=_GRID, omega=_PAIR, t_prime=_NUM,
        source_centers=_NUMS, source_width=_NUM,
        floor=_NUM),
    "continuation-plan": _object(("T", "X", "s_max", "n"), T=_NUM, X=_NUM,
                                 s_max=_POSINT, n=_POSINT, c=_NUM,
                                 n_check=_POSINT),
}

# command "a-b" is run by run_a_b(config, out, seed, threads)
COMMANDS = tuple(SCHEMAS)


class ConfigError(ValueError):
    pass


def _finite(text):
    """``json.load``'s float and constant hook: only finite numbers, so
    ``Infinity``, ``NaN`` and ``1e999`` are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config error: {text} is not a finite number")
    return value


# the JSON-Schema types of SCHEMAS; an "integer" is a JSON integer, so
# 2.0 is not one (Draft 2020-12 would admit it)
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}
# every keyword _schema_errors interprets; any other one raises
_KEYWORDS = frozenset({"type", "properties", "required",
                       "additionalProperties", "items", "minItems",
                       "maxItems", "minimum", "enum", "const", "if", "then"})


def _schema_errors(schema, value, path=()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Keywords are read in the schema's order and apply, as in JSON Schema,
    only to values of their own type.  ``path`` holds the keys and indices
    from the config's root down to ``value``.
    """
    is_object, is_array = _TYPES["object"](value), _TYPES["array"](value)
    for key, arg in schema.items():
        if (key not in _KEYWORDS or key == "type" and arg not in _TYPES
                or key == "additionalProperties" and arg is not False):
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r}")
        if key == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], path + (name,))
        elif key == "required" and is_object:
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and is_object:
            extras = [name for name in value
                      if name not in schema.get("properties", {})]
            if extras:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extras))} unexpected)")
        elif key == "items" and is_array:
            for i, item in enumerate(value):
                yield from _schema_errors(arg, item, path + (i,))
        elif key == "minItems" and is_array and len(value) < arg:
            yield path, f"{value!r} is too short"
        elif key == "maxItems" and is_array and len(value) > arg:
            yield path, f"{value!r} is too long"
        elif key == "minimum" and _TYPES["number"](value) and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "const" and value != arg:
            yield path, f"{arg!r} was expected"
        elif key == "if" and not any(_schema_errors(arg, value, path)):
            yield from _schema_errors(schema.get("then", {}), value, path)


def validate_config(command: str, config) -> None:
    """Raise :class:`ConfigError` at the shallowest error, by (depth, path)."""
    errors = sorted(_schema_errors(SCHEMAS[command], config),
                    key=lambda e: (len(e[0]), e[0]))
    if errors:
        path, message = errors[0]
        where = "$" + "".join(f".{p}" if isinstance(p, str) else f"[{p}]"
                              for p in path)
        raise ConfigError(f"config error at {where}: {message}")


# ---------------------------------------------------------------------------
# builders


def _build_spec(cfg) -> MultiTermSpec:
    return MultiTermSpec(orders=tuple(cfg["orders"]),
                         weights=tuple(cfg["weights"]))


def _build_region(cfg, X, T) -> symbols.SampleRegion:
    base = symbols.region_for(X, T=T)
    if cfg is None:
        return base
    return symbols.SampleRegion(
        t_range=tuple(cfg.get("t", base.t_range)),
        xn_range=tuple(cfg.get("xn", base.xn_range)),
        xprime_halfwidth=cfg.get("xprime_halfwidth", base.xprime_halfwidth))


def _build_grid(cfg) -> solver.SpaceTimeGrid:
    time = TimeGrid.from_interval(cfg["t_final"], cfg["n_steps"])
    return solver.SpaceTimeGrid(bounds=tuple(tuple(b) for b in cfg["bounds"]),
                                shape=tuple(cfg["shape"]), time=time)


def _symbol_setup(config, field=None):
    """Spec, map, pushed-forward frame and sampling region.

    ``field`` replaces the coefficients built from ``config["coeffs"]``.
    The map's stage is the config's top-level ``stage`` (lemma61's), else 1.
    The map's X is the one layer thickness, of the map and of the weight:
    a ``weight.X`` that differs from it raises ``ValueError``.
    """
    spec = _build_spec(config["spec"])
    if field is None:
        field = fields.field_from_config(config["coeffs"])
    cfg = config["map"]
    hmap = geometry.HolmgrenMap(
        y_hat=np.asarray(cfg.get("y_hat", np.zeros(field.n)), dtype=float),
        c=cfg["c"], X=cfg["X"], T=cfg["T"], stage=config.get("stage", 1))
    X = config["weight"]["X"]
    if X != hmap.X:
        raise ValueError(f"weight.X={X!r} differs from map.X={hmap.X!r}: "
                         "the map's X is the weight's layer thickness")
    frame = geometry.pushforward_operator(field, hmap)
    region = _build_region(config.get("region"), hmap.X, hmap.T)
    return spec, hmap, frame, region


N_CHUNKS = 16


def _seeded(total, seed, draw):
    """The seeded point source of ``total`` rows: one zero-argument maker
    per chunk of a fixed split that does not depend on --threads.  Maker k
    returns ``draw(count, rng=rng)``, ``rng`` from the k-th child of the
    seed's sequence, with the same bits at every call."""
    chunks = max(1, min(N_CHUNKS, total))
    seqs = np.random.SeedSequence(seed).spawn(chunks)

    def maker(k):
        count = total // chunks + (1 if k < total % chunks else 0)
        return lambda: draw(count, rng=np.random.default_rng(seqs[k]))

    return [maker(k) for k in range(chunks)]


def _chunked(source, threads, work):
    """Yield ``work(make())`` for each maker of the point ``source``, in
    order, each run in a worker.  At most ``threads`` chunks run while the
    caller holds the result before them."""
    def run(make):
        return work(make())

    if threads <= 1:
        yield from map(run, source)
        return
    # imported here: it loads logging, which no single-thread run needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = []
        for make in source:
            ahead.append(pool.submit(run, make))
            if len(ahead) > threads:
                yield ahead.pop(0).result()
        while ahead:
            yield ahead.pop(0).result()


@contextlib.contextmanager
def _phase_table(out, name, n, tail, rows):
    """One record per phase point (t, x, tau, xi, sigma, *tail).

    The yielded function appends records to ``name.npy`` as
    :func:`write_npy`'s does.  ``name_stats.csv``, with the same column
    names, then holds each column's min, max and mean, one row each (no
    rows for an empty table), read back a column at a time: numpy sums a
    whole column pairwise, so a mean folded chunk by chunk moves bits.
    """
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + ["tau"]
              + [f"xi{i + 1}" for i in range(n)] + ["sigma", *tail])
    path = os.path.join(out, f"{name}.npy")
    with write_npy(path, header, rows) as append:
        yield append
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        (count,), _, dtype = np.lib.format.read_array_header_1_0(fh)
        start, column = fh.tell(), np.empty(count)
        stats = np.empty((3 if count else 0, len(header)))
        for j in range(len(header) if count else 0):
            fh.seek(start)
            for i in range(0, count, WRITE_BLOCK):
                block = np.fromfile(fh, dtype, min(WRITE_BLOCK, count - i))
                column[i:i + len(block)] = block[header[j]]
            # NaN and inf entries carry into their column's row, unwarned
            with np.errstate(invalid="ignore", over="ignore"):
                stats[:, j] = column.min(), column.max(), column.mean()
    write_csv(os.path.join(out, f"{name}_stats.csv"), header, [stats])


def _char_certify(source, out, threads, check, n, total):
    """Certify a point source of characteristic samples, chunk by chunk.

    Each worker makes a chunk, a ``CharacteristicSample`` in ``n``
    dimensions, and certifies it if it is not empty: ``check(part)``
    returns its report, whose ``extras["ratios"]`` holds each sample's
    ratio, and a scalar.  In chunk order, the rows and their ratios go to
    the char_points table.  Returns the summary entries of the ``total``
    requested samples, with the first least ratio as ``np.argmin`` picks
    it and its witness, and the scalars."""
    def work(part):
        return part, check(part) if part.found else None

    infos, checked = [], []
    with _phase_table(out, "char_points", n, ["residual", "ratio"],
                      total) as append:
        for part, result in _chunked(source, threads, work):
            infos.append((part.found, part.solved, part.rejected,
                          part.root_passes))
            # an empty chunk has no rows to write
            if result:
                report, scalar = result
                append([*part.points, part.residual, report.extras["ratios"]])
                checked.append((report.min_ratio, part.residual.max(),
                                _witness(part.points, report.argmin), scalar))
    found, solved, rejected, root_passes = zip(*infos)
    mins, residual_max, witnesses, scalars = list(zip(*checked)) or [()] * 4
    least = int(np.argmin(mins)) if mins else None
    sample = {"min_ratio": mins[least] if mins else math.nan,
              "found": sum(found), "requested": total,
              "solved": sum(solved),
              "rejected": {cause: sum(r[cause] for r in rejected)
                           for cause in symbols.REJECT_CAUSES},
              "root_passes": sum(root_passes),
              "max_residual": float(max(residual_max, default=math.nan)),
              "witness": witnesses[least] if mins else None}
    return sample, scalars


def _write_json(path, doc):
    """Write ``doc`` as standard JSON, a non-finite value as null (as
    JSON.stringify writes it) and a finite float as its repr; return the
    document written."""
    doc = json.loads(json.dumps(doc, default=float),
                     parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
    return doc


def _witness(points, i):
    """Row ``i`` of the phase points (t, x, tau, xi, sigma)."""
    t, x, tau, xi, sigma = points
    return {"t": float(t[i]), "x": x[i].tolist(), "tau": float(tau[i]),
            "xi": xi[i].tolist(), "sigma": float(sigma[i])}


def _char_summary(sample, ok=True, **extra):
    """The run passes only on a full ``sample`` whose least ratio is
    positive, and only if ``ok``; ``extra`` entries follow ``min_ratio``.
    An empty sample has a null ``min_ratio`` and witness."""
    passed = (sample["found"] == sample["requested"]
              and sample["min_ratio"] > 0.0 and ok)
    return {"pass": bool(passed), "min_ratio": sample["min_ratio"], **extra,
            **sample}


# ---------------------------------------------------------------------------
# command handlers (each returns a summary dict with a "pass" entry)


def run_caputo_check(config, out, seed, threads):
    alphas = config["alphas"]
    for alpha in alphas:
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"alpha={alpha!r} must lie in (0, 2)")
    n_steps = config["n_steps"]
    t_final = config.get("t_final", 1.0)
    p = config.get("power", 2.0)
    tol_apply = config.get("tol_apply", 0.05)
    tol_oracle = config.get("tol_oracle", 1e-8)
    # the quadrature aims at least as low as the gate it is judged by
    tol_quad = min(tol_oracle, 1e-10)
    grid = TimeGrid.from_interval(t_final, n_steps)
    rows = []
    u = grid.nodes ** p
    for alpha in alphas:
        # the power rule is the Caputo derivative of t**p only past the
        # order's polynomial kernel, t**0 .. t**(ceil(alpha) - 1)
        if p <= math.ceil(alpha) - 1:
            raise ValueError(f"power={p!r} must exceed ceil(alpha) - 1 = "
                             f"{math.ceil(alpha) - 1} for the power rule at "
                             f"alpha={alpha!r}")
        exact = float(caputo_power_rule(p, alpha, t_final))
        if not math.isfinite(exact):
            raise ValueError(f"the power rule at power={p!r}, "
                             f"alpha={alpha!r} is not finite ({exact!r})")
        disc = _caputo_l1_final(u, alpha, grid.dt)
        if alpha != 1.0:
            orc = caputo_oracle(lambda t, a=alpha: (p * t**(p - 1.0)
                                                    if a < 1.0
                                                    else p * (p - 1.0) * t**(p - 2.0)),
                                alpha, t_final, tol=tol_quad)
        else:
            orc = exact
        e_apply = abs(disc - exact) / abs(exact)
        e_oracle = abs(orc - exact) / abs(exact)
        rows.append([alpha, p, t_final, n_steps, disc, orc, exact,
                     e_apply, e_oracle])
    rows = np.array(rows, dtype=float)
    # np.max, unlike max(), carries a NaN error into the verdict
    worst_apply, worst_oracle = (float(e) for e in rows[:, 7:].max(axis=0))
    write_csv(os.path.join(out, "caputo.csv"),
              ["alpha", "power", "t", "n_steps", "discrete", "oracle",
               "exact", "rel_err_discrete", "rel_err_oracle"], [rows])
    write_xy(os.path.join(out, "caputo_errors.xy"),
             [np.asarray(alphas), rows[:, 7]])
    ok = worst_apply <= tol_apply and worst_oracle <= tol_oracle
    return {"pass": bool(ok), "max_rel_err_discrete": worst_apply,
            "max_rel_err_oracle": worst_oracle}


def run_symbol_bracket(config, out, seed, threads):
    spec, hmap, frame, region = _symbol_setup(config)
    source = _seeded(config["n_samples"], seed, functools.partial(
        symbols.full_region_sample, region, spec, frame.field.n,
        **{k: config[k] for k in ("magnitude_range",) if k in config}))

    def work(points):
        return points, symbols.bracket_report_batch(points, spec, frame.field,
                                                    hmap.c, hmap.X)

    # folded in chunk order: np.min and np.max of the chunks' extremes are
    # those of the whole column, a NaN included
    non_finite = 0
    lows, highs = [], []
    with _phase_table(out, "brackets", frame.field.n,
                      ["bracket", "principal", "scale", "ratio"],
                      config["n_samples"]) as append:
        for points, columns in _chunked(source, threads, work):
            append([*points, *columns])
            ratio = columns[3]
            # a NaN or inf ratio, as from overflowing magnitudes, fails the run
            non_finite += int(np.count_nonzero(~np.isfinite(ratio)))
            lows.append(np.min(ratio))
            highs.append(np.max(ratio))
    return {"pass": non_finite == 0, "n_samples": config["n_samples"],
            "non_finite_ratios": non_finite,
            "min_ratio": float(np.min(lows)),
            "max_ratio": float(np.max(highs))}


def run_lemma21(config, out, seed, threads):
    spec, hmap, frame, region = _symbol_setup(config)
    source = _seeded(config["n_samples"], seed, functools.partial(
        symbols.char_set_sample, region, spec, frame.field, hmap.c, hmap.X,
        **{k: config[k] for k in ("tol", "sigma_range") if k in config}))

    def check(part):
        report = symbols.lemma21_check(part.points, spec, frame.field,
                                       hmap.c, hmap.X)
        return report, report.extras["kappa"]

    sample, kappas = _char_certify(source, out, threads, check, frame.field.n,
                                   config["n_samples"])
    return _char_summary(sample, n_samples=sample["found"],
                         kappa=float(np.max(kappas)) if kappas else math.nan)


def run_garding(config, out, seed, threads):
    spec, hmap, frame, region = _symbol_setup(config)
    source = _seeded(config["n_samples"], seed, functools.partial(
        symbols.full_region_sample, region, spec, frame.field.n,
        **{k: config[k] for k in ("magnitude_range",) if k in config}))

    terms_of = functools.partial(symbols._garding_terms, spec=spec,
                                 coeffs=frame.field, c=hmap.c, X=hmap.X)
    # the least varpi needs every sample's two terms, not its points: the
    # witness's chunk is made again, from the row offsets of the chunks
    elliptic, negative = np.empty((2, config["n_samples"]))
    starts = [0]
    for terms in _chunked(source, threads, terms_of):
        stop = starts[-1] + len(terms[0])
        elliptic[starts[-1]:stop], negative[starts[-1]:stop] = terms
        starts.append(stop)
    varpi, report = symbols._least_varpi(elliptic, negative,
                                         config.get("varpi_max", 1e8))
    k = int(np.searchsorted(starts, report.argmin, side="right")) - 1
    witness = _witness(source[k](), report.argmin - starts[k])
    sweep_varpis = [varpi * f for f in (0.25, 0.5, 1.0, 2.0, 4.0) if varpi * f > 0]
    curve = np.array([(v, symbols._garding_min(elliptic, negative, v)[0])
                      for v in sweep_varpis] or [(0.0, report.min_ratio)])
    write_xy(os.path.join(out, "garding_curve.xy"), [curve[:, 0], curve[:, 1]])
    write_csv(os.path.join(out, "garding.csv"), ["varpi", "min_ratio"], [curve])
    return {"pass": bool(report.passed), "varpi": varpi,
            "min_ratio": report.min_ratio, "n_samples": report.n_samples,
            "witness": witness}


def run_lemma61(config, out, seed, threads):
    tilde = geometry.global_coefficients(
        fields.field_from_config(config["coeffs"]))
    spec, hmap, frame, region = _symbol_setup(config, tilde)
    source = _seeded(config["n_samples"], seed, functools.partial(
        symbols.char_set_sample, region, spec, frame.field, hmap.c, hmap.X,
        **{k: config[k] for k in ("tol", "sigma_range") if k in config}))

    def check(part):
        report = symbols.lemma61_check(part.points, spec, tilde, hmap)
        return report, report.extras["ellipticity_margin"]

    sample, margins = _char_certify(source, out, threads, check,
                                    frame.field.n, config["n_samples"])
    margin = float(np.min(margins)) if margins else math.nan
    return _char_summary(sample, margin >= -1e-12, stage=config["stage"],
                         ellipticity_margin=margin)


def _manufactured_pieces(spec, coeffs, grid):
    """u* = t^2 S, S = prod sin(pi y_d), and its source for the field.

    The source is sum q D^alpha(t^2) S - t^2 sum a_jk d_j d_k S, with ``a``
    sampled once on the broadcast (t, Y).  Both take ``t`` on a broadcast
    time axis, shape (m, 1, ..., 1): the solver samples the source a block
    of levels at a time, and the error takes every level at once.
    """
    def exact(t, Y):
        v = np.asarray(t, dtype=float) ** 2
        for d in range(grid.ndim):
            v = v * np.sin(np.pi * Y[..., d])
        return v

    def source(t, Y):
        n = grid.ndim
        sines = [np.sin(np.pi * Y[..., d]) for d in range(n)]
        sine = math.prod(sines, start=np.ones(Y.shape[:-1]))
        tfrac = sum(q * caputo_power_rule(2.0, al, np.maximum(t, 0.0))
                    for q, al in zip(spec.weights, spec.orders))
        a = coeffs.a(t, Y)
        # d_j d_j S = -pi^2 S; for j != k, d_j d_k S = pi^2 cos cos prod sin
        trace = sum(a[..., d, d] for d in range(n))
        f = (tfrac + np.pi**2 * trace * t**2) * sine
        for j in range(n):
            for k in range(j + 1, n):
                mixed = math.prod(
                    (sines[d] for d in range(n) if d not in (j, k)),
                    start=np.cos(np.pi * Y[..., j]) * np.cos(np.pi * Y[..., k]))
                f = f - 2.0 * np.pi**2 * t**2 * a[..., j, k] * mixed
        return f

    return exact, source


def run_solve(config, out, seed, threads):
    spec = _build_spec(config["spec"])
    coeffs = fields.field_from_config(config["coeffs"])
    grid = _build_grid(config["grid"])
    times = grid.time.nodes.reshape((-1,) + (1,) * grid.ndim)
    mesh = grid.mesh()
    # a source section selects the bump; without one, the manufactured u*
    src_cfg = config.get("source")
    if src_cfg is None:
        exact, source = _manufactured_pieces(spec, coeffs, grid)
    else:
        center = np.asarray(src_cfg.get("center", [0.5] * grid.ndim))
        width = src_cfg.get("width", 0.1)
        if not width > 0.0:
            raise ValueError(f"source width must be positive, got {width}")
        if len(center) != grid.ndim:
            raise ValueError(f"source center has length {len(center)}, "
                             f"the grid dimension is {grid.ndim}")

        def source(t, Y):
            r2 = np.sum(((Y - center) / width) ** 2, axis=-1)
            return np.clip(1.0 - r2, 0.0, None) ** 4 * np.minimum(t, 1.0) ** 2
        exact = None
    # the blocks the solver samples, up to the first nonzero one
    inner = (slice(None),) + grid.interior()
    if not any(block[inner].any()
               for _, block in solver.source_blocks(source, grid)):
        raise ValueError("source is zero on every interior node")
    # by keyword: bench/spans.py reads args[4] or kwargs["grid"]
    result = solver.solve(spec, coeffs, source, grid=grid)
    sol = result.field
    np.save(os.path.join(out, "solution.npy"), sol.values)
    _write_json(os.path.join(out, "solution.json"), {
        "n_space": grid.ndim, "shape": list(grid.shape),
        "n_steps": grid.time.n_steps, "dt": grid.time.dt,
        "bounds": [list(b) for b in grid.bounds], "bc": sol.bc,
        "source": sol.source})
    final = sol.values[-1].reshape(-1)
    write_csv(os.path.join(out, "final_slice.csv"),
              [f"y{i + 1}" for i in range(grid.ndim)] + ["u"],
              [mesh.reshape(-1, grid.ndim), final])
    nodes = grid.axes()[0] if grid.ndim == 1 else np.arange(final.size)
    write_xy(os.path.join(out, "final_profile.xy"), [nodes, final])
    summary = {"pass": bool(result.diagnostics["equation_residual_max"]
                            <= 1e-10), **result.diagnostics}
    if exact is not None:
        err = exact(times, mesh)
        err -= sol.values
        np.abs(err, out=err)
        summary["max_error"] = float(err.max())
    return summary


def run_carleman_sweep(config, out, seed, threads):
    spec, _, frame, _ = _symbol_setup(config)
    grid = _build_grid(config["grid"])
    bumps = carl.default_bump_family(grid, count=config.get("n_bumps", 5))
    result = carl.beta_sweep(config["betas"], spec, bumps, grid, frame,
                             include_drift=config.get("include_drift", True))
    carl.sweep_rows_csv(result, os.path.join(out, "sweep.csv"))
    growth = result.top_half_monotone_growth()
    for tid, pairs in result.ratios_by_test().items():
        write_xy(os.path.join(out, f"ratio_test{tid}.xy"),
                 np.array(sorted(pairs)).T)
    ok = (result.flagged == 0 and math.isfinite(result.max_ratio)
          and result.spread <= config.get("spread_max", 100.0)
          and not growth)
    return {"pass": bool(ok), "max_ratio": result.max_ratio,
            "min_ratio": result.min_ratio, "spread": result.spread,
            "flagged": result.flagged, "top_half_monotone_growth": growth}


def run_ucp_demo(config, out, seed, threads):
    rows = solver.ucp_experiment(
        _build_spec(config["spec"]),
        fields.field_from_config(config["coeffs"]),
        _build_grid(config["grid"]), tuple(config["omega"]),
        config["t_prime"], config["source_centers"],
        config.get("source_width", 0.08))
    floor = config.get("floor", 1e-13)
    ratios = [r[4] for r in rows]     # not empty: the schema's minItems
    write_csv(os.path.join(out, "ucp.csv"),
              ["center", "distance", "norm_window", "norm_total", "ratio"],
              [np.asarray(rows, dtype=float)])
    write_xy(os.path.join(out, "ucp_ratio.xy"),
             [np.array([r[1] for r in rows]), np.array(ratios)])
    return {"pass": all(r > floor for r in ratios), "min_ratio": min(ratios),
            "floor": floor}


def run_continuation_plan(config, out, seed, threads):
    rng = np.random.default_rng(seed)
    schedule = geometry.continuation_schedule(
        T=config["T"], X=config["X"], s_max=config["s_max"], n=config["n"],
        c=config.get("c", 1.0))
    _write_json(os.path.join(out, "schedule.json"),
                [{"map": m.to_dict(), "region": r.to_dict()}
                 for m, r in schedule])
    # quick self-check: exact round trips and the stage recursion
    n_check = config.get("n_check", 1000)
    # the errors reduce by np.max, which carries a NaN into the verdict
    errors = []
    for hmap, _ in schedule:
        t = rng.uniform(0.0, config["T"], n_check)
        y = rng.normal(size=(n_check, config["n"]))
        _, x = hmap.forward(t, y)
        _, back = hmap.inverse(t, x)
        errors.append(np.abs(back - y).max())
    gaps = []
    for (m1, _), (m2, _) in zip(schedule, schedule[1:]):
        t = rng.uniform(0.0, config["T"], n_check)
        y = rng.normal(size=(n_check, config["n"]))
        x1 = m1.forward(t, y)[1][..., -1]
        x2 = m2.forward(t, y)[1][..., -1]
        gap = x2 - (x1 + config["X"] * t / config["T"] - config["X"])
        gaps.append(np.abs(gap).max())
    worst = float(np.max(errors, initial=0.0))
    stage_gap = float(np.max(gaps, initial=0.0))
    ok = worst <= 1e-14 and stage_gap <= 1e-14
    return {"pass": bool(ok), "stages": config["s_max"],
            "roundtrip_error": worst, "stage_identity_error": stage_gap}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description=("configured verification runs with CSV/npy/JSON/xy "
                     "artifacts"))
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    for flag, least in (("seed", 0), ("threads", 1)):
        if getattr(args, flag) < least:
            parser.error(f"argument --{flag}: must be at least {least}, "
                         f"got {getattr(args, flag)}")

    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_float=_finite,
                               parse_constant=_finite)
        validate_config(args.command, config)
        created = not os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # looked up at call time, so a handler replaced on the module is the
    # one that runs
    handler = globals()["run_" + args.command.replace("-", "_")]
    try:
        summary = handler(config, args.out, args.seed, args.threads)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a rejected run leaves no empty directory of its own making
        if created and not os.listdir(args.out):
            os.rmdir(args.out)
        return 3

    summary = _write_json(os.path.join(args.out, "summary.json"),
                          {"command": args.command, "seed": args.seed,
                           **summary})
    print(("PASS" if summary["pass"] else "FAIL")
          + f" {args.command}: " + json.dumps(
              {k: v for k, v in summary.items() if k not in ("command",)},
              allow_nan=False))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
