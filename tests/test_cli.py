import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
from numpy.lib import recfunctions

import pytest

import fraclab
from fraclab import cli, geometry, solver, symbols
from fraclab.cli import COMMANDS, _build_region, _chunk_counts, main

# an overflow or a NaN in a command fails its test instead of printing
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DEMO_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos/configs"
SPEC = {"orders": [0.5], "weights": [1.0]}
COEFFS1 = {"preset": "identity", "n": 1}
COEFFS2 = {"preset": "diagonal-variable", "n": 2, "amplitude": 0.3}
MAP1 = {"c": 1.0, "X": 0.05, "T": 1.0}
WEIGHT = {"X": 0.05}
GRID1 = {"bounds": [[0.0, 1.0]], "shape": [9], "n_steps": 8, "t_final": 1.0}
# a = 1 + t y_1 / 4 as monomial tables
POLYNOMIAL1 = {"preset": "polynomial", "n": 1, "delta": 0.5, "tables": [
    {"j": 0, "k": 0, "terms": [{"coeff": 1.0, "t_pow": 0, "y_pows": [0]},
                               {"coeff": 0.25, "t_pow": 1, "y_pows": [1]}]}]}

# smallest valid config of every command
SYMBOL = {"spec": SPEC, "coeffs": COEFFS1, "map": MAP1, "weight": WEIGHT,
          "n_samples": 10}
VALID = {
    "caputo-check": {"alphas": [0.5], "n_steps": 8},
    "symbol-bracket": SYMBOL, "lemma21": SYMBOL,
    "garding": SYMBOL, "lemma61": {**SYMBOL, "stage": 2},
    "solve": {"spec": SPEC, "coeffs": COEFFS1, "grid": GRID1},
    "carleman-sweep": {"spec": SPEC, "coeffs": COEFFS1, "map": MAP1,
                       "weight": WEIGHT, "grid": GRID1, "betas": [1.0, 10.0]},
    "ucp-demo": {"spec": SPEC, "coeffs": COEFFS1, "grid": GRID1,
                 "omega": [0.05, 0.25], "t_prime": 0.5,
                 "source_centers": [0.6]},
    "continuation-plan": {"T": 1.0, "X": 0.05, "s_max": 2, "n": 1},
}

# configs rejected below the top level, and where
LOCATED = [
    ("ucp-demo", {**VALID["ucp-demo"], "source_centers": []},
     "$.source_centers"),
    ("solve", {**VALID["solve"], "manufactured": False,
               "source": {"centre": [0.2]}}, "$.source"),
    ("solve", {**VALID["solve"], "coeffs": {
        k: v for k, v in POLYNOMIAL1.items() if k != "delta"}},
     "$.coeffs"),
    ("solve", {**VALID["solve"], "coeffs": {
        **POLYNOMIAL1, "tables": [{"j": 0, "k": 0}]}},
     "$.coeffs.tables[0]"),
    ("solve", {**VALID["solve"], "coeffs": {
        **POLYNOMIAL1, "tables": [{"j": 0, "k": 0, "terms": [
            {"coeff": 1.0, "t_pow": 0}]}]}},
     "$.coeffs.tables[0].terms[0]"),
]


def run(tmp_path, command, config, seed=0, threads=1, tag="run"):
    cfg_path = tmp_path / f"{tag}.json"
    out_dir = tmp_path / f"{tag}_out"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir),
                 "--seed", str(seed), "--threads", str(threads)])
    return code, out_dir


class TestValidation:
    def test_empty_config_names_first_missing_field(self, tmp_path, capsys):
        code, _ = run(tmp_path, "lemma21", {})
        assert code == 2
        err = capsys.readouterr().err
        assert "required" in err
        assert "spec" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        config = {"alphas": [0.5], "n_steps": 64, "bogus": 1}
        code, _ = run(tmp_path, "caputo-check", config)
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lemma21", "caputo-check"])
    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--threads", "0"), ("--threads", "-5")],
        ids=["negative-seed", "zero-threads", "negative-threads"])
    def test_seed_and_threads_are_checked(self, command, flag, value,
                                          tmp_path, capsys):
        # --threads below 1 ran one worker; a negative --seed died in
        # numpy (lemma21, exit 3) or was recorded in summary.json
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(VALID[command]))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out),
                  flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(["caputo-check", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command, config, where", LOCATED,
                             ids=["no-source-centers", "source-key",
                                  "polynomial-no-delta", "table-no-terms",
                                  "term-no-y-pows"])
    def test_nested_config_error_is_located(self, command, config, where,
                                            tmp_path, capsys):
        code, _ = run(tmp_path, command, config)
        assert code == 2
        assert f"config error at {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN",
                                       "1e999"])
    def test_non_finite_number_is_a_config_error(self, token, tmp_path,
                                                 capsys):
        # json.load accepts these, and a "number" is any float: the run
        # died in the sampler with exit 1, the code of a FAIL verdict
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SYMBOL, "region": {"t": [0.0, 7.0]}})
                       .replace("7.0", token))
        out = tmp_path / "out"
        code = main(["lemma21", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"{token} is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, where", [
        ("continuation-plan", "s_max", 2.0, "$.s_max"),
        ("caputo-check", "n_steps", 64.0, "$.n_steps"),
        ("solve", "grid", {**GRID1, "shape": [9.0]}, "$.grid.shape[0]")])
    def test_float_integer_is_rejected(self, command, key, value, where,
                                       tmp_path, capsys):
        # JSON Schema Draft 2020-12 counts 2.0 as an integer, but the
        # handlers count with it (range(2.0) raises): only a JSON integer is
        code, _ = run(tmp_path, command, {**VALID[command], key: value})
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error at {where}: " in err
        assert "is not of type 'integer'" in err

    def test_polynomial_preset_solves(self, tmp_path):
        config = {**VALID["solve"], "coeffs": POLYNOMIAL1}
        code, out = run(tmp_path, "solve", config)
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["pass"]


# configs with every optional field that VALID leaves out
RICH = [
    ("lemma21", {**SYMBOL, "map": {**MAP1, "y_hat": [0.0]},
                 "region": {"t": [0.1, 0.9], "xn": [0.0, 0.05],
                            "xprime_halfwidth": 0.5},
                 "tol": 1e-8, "sigma_range": [0.5, 2.0]}),
    ("garding", {**SYMBOL, "varpi_max": 1e6, "magnitude_range": [1.0, 10.0]}),
    ("solve", {**VALID["solve"], "coeffs": POLYNOMIAL1, "manufactured": False,
               "source": {"center": [0.5], "width": 0.1}}),
    ("carleman-sweep", {**VALID["carleman-sweep"], "n_bumps": 2,
                        "include_drift": False, "spread_max": 10.0}),
    ("caputo-check", {**VALID["caputo-check"], "t_final": 1.0, "power": 2.0,
                      "tol_apply": 0.05, "tol_oracle": 1e-8}),
    ("ucp-demo", {**VALID["ucp-demo"], "source_width": 0.08,
                  "floor": 1e-13}),
    ("continuation-plan", {**VALID["continuation-plan"], "c": 1.0,
                           "n_check": 10}),
]


def _nodes(value, schema, path=()):
    """Every (path, value, schema) of a valid config, the root first."""
    yield path, value, schema
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, schema["properties"][key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], path + (i,))


def _replaced(config, path, new):
    """A copy of ``config`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = list(config) if isinstance(config, list) else dict(config)
    copy[path[0]] = _replaced(config[path[0]], path[1:], new)
    return copy


def _mutations(config, schema):
    """(path, replacement) pairs that change a valid config at one place."""
    for path, value, sub in _nodes(config, schema):
        changes = ["text"]      # a wrong type, or an unknown preset
        if isinstance(value, dict):
            changes += [{k: v for k, v in value.items() if k != key}
                        for key in value]
            changes.append({**value, "bogus_key": 1})
        if isinstance(value, list):
            changes += [[], value + value[-1:]]
        if sub.get("type") in ("number", "integer"):
            changes.append(True)
        if sub.get("type") == "integer":
            changes += [sub["minimum"] - 1, value + 0.5]
        for new in changes:
            yield path, new


def _bases(command):
    return [VALID[command]] + [c for name, c in RICH if name == command]


def _corpus(command):
    """Valid configs, each one-place change of them, and every seventh pair
    of changes under two different top-level keys (so that the shallowest
    error and the first path in order can differ)."""
    bases = _bases(command)
    corpus = list(bases) + [c for name, c, _ in LOCATED if name == command]
    for base in bases:
        changes = list(_mutations(base, cli.SCHEMAS[command]))
        corpus += [_replaced(base, path, new) for path, new in changes]
        pairs = [(a, b) for a, b in itertools.combinations(changes, 2)
                 if a[0] and b[0] and a[0][0] != b[0][0]]
        corpus += [_replaced(_replaced(base, *a), *b) for a, b in pairs[::7]]
    return corpus


def _dollar(path):
    return "$" + "".join(f".{p}" if isinstance(p, str) else f"[{p}]"
                         for p in path)


def _where(command, config):
    """The ``$`` path that validate_config reports, or None."""
    try:
        cli.validate_config(command, config)
    except cli.ConfigError as exc:
        return str(exc).removeprefix("config error at ").split(": ")[0]
    return None


def _schemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key in ("items", "if", "then"):
        if key in schema:
            yield from _schemas(schema[key])
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)


class TestValidator:
    """validate_config against jsonschema's Draft 2020-12 validator."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_agrees_with_jsonschema(self, command):
        jsonschema = pytest.importorskip("jsonschema")
        oracle = jsonschema.Draft202012Validator(cli.SCHEMAS[command])
        corpus = _corpus(command)
        rejected = 0
        for config in corpus:
            errors = sorted(oracle.iter_errors(config), key=lambda e: (
                len(e.absolute_path), str(e.absolute_path)))
            expected = _dollar(errors[0].absolute_path) if errors else None
            assert _where(command, config) == expected, config
            rejected += expected is not None
        assert len(corpus) - rejected >= 1 and rejected >= 20

    @pytest.mark.parametrize("command", COMMANDS)
    def test_float_integers_are_the_one_difference(self, command):
        # Draft 2020-12 admits 2.0 where an integer goes; this validator
        # admits JSON integers only
        jsonschema = pytest.importorskip("jsonschema")
        schema = cli.SCHEMAS[command]
        oracle = jsonschema.Draft202012Validator(schema)
        for base in _bases(command):
            for path, value, sub in _nodes(base, schema):
                if sub.get("type") == "integer":
                    config = _replaced(base, path, float(value))
                    assert oracle.is_valid(config)
                    assert _where(command, config) == _dollar(path)

    def test_schemas_use_only_implemented_keywords(self):
        for command, schema in cli.SCHEMAS.items():
            for sub in _schemas(schema):
                assert set(sub) <= cli._KEYWORDS, (command, sub)
                assert sub.get("type", "object") in cli._TYPES
                assert sub.get("additionalProperties", False) is False

    @pytest.mark.parametrize("keyword", [
        {"minProperties": 1}, {"additionalProperties": {"type": "number"}},
        {"type": "string"}], ids=["unknown", "schema-valued", "string-type"])
    def test_unimplemented_keyword_raises(self, keyword, monkeypatch):
        monkeypatch.setitem(cli.SCHEMAS, "caputo-check",
                            {**cli.SCHEMAS["caputo-check"], **keyword})
        with pytest.raises(NotImplementedError):
            cli.validate_config("caputo-check", VALID["caputo-check"])


def _writer_table(rows):
    """A (rows, 3) table and a column of wide-ranging doubles, specials
    first."""
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(
        -300, 300, (rows, 3))
    column = rng.normal(size=rows)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0]
    table.flat[:len(specials)] = specials[:table.size]
    column[:len(specials)] = specials[:rows]
    return table, column


WRITER_ROWS = [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK, cli.WRITE_BLOCK + 1]


class TestWriters:
    """The block writers give the bytes of np.savetxt with "%.17g", and of
    np.save of the stacked structured array."""

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    def test_bytes_equal_savetxt(self, tmp_path, rows):
        table, column = _writer_table(rows)

        def same(mine, ref):
            return (tmp_path / mine).read_bytes() == (tmp_path / ref).read_bytes()

        cli.write_csv(tmp_path / "a.csv", ["p", "q", "r", "s"],
                      [table, column])
        np.savetxt(tmp_path / "b.csv", np.column_stack([table, column]),
                   fmt="%.17g", delimiter=",", header="p,q,r,s", comments="")
        assert same("a.csv", "b.csv")
        cli.write_csv(tmp_path / "a1.csv", ["p", "q", "r"], [table])
        np.savetxt(tmp_path / "b1.csv", table, fmt="%.17g", delimiter=",",
                   header="p,q,r", comments="")
        assert same("a1.csv", "b1.csv")
        cli.write_xy(tmp_path / "a.xy", [column, table])
        np.savetxt(tmp_path / "b.xy", np.column_stack([column, table]),
                   fmt="%.17g")
        assert same("a.xy", "b.xy")
        cli.write_xy(tmp_path / "a1.xy", [column])
        np.savetxt(tmp_path / "b1.xy", column, fmt="%.17g")
        assert same("a1.xy", "b1.xy")
        # an integer column prints as savetxt prints its float image
        cli.write_xy(tmp_path / "a2.xy", [np.arange(rows), column])
        np.savetxt(tmp_path / "b2.xy", np.column_stack([np.arange(rows),
                                                        column]), fmt="%.17g")
        assert same("a2.xy", "b2.xy")

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    def test_npy_bytes_equal_save(self, tmp_path, rows):
        table, column = _writer_table(rows)
        # a reversed view is a non-contiguous 2-D column
        columns = [column, table[:, ::-1], column]
        names = ["p", "q1", "q2", "q3", "r"]
        cli.write_npy(tmp_path / "a.npy", names, columns)
        stacked = recfunctions.unstructured_to_structured(
            np.column_stack(columns),
            np.dtype([(name, "<f8") for name in names]))
        np.save(tmp_path / "b.npy", stacked)
        assert (tmp_path / "a.npy").read_bytes() \
            == (tmp_path / "b.npy").read_bytes()
        assert np.load(tmp_path / "a.npy").dtype.names == tuple(names)

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    def test_npy_round_trips_the_csv(self, tmp_path, rows):
        # %.17g round-trips a double, so both files hold the same bits
        table, column = _writer_table(rows)
        names = ["p", "q1", "q2", "q3"]
        cli.write_csv(tmp_path / "a.csv", names, [column, table])
        cli.write_npy(tmp_path / "a.npy", names, [column, table])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # empty at 0 rows
            text = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1,
                              ndmin=2).reshape(rows, len(names))
        binary = recfunctions.structured_to_unstructured(
            np.load(tmp_path / "a.npy"))
        assert binary.shape == text.shape
        assert np.array_equal(np.isnan(binary), np.isnan(text))
        kept = ~np.isnan(text)
        assert np.array_equal(binary[kept].view(np.uint64),
                              text[kept].view(np.uint64))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_npy_names_must_match_columns(self, tmp_path, rows):
        with pytest.raises(ValueError, match="3 field names for 4 columns"):
            cli.write_npy(tmp_path / "a.npy", ["p", "q", "r"],
                          [np.zeros(rows), np.zeros((rows, 3))])
        assert not (tmp_path / "a.npy").exists()


class TestCommandTable:
    def test_every_command_has_one_handler(self):
        assert set(VALID) == set(COMMANDS)
        handlers = {name for name in vars(cli) if name.startswith("run_")}
        assert handlers == {f"run_{c.replace('-', '_')}" for c in COMMANDS}

    def test_readme_lists_every_command(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text()
        listed = re.search(r"\nCommands: (.*?)\.\s", readme, re.S).group(1)
        assert tuple(re.findall(r"`([^`]*)`", listed)) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_config_names_a_required_field(self, command, tmp_path,
                                                 capsys):
        code, _ = run(tmp_path, command, {})
        assert code == 2
        err = capsys.readouterr().err
        assert "is a required property" in err
        assert any(f"'{name}'" in err
                   for name in cli.SCHEMAS[command]["required"])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_is_named(self, command, tmp_path, capsys):
        cli.validate_config(command, VALID[command])
        code, _ = run(tmp_path, command, {**VALID[command], "bogus_key": 1})
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lemma21", "lemma61"])
    def test_map_has_no_stage_key(self, command, tmp_path, capsys):
        # lemma61's stage is its top-level key, and no other command has
        # a stage: a map.stage would run at another stage, or none, silently
        config = {**VALID[command], "map": {**MAP1, "stage": 3}}
        code, out = run(tmp_path, command, config)
        assert code == 2
        assert ("config error at $.map: Additional properties are not "
                "allowed ('stage' unexpected)" in capsys.readouterr().err)
        assert not out.exists()

    def test_symbol_bracket_has_no_mode_key(self, tmp_path, capsys):
        # both brackets are always written, so a mode switch selects nothing
        code, _ = run(tmp_path, "symbol-bracket",
                      {**VALID["symbol-bracket"], "mode": "full"})
        assert code == 2
        assert "'mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_calls_the_module_handler(self, command, tmp_path,
                                           monkeypatch):
        calls = []

        def handler(*args):
            calls.append(args)
            return {"pass": True, "marker": 1}

        name = "run_" + command.replace("-", "_")
        monkeypatch.setattr(cli, name, handler)
        code, out = run(tmp_path, command, VALID[command], seed=9, threads=2)
        assert code == 0
        assert calls == [(VALID[command], str(out), 9, 2)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"command": command, "seed": 9, "pass": True,
                           "marker": 1}


def recording_solve(monkeypatch):
    """Patch ``solver.solve`` to record its arguments and every call that it
    makes to its source.  Returns ``(captured, calls)``: one ``(spec,
    coeffs, source, grid)`` per solve, and ``(t, f(t, Y))`` per call."""
    captured, calls = [], []
    original = solver.solve

    def capturing(spec, coeffs, source, grid, **kwargs):
        captured.append((spec, coeffs, source, grid))

        def recorded(t, Y):
            f = source(t, Y)
            calls.append((t, f))
            return f

        return original(spec, coeffs, recorded, grid=grid, **kwargs)

    monkeypatch.setattr(solver, "solve", capturing)
    return captured, calls


def sampled_passes(calls, grid):
    """The recorded source blocks, split into passes over every level.

    Each pass calls with ``t`` of shape (m, 1, ..., 1) on consecutive
    levels from level 0 on, and returns the blocks' samples."""
    levels = grid.time.nodes
    passes, start = [], 0
    for t, f in calls:
        assert t.shape == (len(t),) + (1,) * grid.ndim
        assert t.ravel().tobytes() == levels[start:start + len(t)].tobytes()
        if start == 0:
            passes.append([])
        passes[-1].append(f)
        start = (start + len(t)) % len(levels)
    assert start == 0
    return passes


class TestCommands:
    def test_caputo_check(self, tmp_path):
        config = {"alphas": [0.25, 0.5, 1.25, 1.75], "n_steps": 512}
        code, out = run(tmp_path, "caputo-check", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert (out / "caputo.csv").exists()
        assert (out / "caputo_errors.xy").exists()

    def test_caputo_check_oracle_is_near_exact(self, tmp_path):
        # the benchmark's six orders; the oracle does not use n_steps
        config = {"alphas": [0.25, 0.5, 0.75, 1.25, 1.5, 1.75],
                  "n_steps": 256}
        code, out = run(tmp_path, "caputo-check", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_rel_err_oracle"] <= 1e-12

    def test_caputo_check_quadrature_meets_a_tight_gate(self, tmp_path):
        # the oracle's quadrature is asked for the gate it is judged by
        config = {"alphas": [0.25, 0.5], "n_steps": 256, "tol_oracle": 1e-14}
        code, out = run(tmp_path, "caputo-check", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_rel_err_oracle"] <= 1e-14

    @pytest.mark.parametrize("alphas, power, cause", [
        ([0.5, 1.5], 200, "is not finite"),       # Gamma(201) overflows
        ([1.5], 1, "must exceed ceil(alpha) - 1"),
        ([0.5], 0, "must exceed ceil(alpha) - 1"),
    ], ids=["gamma-overflow", "linear-above-one", "constant"])
    def test_caputo_check_rejects_a_power_the_rule_misses(
            self, alphas, power, cause, tmp_path, capsys):
        config = {"alphas": alphas, "n_steps": 64, "power": power}
        code, out = run(tmp_path, "caputo-check", config)
        assert code == 3
        err = capsys.readouterr().err
        assert cause in err
        assert f"power={power!r}" in err and f"alpha={alphas[0]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [2.5, 2.0, 0.0, -0.5])
    def test_caputo_check_names_an_order_outside_zero_two(self, alpha,
                                                         tmp_path, capsys):
        # alpha 2.5 failed the power rule's check, "power=2.0 must exceed
        # ceil(alpha) - 1 = 2", which is not the cause
        config = {"alphas": [0.5, alpha], "n_steps": 64, "power": 2.0}
        code, out = run(tmp_path, "caputo-check", config)
        assert code == 3
        assert (f"alpha={alpha!r} must lie in (0, 2)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["caputo-check", "solve"])
    @pytest.mark.parametrize("t_final", [-1, 0])
    def test_a_non_positive_time_step_names_its_cause(self, command, t_final,
                                                       tmp_path, capsys):
        config = dict(VALID[command])
        if command == "solve":
            config["grid"] = {**GRID1, "t_final": t_final}
        else:
            config["t_final"] = t_final
        code, out = run(tmp_path, command, config)
        assert code == 3
        assert (f"t_final={t_final!r} over n_steps=8 gives "
                f"dt={t_final / 8!r}; dt must be positive"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, name, value", [
        ("symbol-bracket", {"magnitude_range": [0, 1000]}, "magnitude_range",
         (0, 1000)),
        ("garding", {"magnitude_range": [-1, 10]}, "magnitude_range",
         (-1, 10)),
        ("garding", {"magnitude_range": [10, 1]}, "magnitude_range", (10, 1)),
        ("lemma21", {"sigma_range": [0.0, 1.0]}, "sigma_range",
         (0.0, 1.0)),
        ("lemma21", {"sigma_range": [2.0, 1.0]}, "sigma_range", (2.0, 1.0)),
        ("lemma21", {"region": {"t": [0.9, 0.1]}}, "t_range", (0.9, 0.1)),
        ("lemma21", {"region": {"xprime_halfwidth": -0.1}},
         "xprime_halfwidth", -0.1),
    ], ids=["magnitude-zero", "magnitude-negative", "magnitude-reversed",
            "sigma-zero", "sigma-reversed", "region-reversed",
            "region-negative-width"])
    def test_sampled_range_is_checked(self, command, extra, name, value,
                                      tmp_path, capsys):
        code, out = run(tmp_path, command, {**VALID[command], **extra})
        assert code == 3
        assert f"{name}={value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(VALID["caputo-check"]))
        code = main(["caputo-check", "--config", str(cfg),
                     "--out", str(taken)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == ""

    def test_lemma21_pass_and_determinism(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 400}
        code1, out1 = run(tmp_path, "lemma21", config, seed=5, tag="a")
        code2, out2 = run(tmp_path, "lemma21", config, seed=5, tag="b")
        assert code1 == code2 == 0
        assert (out1 / "char_points.npy").read_bytes() \
            == (out2 / "char_points.npy").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["pass"] and summary["min_ratio"] > 0.0

    def test_threads_do_not_change_results(self, tmp_path):
        base = {"spec": SPEC, "coeffs": COEFFS1, "map": MAP1,
                "weight": WEIGHT, "n_samples": 300}
        configs = {"lemma21": base,
                   "lemma61": {**base, "stage": 3},
                   "garding": {**base, "n_samples": 3000},
                   "symbol-bracket": base}
        suffixes = (".csv", ".npy", ".xy")
        for command, config in configs.items():
            # threads 1, 2 and 3, and a repeat at 3
            outs = [run(tmp_path, command, config, seed=3, threads=threads,
                        tag=f"{command}{tag}")[1]
                    for tag, threads in (("1", 1), ("2", 2), ("3", 3),
                                         ("3again", 3))]
            names = sorted(p.name for p in outs[0].iterdir()
                           if p.suffix in suffixes)
            assert len(names) >= 2
            for out in outs[1:]:
                assert names == sorted(p.name for p in out.iterdir()
                                       if p.suffix in suffixes)
                for name in names:
                    assert (out / name).read_bytes() \
                        == (outs[0] / name).read_bytes()

    def test_rejection_counts_do_not_depend_on_threads(self, tmp_path):
        # sigma from 10 is below the sign-change floor for part of the seeds,
        # and the tolerance rejects part of the solved ones
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 300,
                  "sigma_range": [10.0, 60.0], "tol": 2e-18}
        for command, extra in (("lemma21", {}), ("lemma61", {"stage": 2})):
            counts = []
            for threads in (1, 2, 3):
                _, out = run(tmp_path, command, {**config, **extra}, seed=4,
                             threads=threads, tag=f"{command}{threads}")
                summary = json.loads((out / "summary.json").read_text())
                counts.append((summary["solved"], summary["rejected"],
                               summary["root_passes"]))
            assert counts[0] == counts[1] == counts[2]
            solved, rejected, passes = counts[0]
            assert sorted(rejected) == sorted(symbols.REJECT_CAUSES)
            assert rejected["no_sign_change"] > 0 and rejected["residual"] > 0
            assert solved == summary["found"] + rejected["residual"]
            # every chunk evaluates its first bracket at least once and
            # refines at least once
            assert passes >= 2 * cli.N_CHUNKS
        varpis = []
        for threads in (1, 2, 3):
            _, out = run(tmp_path, "garding",
                         {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                          "weight": WEIGHT, "n_samples": 3000}, seed=4,
                         threads=threads, tag=f"garding{threads}")
            summary = json.loads((out / "summary.json").read_text())
            assert "varpi_steps" not in summary
            varpis.append(summary["varpi"])
        assert varpis[0] == varpis[1] == varpis[2] > 0.0

    @pytest.mark.parametrize("command", ["lemma21", "lemma61"])
    def test_char_sample_partial_fails(self, command, tmp_path, capsys):
        # 9 of 50 points, all with a positive ratio, used to pass
        config = {"spec": SPEC, "coeffs": COEFFS1, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 50, "sigma_range": [3, 12],
                  **({"stage": 2} if command == "lemma61" else {})}
        code, out = run(tmp_path, command, config)
        assert code == 1
        assert capsys.readouterr().out.startswith(f"FAIL {command}")
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["found"], summary["requested"]) == (9, 50)
        assert summary["min_ratio"] > 0.0
        assert 0.0 < summary["max_residual"] <= 1e-8

    def test_garding(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS1, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 5000}
        code, out = run(tmp_path, "garding", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_ratio"] > 0.0
        assert (out / "garding_curve.xy").exists()

    def test_garding_with_nan_terms_is_an_error(self, tmp_path, monkeypatch,
                                                capsys):
        # a tau past the float range, which an in-range magnitude no longer
        # produces, makes the terms NaN, which no varpi makes positive
        original = symbols.full_region_sample

        def with_inf(*args, **kwargs):
            t, x, tau, xi, sigma = original(*args, **kwargs)
            tau[:2] = np.inf
            return t, x, tau, xi, sigma

        monkeypatch.setattr(symbols, "full_region_sample", with_inf)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run(tmp_path, "garding", VALID["garding"])
        assert code == 3
        assert "terms are NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_garding_curve_matches_separate_checks(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 3000}
        _, out = run(tmp_path, "garding", config, seed=6)
        spec = fraclab.MultiTermSpec(orders=(0.5,), weights=(1.0,))
        weight = symbols.CarlemanWeightParams(X=0.05)
        hmap = fraclab.HolmgrenMap(y_hat=np.zeros(2), **MAP1)
        frame = fraclab.pushforward_operator(
            fraclab.field_from_config(COEFFS2), hmap)
        region = _build_region(None, weight, hmap.T)
        counts = _chunk_counts(3000)
        seeds = np.random.SeedSequence(6).spawn(len(counts))
        parts = [symbols.full_region_sample(region, spec, 2, k,
                                            np.random.default_rng(sd))
                 for k, sd in zip(counts, seeds)]
        pts = tuple(np.concatenate([p[j] for p in parts]) for j in range(5))
        rows = np.loadtxt(out / "garding.csv", delimiter=",", skiprows=1)
        assert len(rows) == 5
        for varpi, min_ratio in rows:
            report = symbols.garding_precondition_check(
                pts, spec, frame.field, weight, 1.0, varpi)
            assert min_ratio == report.min_ratio

    def test_lemma61(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 300, "stage": 3}
        code, out = run(tmp_path, "lemma61", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_ratio"] > 0.0
        assert summary["ellipticity_margin"] >= -1e-12

    @pytest.mark.parametrize("command, fail", [
        ("lemma21", False), ("lemma61", False), ("garding", False),
        ("lemma21", True), ("lemma61", True)],
        ids=["lemma21", "lemma61", "garding", "lemma21-fail", "lemma61-fail"])
    def test_witness_reproduces_the_minimum(self, tmp_path, command, fail):
        # the summary alone (with the config) gives the minimum back, for a
        # FAIL as for a PASS
        if fail:
            # the demo config at the single order 1.9 refutes the bound
            demo = DEMO_CONFIGS / f"{command}.json"
            config = {**json.loads(demo.read_text()),
                      "spec": {"orders": [1.9], "weights": [1.0]},
                      "n_samples": 500}
            code, out = run(tmp_path, command, config, seed=3)
        else:
            config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                      "weight": WEIGHT, "n_samples": 400}
            if command == "lemma61":
                config["stage"] = 3
            code, out = run(tmp_path, command, config, seed=7)
        assert code == (1 if fail else 0)
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["min_ratio"] < 0.0) == fail
        w = summary["witness"]
        point = (np.array([w["t"]]), np.array([w["x"]]),
                 np.array([w["tau"]]), np.array([w["xi"]]),
                 np.array([w["sigma"]]))
        spec = fraclab.MultiTermSpec(orders=tuple(config["spec"]["orders"]),
                                     weights=tuple(config["spec"]["weights"]))
        weight = symbols.CarlemanWeightParams(X=config["weight"]["X"])
        field = fraclab.field_from_config(config["coeffs"])
        hmap = fraclab.HolmgrenMap(y_hat=np.zeros(2),
                                   stage=config.get("stage", 1),
                                   **config["map"])
        if command == "lemma61":
            report = symbols.lemma61_check(
                point, spec, geometry.global_coefficients(field), hmap,
                weight)
        else:
            frame = fraclab.pushforward_operator(field, hmap)
            report = (symbols.lemma21_check(point, spec, frame.field,
                                            weight, hmap.c)
                      if command == "lemma21" else
                      symbols.garding_precondition_check(
                          point, spec, frame.field, weight, hmap.c,
                          summary["varpi"]))
        assert (abs(report.min_ratio - summary["min_ratio"])
                <= 1e-12 * abs(summary["min_ratio"]))

    def test_garding_and_symbol_bracket_draw_the_same_points(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 300}
        _, out = run(tmp_path, "garding", config, seed=4, tag="garding")
        w = json.loads((out / "summary.json").read_text())["witness"]
        _, out = run(tmp_path, "symbol-bracket", config, seed=4, tag="bracket")
        table = np.load(out / "brackets.npy")
        point = [w["t"], *w["x"], w["tau"], *w["xi"], w["sigma"]]
        names = table.dtype.names[:len(point)]
        rows = recfunctions.structured_to_unstructured(table[list(names)])
        assert np.count_nonzero((rows == point).all(axis=1)) == 1

    def test_symbol_bracket_csv_columns(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 100}
        code, out = run(tmp_path, "symbol-bracket", config)
        assert code == 0
        header = ("t,x1,x2,tau,xi1,xi2,sigma,"
                  "bracket,principal,scale,ratio")
        assert ",".join(np.load(out / "brackets.npy").dtype.names) == header
        assert (out / "brackets_stats.csv").read_text().splitlines()[0] \
            == header

    def test_phase_table_stats_are_its_columns_min_max_mean(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2, "map": MAP1,
                  "weight": WEIGHT, "n_samples": 200}
        code, out = run(tmp_path, "lemma21", config)
        assert code == 0
        table = np.load(out / "char_points.npy")
        stats = np.loadtxt(out / "char_points_stats.csv", delimiter=",",
                           skiprows=1)
        assert stats.shape == (3, len(table.dtype.names))
        for i, name in enumerate(table.dtype.names):
            assert stats[:, i].tolist() == [table[name].min(),
                                            table[name].max(),
                                            table[name].mean()]
        cli._write_phase_table(tmp_path, "empty", 1, [np.empty(0)] * 4 + [
            np.empty(0)], [])
        assert (tmp_path / "empty_stats.csv").read_text() \
            == "t,x1,tau,xi1,sigma\n"
        assert len(np.load(tmp_path / "empty.npy")) == 0

    @pytest.mark.parametrize("command", ["garding", "symbol-bracket"])
    def test_overflowing_magnitude_range_is_named(self, command, tmp_path,
                                                  capsys):
        # tau = 1.2 rho^(2/alpha) overflows for rho near 1e200; the terms or
        # ratios of those samples used to be NaN, with no word of the range
        config = {**SYMBOL, "n_samples": 100,
                  "magnitude_range": [1.0, 1e200]}
        code, out = run(tmp_path, command, config, threads=2)
        assert code == 3
        err = capsys.readouterr().err
        assert "magnitude_range=(1.0, 1e+200) overflows tau" in err
        assert "alpha=0.5" in err
        assert not out.exists()

    # the certify benchmark's configs at 2,000 samples
    LEMMA21 = {"spec": {"orders": [0.5, 0.25], "weights": [1.0, 0.5]},
               "coeffs": COEFFS2, "map": MAP1, "weight": WEIGHT,
               "n_samples": 2000}
    LEMMA61 = {"spec": SPEC, "coeffs": {"preset": "diagonal-variable",
                                        "n": 2},
               "map": MAP1, "weight": WEIGHT, "n_samples": 2000, "stage": 5}
    GARDING = {"spec": {"orders": [1.5, 0.75], "weights": [1.0, 0.5]},
               "coeffs": {"preset": "rotating-anisotropic", "n": 2,
                          "ratio": 0.5},
               "map": MAP1, "weight": WEIGHT, "n_samples": 2000}

    @pytest.mark.parametrize("command", ["lemma21", "lemma61"])
    def test_empty_sample_fails_with_its_counts(self, command, tmp_path,
                                                capsys):
        # every root lies beyond 2^60; the run used to exit 3 with only
        # "empty characteristic sample" and no summary
        config = {**getattr(self, command.upper()), "n_samples": 300,
                  "sigma_range": [1e20, 1e30]}
        code, out = run(tmp_path, command, config, seed=3)
        assert code == 1
        assert capsys.readouterr().out.startswith(f"FAIL {command}")
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["found"], summary["requested"]) == (0, 300)
        assert summary["solved"] == 0
        # every seed of every batch is examined: 8 per requested point
        assert summary["rejected"] == {"degenerate_b": 0,
                                       "no_sign_change": 8 * 300,
                                       "residual": 0}
        assert summary["min_ratio"] is None
        assert summary["max_residual"] is None
        assert summary["witness"] is None
        assert len(np.load(out / "char_points.npy")) == 0

    @pytest.mark.parametrize("command", ["lemma21", "lemma61"])
    @pytest.mark.parametrize("sigma_range", [(1e150, 1e152), (1e300, 1e308)],
                             ids=["multiply", "square"])
    def test_overflowing_sigma_range_is_named(self, command, sigma_range,
                                              tmp_path, capsys):
        # mu^2 or Q (R - Re S) used to overflow, with a warning, and every
        # seed was rejected, so the run read as an empty sample
        config = {**getattr(self, command.upper()),
                  "sigma_range": list(sigma_range)}
        code, out = run(tmp_path, command, config, seed=3)
        assert code == 3
        err = capsys.readouterr().err
        assert f"sigma_range={sigma_range!r} overflows the scalar equation" \
            in err
        assert "empty" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, hi", [("garding", 1e80),
                                             ("symbol-bracket", 1e150)])
    def test_magnitude_range_overflowing_the_squared_symbol_is_named(
            self, command, hi, tmp_path, capsys):
        # tau is finite, but |p|^2 and the squared scale are not: garding's
        # terms used to be NaN, and symbol-bracket failed on NaN ratios
        config = {**self.GARDING, "magnitude_range": [1.0, hi]}
        code, out = run(tmp_path, command, config, seed=3)
        assert code == 3
        assert (f"magnitude_range={(1.0, hi)!r} overflows |p|^2: "
                "((1+1.2^alpha)*hi^2)^2 is not finite at alpha=1.5"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["garding", "symbol-bracket"])
    def test_magnitude_range_below_the_square_limit_passes(self, command,
                                                           tmp_path):
        config = {**self.GARDING, "magnitude_range": [1.0, 1e70]}
        code, out = run(tmp_path, command, config, seed=3)
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["pass"]

    def test_symbol_bracket_fails_on_non_finite_ratios(self, tmp_path,
                                                       monkeypatch, capsys):
        # a NaN ratio, which an in-range magnitude no longer produces,
        # still fails the run rather than passing on a NaN minimum
        original = symbols.bracket_report_batch

        def with_nan(*args, **kwargs):
            full, principal, scale, ratio = original(*args, **kwargs)
            ratio[3] = np.nan
            return full, principal, scale, ratio

        monkeypatch.setattr(symbols, "bracket_report_batch", with_nan)
        code, out = run(tmp_path, "symbol-bracket", {**SYMBOL,
                                                     "n_samples": 100})
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL symbol-bracket")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["non_finite_ratios"] == 1
        assert not summary["pass"]

    def test_solve_manufactured(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS1,
                  "grid": {"bounds": [[0.0, 1.0]], "shape": [33],
                           "n_steps": 32, "t_final": 1.0}}
        code, out = run(tmp_path, "solve", config)
        assert code == 0
        assert (out / "solution.bin").exists()
        assert (out / "solution.json").exists()
        assert (out / "final_slice.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_error"] < 0.05

    @pytest.mark.parametrize("preset", ["diagonal-variable",
                                        "rotating-anisotropic"])
    def test_solve_manufactured_follows_the_field(self, tmp_path, preset):
        # the source is built from the configured field, so the error is
        # the scheme's own and falls about fourfold per halving of h and dt
        errors = []
        for size in (17, 33):
            config = {"spec": SPEC, "coeffs": {"preset": preset, "n": 2},
                      "grid": {"bounds": [[0.0, 1.0]] * 2,
                               "shape": [size] * 2, "n_steps": size - 1,
                               "t_final": 1.0}}
            code, out = run(tmp_path, "solve", config, tag=f"{preset}{size}")
            assert code == 0
            errors.append(json.loads((out / "summary.json").read_text())
                          ["max_error"])
        assert errors[0] < 5e-3
        assert errors[0] / errors[1] > 3.0

    def test_solve_bump_source(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS1,
                  "grid": {"bounds": [[0.0, 1.0]], "shape": [33],
                           "n_steps": 24, "t_final": 1.0},
                  "manufactured": False,
                  "source": {"center": [0.6], "width": 0.15}}
        code, out = run(tmp_path, "solve", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "max_error" not in summary
        assert summary["equation_residual_max"] <= 1e-10
        assert (out / "final_profile.xy").exists()

    @pytest.mark.parametrize("ndim, source, message", [
        (1, {"center": [0.5, 3.0], "width": 0.1},
         "source center has length 2, the grid dimension is 1"),
        (2, {"center": [0.5]},
         "source center has length 1, the grid dimension is 2"),
        (1, {"center": [3.0], "width": 0.1},
         "source is zero on every interior node"),
        (1, {"width": 0.0}, "source width must be positive, got 0.0"),
        (1, {"width": -0.1}, "source width must be positive, got -0.1"),
    ], ids=["long-center", "short-center", "off-the-grid", "zero-width",
            "negative-width"])
    def test_solve_rejects_a_source_that_cannot_be_right(
            self, tmp_path, capsys, ndim, source, message):
        config = {"spec": SPEC, "coeffs": {"preset": "identity", "n": ndim},
                  "grid": {"bounds": [[0.0, 1.0]] * ndim,
                           "shape": [33] * ndim, "n_steps": 8,
                           "t_final": 1.0},
                  "manufactured": False, "source": source}
        code, out = run(tmp_path, "solve", config)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manufactured", [True, False],
                             ids=["manufactured", "bump"])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_solve_source_is_the_per_level_stack(self, tmp_path, monkeypatch,
                                                 ndim, manufactured):
        captured, calls = recording_solve(monkeypatch)
        config = {"spec": {"orders": [1.5, 0.5], "weights": [1.0, 0.5]},
                  "coeffs": {"preset": "identity", "n": ndim},
                  "grid": {"bounds": [[0.0, 1.0]] * ndim,
                           "shape": [9] * ndim, "n_steps": 12,
                           "t_final": 1.5},
                  "manufactured": manufactured,
                  "source": {"center": [0.6] * ndim, "width": 0.3}}
        code, _ = run(tmp_path, "solve", config)
        assert code == 0
        ((spec, _, _, grid),) = captured

        # the sources as scalar-time callables, one call per level
        def manufactured_source(t, Y):
            sine = np.ones(Y.shape[:-1])
            for d in range(ndim):
                sine = sine * np.sin(np.pi * Y[..., d])
            tfrac = sum(q * fraclab.caputo_power_rule(2.0, al, max(t, 0.0))
                        for q, al in zip(spec.weights, spec.orders))
            return (tfrac + ndim * np.pi**2 * t**2) * sine

        def bump_source(t, Y):
            r2 = np.sum(((Y - 0.6) / 0.3) ** 2, axis=-1)
            return np.clip(1.0 - r2, 0.0, None) ** 4 * min(t, 1.0) ** 2

        f = manufactured_source if manufactured else bump_source
        mesh = grid.mesh()
        expected = np.stack([f(t, mesh) for t in grid.time.nodes])
        # the march and the residual check each sample every level once
        passes = sampled_passes(calls, grid)
        assert len(passes) == 2
        for blocks in passes:
            assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("preset,ndim", [
        ("identity", 1), ("identity", 2), ("identity", 3),
        ("diagonal-variable", 1), ("diagonal-variable", 2),
        ("diagonal-variable", 3), ("rotating-anisotropic", 2),
        ("rotating-anisotropic", 3), ("polynomial", 1), ("polynomial", 2),
        ("polynomial", 3)])
    def test_blocked_source_is_one_whole_call_bitwise(self, tmp_path,
                                                       monkeypatch, preset,
                                                       ndim):
        # 13 levels of 9^ndim nodes, 5 levels per sampling block: two full
        # blocks and a partial one
        captured, calls = recording_solve(monkeypatch)
        monkeypatch.setattr(solver, "SAMPLE_BLOCK", 5 * 9**ndim + 3)
        coeffs = {"preset": preset, "n": ndim}
        if preset == "polynomial":
            # a_jj = 1 + t y_1 / 4, a_01 = y_2 / 10 from two dimensions on
            pows = [[int(r == d) for r in range(ndim)] for d in range(ndim)]
            tables = [{"j": j, "k": j, "terms": [
                {"coeff": 1.0, "t_pow": 0, "y_pows": [0] * ndim},
                {"coeff": 0.25, "t_pow": 1, "y_pows": pows[0]}]}
                for j in range(ndim)]
            if ndim > 1:
                tables.append({"j": 0, "k": 1, "terms": [
                    {"coeff": 0.1, "t_pow": 0, "y_pows": pows[1]}]})
            coeffs = {**coeffs, "delta": 0.5, "tables": tables}
        config = {"spec": {"orders": [1.5, 0.5], "weights": [1.0, 0.5]},
                  "coeffs": coeffs,
                  "grid": {"bounds": [[0.0, 1.0]] * ndim,
                           "shape": [9] * ndim, "n_steps": 12,
                           "t_final": 1.5}}
        code, _ = run(tmp_path, "solve", config)
        assert code == 0
        ((spec, field, _, grid),) = captured
        _, whole = cli._manufactured_pieces(spec, field, grid)
        times = grid.time.nodes.reshape((-1,) + (1,) * ndim)
        expected = whole(times, grid.mesh())
        passes = sampled_passes(calls, grid)
        assert len(passes) == 2
        for blocks in passes:
            assert [len(b) for b in blocks] == [5, 5, 3]
            assert np.array_equal(np.concatenate(blocks), expected)

    def test_solve_summary_is_a_function_of_the_seed(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS2,
                  "grid": {"bounds": [[0.0, 1.0]] * 2, "shape": [9, 9],
                           "n_steps": 16, "t_final": 1.0}}
        summaries = []
        for tag in ("first", "second"):
            code, out = run(tmp_path, "solve", config, seed=5, tag=tag)
            assert code == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        summary = json.loads(summaries[0])
        assert summary["factorizations"] >= 1
        assert (summary["factorizations"] + summary["lu_reuses"]
                == config["grid"]["n_steps"])
        assert summary["refinement_steps"] >= 0

    def test_carleman_sweep(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS1,
                  "map": {"c": 1.0, "X": 0.3, "T": 1.0},
                  "weight": {"X": 0.3},
                  "grid": {"bounds": [[0.0, 0.3]], "shape": [61],
                           "n_steps": 48, "t_final": 1.0},
                  "betas": [25.0, 50.0, 100.0, 200.0, 400.0],
                  "n_bumps": 2}
        code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spread"] <= 100.0
        sweep = json.loads((out / "sweep_summary.json").read_text())
        assert sweep["max_ratio"] == summary["max_ratio"]
        assert (out / "sweep.csv").exists()
        assert (out / "ratio_test0.xy").exists()

    def test_carleman_sweep_writes_non_finite_values_as_null(
            self, tmp_path, monkeypatch):
        # a sweep with no finite ratio: max, min and spread are inf
        monkeypatch.setattr(cli.carl, "beta_sweep", lambda *_, **__: (
            cli.carl.SweepResult(rows=[], max_ratio=float("inf"),
                                 min_ratio=float("inf"), flagged=0)))
        code, out = run(tmp_path, "carleman-sweep", VALID["carleman-sweep"])
        assert code == 1
        with open(out / "sweep_summary.json") as fh:
            doc = json.load(fh, parse_constant=pytest.fail)
        assert doc == {"max_ratio": None, "min_ratio": None,
                       "flagged_rows": 0, "spread": None,
                       "top_half_monotone_growth": False}

    def test_carleman_sweep_rejects_an_overflowing_beta(self, tmp_path,
                                                        capsys):
        # max psi is 0.18 here: exp(2 beta psi) is inf past beta ~ 1971.6,
        # and its rows used to read lhs = rhs = nan under a PASS
        config = {"spec": SPEC, "coeffs": COEFFS1,
                  "map": {"c": 1.0, "X": 0.3, "T": 1.0},
                  "weight": {"X": 0.3},
                  "grid": {"bounds": [[0.0, 0.3]], "shape": [61],
                           "n_steps": 48, "t_final": 1.0},
                  "betas": [25.0, 50.0, 100.0, 200.0, 400.0, 5000.0],
                  "n_bumps": 2}
        code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 3
        err = capsys.readouterr().err
        assert "beta=5000.0 overflows the weight" in err
        assert "max psi = 0.18" in err
        assert not out.exists()

    @pytest.mark.parametrize("order", [0.5, 1.5])
    def test_carleman_sweep_rejects_bumps_that_vanish_on_every_node(
            self, tmp_path, capsys, order):
        # one time step leaves the levels t = 0 and T, where every bump is
        # 0: the run read as a FAIL with an infinite max_ratio (order 0.5)
        # or died in np.gradient on two levels (order 1.5)
        config = json.loads((DEMO_CONFIGS / "carleman-sweep.json").read_text())
        config["spec"]["orders"] = [order]
        config["grid"]["n_steps"] = 1
        code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 3
        assert ("bump 0 is zero on every grid node; the grid has 2 time "
                "levels, t = 0.0 to 1.0" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_carleman_sweep_repeat_runs_are_byte_identical(self, tmp_path,
                                                           ndim):
        # the weighted integrals contract over time through BLAS; the 1-D
        # run is the demo, the 2-D run a 41x41 grid with a moving field
        config = json.loads((DEMO_CONFIGS / "carleman-sweep.json").read_text())
        if ndim == 2:
            config.update(
                spec={"orders": [1.5, 0.5], "weights": [1.0, 0.5]},
                coeffs={"preset": "diagonal-variable", "n": 2},
                grid={"bounds": [[-0.3, 0.3], [0.0, 0.3]], "shape": [41, 41],
                      "n_steps": 40, "t_final": 1.0})
        outs = [run(tmp_path, "carleman-sweep", config, seed=3, tag=tag)
                for tag in ("a", "b")]
        assert [code for code, _ in outs] == [0, 0]
        names = sorted(p.name for p in outs[0][1].iterdir()
                       if p.name != "summary.json")
        assert names == ["ratio_test0.xy", "ratio_test1.xy", "ratio_test2.xy",
                         "ratio_test3.xy", "ratio_test4.xy", "sweep.csv",
                         "sweep_summary.json"]
        for name in names:
            assert ((outs[0][1] / name).read_bytes()
                    == (outs[1][1] / name).read_bytes()), name

    def test_ucp_demo(self, tmp_path):
        config = {"spec": SPEC, "coeffs": COEFFS1,
                  "grid": {"bounds": [[0.0, 1.0]], "shape": [49],
                           "n_steps": 32, "t_final": 1.0},
                  "omega": [0.05, 0.25], "t_prime": 0.5,
                  "source_centers": [0.6, 0.8]}
        code, out = run(tmp_path, "ucp-demo", config)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_ratio"] > summary["floor"]

    @pytest.mark.parametrize("change, message", [
        ({"omega": [0.25, 0.05]}, "omega (0.25, 0.05) holds no interior"),
        ({"omega": [0.051, 0.052]}, "omega (0.051, 0.052) holds no interior"),
        ({"source_width": 0.0}, "source_width must be positive, got 0.0"),
        ({"source_width": -0.08}, "source_width must be positive, got -0.08"),
        # the window would hold only the initial level, pinned to zero
        ({"t_prime": 0.0}, "t_prime 0.0 lies below the first time step"),
        ({"t_prime": -1.0}, "t_prime -1.0 lies below the first time step"),
    ], ids=["reversed-omega", "omega-between-nodes", "zero-width",
            "negative-width", "t-prime-zero", "t-prime-negative"])
    def test_ucp_demo_rejects_a_malformed_input(self, tmp_path, capsys,
                                                change, message):
        # the demo's 97-node grid: these read as min_ratio 0 and a FAIL
        config = {**VALID["ucp-demo"], **change,
                  "grid": {**GRID1, "shape": [97]}}
        code, out = run(tmp_path, "ucp-demo", config)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_carleman_sweep_rejects_a_dimension_mismatch(self, tmp_path,
                                                         capsys):
        config = {**VALID["carleman-sweep"], "coeffs": COEFFS2}
        code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 3
        assert ("field dimension does not match the grid"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_carleman_sweep_names_an_infinite_coefficient(self, tmp_path,
                                                          capsys):
        # a = 1 + 1e308 + 1e308 overflows: the sweep read it as a refuted
        # inequality, FAIL with max_ratio Infinity and spread NaN
        coeffs = {**POLYNOMIAL1, "tables": [{"j": 0, "k": 0, "terms": [
            {"coeff": coeff, "t_pow": 0, "y_pows": [0]}
            for coeff in (1.0, 1e308, 1e308)]}]}
        config = {**VALID["carleman-sweep"], "coeffs": coeffs}
        with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
            code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 3
        assert ("coefficient field violates ellipticity at t=0 (margin -inf)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_carleman_sweep_names_a_grid_whose_growth_overflows(
            self, tmp_path, capsys):
        # the demo sweep to t = 720: e^t overflowed in the conjugation and
        # the run printed FAIL with max_ratio Infinity and spread NaN
        config = json.loads((DEMO_CONFIGS / "carleman-sweep.json").read_text())
        config["grid"]["t_final"] = config["map"]["T"] = 720.0
        code, out = run(tmp_path, "carleman-sweep", config)
        assert code == 3
        assert ("t = 720.0 overflows e^t: t must not exceed ln(float max) = "
                "709.783"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_names_a_time_step_too_small_for_its_order(self, tmp_path,
                                                             capsys):
        # the demo solve at order 1.5 to t = 1e-250: dt ** -1.5 raised an
        # OverflowError traceback, exit 1, the code of a FAIL
        config = json.loads((DEMO_CONFIGS / "solve.json").read_text())
        config["spec"] = {"orders": [1.5], "weights": [1.0]}
        config["grid"]["t_final"] = 1e-250
        code, out = run(tmp_path, "solve", config)
        assert code == 3
        assert ("is too small for order 1.5: dt ** -1.5 overflows"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_names_an_infinite_leading_coefficient(self, tmp_path,
                                                         capsys):
        # weight 1e300 times dt ** -0.5 at t = 1e-200 overflows to inf: the
        # solve printed FAIL with every residual NaN, exit 1
        config = json.loads((DEMO_CONFIGS / "solve.json").read_text())
        config["spec"] = {"orders": [1.5, 0.5], "weights": [1.0, 1e300]}
        config["grid"]["t_final"] = 1e-200
        code, out = run(tmp_path, "solve", config)
        assert code == 3
        assert ("order 0.5 with weight 1e+300 at time step dt=3.90625e-203"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_names_a_subnormal_spacing_square(self, tmp_path, capsys):
        # h = 1e-161: h*h = 1e-322 is positive, and solve overflowed in
        # a / h**2 and exited as a singular Schur block
        config = {**VALID["solve"], "grid": {**GRID1,
                                             "bounds": [[0.0, 8e-161]]}}
        code, out = run(tmp_path, "solve", config)
        assert code == 3
        assert ("on axis 0: 1/(h*h) = inf overflows"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_names_a_nan_coefficient(self, tmp_path, capsys):
        # a = 1 + y^4 - y^4 on [0, 1e80]: y^4 overflows and a is NaN, whose
        # margin passed the precondition and failed later as a singular
        # Schur block
        coeffs = {**POLYNOMIAL1, "tables": [{"j": 0, "k": 0, "terms": [
            {"coeff": coeff, "t_pow": 0, "y_pows": [power]}
            for coeff, power in ((1.0, 0), (1.0, 4), (-1.0, 4))]}]}
        config = {**VALID["solve"], "coeffs": coeffs,
                  "grid": {**GRID1, "bounds": [[0.0, 1e80]]}}
        with pytest.warns(RuntimeWarning) as caught:
            code, out = run(tmp_path, "solve", config)
        assert {str(w.message) for w in caught} == {
            "overflow encountered in power",
            "invalid value encountered in add"}
        assert code == 3
        assert ("coefficient field's ellipticity margin is NaN at t=0"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "carleman-sweep",
                                         "ucp-demo"])
    @pytest.mark.parametrize("upper, product", [(1e160, "inf"),
                                                (1e-170, "0.0")],
                             ids=["overflow", "underflow"])
    def test_grid_spacing_whose_square_is_no_float_is_named(
            self, tmp_path, capsys, command, upper, product):
        # 9 nodes: solve died on h**2 with an OverflowError traceback (exit
        # 1, the code of a FAIL), and read a square that underflows to 0
        # as a singular Schur block
        config = {**VALID[command],
                  "grid": {**GRID1, "bounds": [[0.0, upper]]}}
        code, out = run(tmp_path, command, config)
        assert code == 3
        assert (f"on axis 0: h*h = {product} and 4*h*h = {product} must be "
                "positive finite floats" in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_run_removes_the_directory_it_made(self, tmp_path,
                                                        capsys):
        config = {**VALID["ucp-demo"], "source_centers": [1.5]}
        code, out = run(tmp_path, "ucp-demo", config)
        assert code == 3
        assert "zero on the interior" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_run_keeps_a_directory_it_found(self, tmp_path):
        config = {**VALID["ucp-demo"], "source_centers": [1.5]}
        for tag, kept in (("empty", []), ("full", ["notes.txt"])):
            out = tmp_path / f"{tag}_out"
            out.mkdir()
            for name in kept:
                (out / name).write_text("kept")
            code, _ = run(tmp_path, "ucp-demo", config, tag=tag)
            assert code == 3
            assert sorted(os.listdir(out)) == kept

    def test_continuation_plan(self, tmp_path):
        config = {"T": 1.0, "X": 0.05, "s_max": 5, "n": 2}
        code, out = run(tmp_path, "continuation-plan", config)
        assert code == 0
        # the file holds the library's text for the same schedule
        text = (out / "schedule.json").read_text()
        schedule = geometry.continuation_schedule(T=1.0, X=0.05, s_max=5, n=2)
        assert text == geometry.schedule_to_json(schedule)
        doc = json.loads(text)
        assert len(doc) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["roundtrip_error"] <= 1e-14

    def test_continuation_plan_fails_on_nan_round_trips(self, tmp_path):
        # c = 1e308 overflows the map, so every round trip is NaN
        config = {"T": 1, "X": 0.5, "s_max": 2, "n": 2, "c": 1e308}
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run(tmp_path, "continuation-plan", config)
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is False
        assert summary["roundtrip_error"] is None

    def test_csv_full_precision(self, tmp_path):
        config = {"alphas": [0.5], "n_steps": 64}
        _, out = run(tmp_path, "caputo-check", config)
        body = (out / "caputo.csv").read_text().splitlines()[1]
        exact_field = body.split(",")[6]
        assert len(exact_field.replace(".", "").replace("-", "").lstrip("0")) >= 16


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(fraclab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestBenchmarkTracer:
    def test_tracer_hooks_exist_and_trace_handlers(self, tmp_path):
        # the benchmark's tracer wraps fraclab's functions by name; a
        # renamed or deleted one makes install() raise, and a handler not
        # looked up on the module at call time would go untraced
        bench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench")
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(VALID["continuation-plan"]))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import spans\n"
            "tracer = spans.install()\n"
            "from fraclab import cli\n"
            "cli.main(['continuation-plan', '--config', sys.argv[2],\n"
            "          '--out', sys.argv[3]])\n"
            "print(tracer.report()['calls'].get('cli.handler', 0))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, bench, str(config),
             str(tmp_path / "out")],
            env=_subprocess_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "1"

    def test_tracer_counts_the_l1_calls(self, tmp_path):
        # the drift reaches rl_integral_l1 and the residual check caputo_l1
        # through their module names; a call that bypassed them would zero
        # these per-layer counts
        bench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench")
        spec = {"orders": [1.5, 0.5], "weights": [1.0, 0.5]}
        paths = []
        for command in ("carleman-sweep", "solve"):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({**VALID[command], "spec": spec}))
            paths += [command, str(path)]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import spans\n"
            "tracer = spans.install()\n"
            "from fraclab import cli\n"
            "for command, path in zip(sys.argv[2::2], sys.argv[3::2]):\n"
            "    cli.main([command, '--config', path,\n"
            "              '--out', path + '.out'])\n"
            "counts = tracer.report()['counts']\n"
            "print(*(counts.get(key, 0) for key in (\n"
            "    'fractional.rl_integral_l1_columns',\n"
            "    'fractional.caputo_l1_columns', 'solver.solve_calls')))\n")
        out = subprocess.run([sys.executable, "-c", code, bench, *paths],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        # 5 bumps x 2 orders x 9 columns; 5 bumps and the solve's residual
        # check x 2 orders x 7 interior columns
        assert out.stdout.strip().splitlines()[-1] == "90 84 1"

    @pytest.mark.parametrize("command, extra, calls", [
        ("solve", {}, 1), ("ucp-demo", {"source_centers": [0.6, 0.8]}, 2)],
        ids=["solve", "ucp-demo"])
    def test_tracer_counts_the_solver_steps(self, tmp_path, command, extra,
                                            calls):
        # the tracer reads solve's grid as args[4] or kwargs["grid"]; a
        # program caller that passed it by position would break the count
        bench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench")
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({**VALID[command], **extra}))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import spans\n"
            "tracer = spans.install()\n"
            "from fraclab import cli\n"
            "cli.main([sys.argv[2], '--config', sys.argv[3],\n"
            "          '--out', sys.argv[4]])\n"
            "counts = tracer.report()['counts']\n"
            "print(counts.get('solver.steps', 0),\n"
            "      counts.get('solver.solve_calls', 0))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, bench, command, str(path),
             str(tmp_path / "out")],
            env=_subprocess_env(), capture_output=True, text=True, check=True)
        steps, solves = map(int, out.stdout.strip().splitlines()[-1].split())
        assert solves == calls
        assert steps == GRID1["n_steps"] * solves

    def test_tracer_counts_the_sweep_sampling(self, tmp_path):
        # the sweep's one walk samples the frame's tilted matrix through
        # HolmgrenFrame.effective_matrix and the configured field's a once
        # per sampling block of levels, and the tilt drift reuses that
        # sample; the ellipticity precondition samples a at 3 times on all
        # nodes; a call that bypassed either would change these counts
        bench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench")
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "spec": {"orders": [1.5, 0.5], "weights": [1.0, 0.5]},
            "coeffs": COEFFS2, "map": {"c": 1.0, "X": 0.3, "T": 1.0},
            "weight": {"X": 0.3},
            "grid": {"bounds": [[-0.3, 0.3], [0.0, 0.3]], "shape": [21, 21],
                     "n_steps": 48, "t_final": 1.0},
            "betas": [25.0, 250.0], "n_bumps": 2}))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import spans\n"
            "tracer = spans.install()\n"
            "from fraclab import cli\n"
            "cli.main(['carleman-sweep', '--config', sys.argv[2],\n"
            "          '--out', sys.argv[3]])\n"
            "counts = tracer.report()['counts']\n"
            "print(*(counts.get(key, 0) for key in (\n"
            "    'geometry.effective_matrix_calls', 'fields.a_calls',\n"
            "    'fields.a_points')))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, bench, str(config),
             str(tmp_path / "out")],
            env=_subprocess_env(), capture_output=True, text=True, check=True)
        # 361 interior nodes: 22 levels per call, 49 levels in 3 blocks,
        # 17,689 points; the precondition 3 x 441
        assert out.stdout.strip().splitlines()[-1] == "3 6 19012"


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, fraclab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_no_jsonschema(self):
        code = ("import sys, fraclab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'jsonschema'))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_no_thread_pool(self):
        # concurrent.futures (and the logging it loads) comes in only when
        # a sampling command starts threads
        code = ("import sys, fraclab.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_certify_command_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "lemma21.json"
        cfg.write_text(json.dumps(VALID["lemma21"]))
        code = ("import sys; from fraclab.cli import main; "
                f"code = main(['lemma21', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("command", [
        "carleman-sweep", "solve", "caputo-check", "ucp-demo"],
        ids=lambda command: f"{command}-scipy")
    def test_evolution_commands_leave_scipy_unloaded(self, tmp_path,
                                                     command):
        # the sweep's operator product, the solver's block factorization,
        # the Caputo oracle's quadrature and every Gamma value are numpy
        # and Python
        config = VALID[command]
        if command == "carleman-sweep":     # a sweep that passes
            config = {**config, "map": {"c": 1.0, "X": 0.3, "T": 1.0},
                      "weight": {"X": 0.3},
                      "grid": {"bounds": [[0.0, 0.3]], "shape": [41],
                               "n_steps": 32, "t_final": 1.0},
                      "betas": [25.0, 100.0, 400.0], "n_bumps": 2}
        if command == "caputo-check":       # 0.25 subdivides, 1.5 does not
            config = {"alphas": [0.25, 1.5], "n_steps": 64}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code = ("import sys; from fraclab.cli import main; "
                f"code = main([{command!r}, '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=_subprocess_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []"
