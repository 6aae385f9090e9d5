"""Smoke test: every demo script and every demo config runs and passes.

Both run with RuntimeWarning as an error, so an overflow or a NaN in a demo
fails the test instead of printing a warning.
"""

import json
import pathlib
import runpy

import pytest

from fraclab import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_script_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)


def reject(name):
    """``parse_constant`` for standard JSON: NaN and Infinity are errors."""
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config", sorted(DEMOS.glob("configs/*.json")),
                         ids=lambda p: p.stem)
def test_demo_config_passes(config, tmp_path):
    out = tmp_path / config.stem
    code = cli.main([config.stem, "--config", str(config), "--out", str(out)])
    assert code == 0
    # summary.json and every other JSON artifact: schedule.json and the
    # solution's sidecar
    docs = {}
    for path in sorted(out.glob("*.json")):
        with open(path) as fh:
            docs[path.name] = json.load(fh, parse_constant=reject)
    assert docs["summary.json"]["pass"] is True
