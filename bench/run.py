"""fraclab benchmark harness.

Usage (from the root of the repository):

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload (bench/workloads.py) is a fixed list of CLI commands.  The
harness runs them as a user does: one fresh ``python3`` child per command,
one command at a time, through bench/child.py, which calls
``fraclab.cli.main``.  One untimed warm-up pass at a small size comes first;
then timed passes repeat while the next one still fits in ``--seconds``.
Untraced runs end with a few set-up-only children per command.  Every pass
writes into a fresh directory, its outputs are checked and hashed, and a
run record goes to bench/runs/.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the timed passes).  With ``--trace 1``
the passes alternate untraced and traced, and the JSON object holds the
per-layer metrics of the traced passes (bench/spans.py) and the tracing
overhead.  A command fails on a nonzero exit, a summary without
``"pass": true``, ``found < requested``, or a CSV/xy hash that differs from
the first timed pass of the same run (same seed, so the bytes must match).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(BENCH, "runs")
CHILD = os.path.join(BENCH, "child.py")
CLI_SOURCE = os.path.join(ROOT, "src", "fraclab", "cli.py")

# BLAS stays single-threaded, so only lemma21's --threads 2 uses a second
# core.  Bytecode caching stays on, as for a user: the warm-up compiles
# src/fraclab once and every timed child imports the cached bytecode.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)

# Timed passes per run at least (untraced runs; a traced run needs one
# untraced and one traced pass).
MIN_PASSES = 2
# Extra set-up-only children per command after the timed passes: set-up
# time varies by about 20 % from one process to the next, so setup_s is
# the sum over commands of each command's median over passes and probes.
SETUP_PROBES = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def spawn(command, config_path, out_dir, seed, mode) -> dict:
    """Run one CLI command in a fresh child; return its raw measurements.

    ``mode`` is ``run``, ``trace`` or ``setup`` (see child.py).
    """
    os.makedirs(out_dir)
    marks = out_dir + ".marks.json"
    argv = [sys.executable, CHILD, marks, mode, command.cli,
            "--config", config_path, "--out", out_dir, "--seed", str(seed),
            *command.args]
    with open(out_dir + ".log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"command": command.name, "out": out_dir, "marks": marks,
            "exit": proc.returncode, "start": start, "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def finished(raw):
    """Marks, set-up time and the failures any child can show."""
    marks = {}
    if os.path.exists(raw["marks"]):
        with open(raw["marks"]) as fh:
            marks = json.load(fh)
    setup = marks["ready"] - raw["start"] if "ready" in marks else None
    failures = []
    if raw["exit"] != 0:
        failures.append(f"exit code {raw['exit']}")
    if setup is None:
        failures.append("config was never validated")
    return marks, setup, failures


def setup_probe(command, config_path, out_dir, seed) -> dict:
    """One more set-up sample: spawn, import and validate, then stop."""
    _, setup, failures = finished(spawn(command, config_path, out_dir, seed,
                                        "setup"))
    return {"command": command.name, "setup_s": setup, "failures": failures}


def inspect(raw, reference) -> dict:
    """Checks, certificates and artifact hashes of one finished command.

    ``reference`` maps command name to the hashes of its first timed run;
    the first run of a command sets them.
    """
    out = raw["out"]
    marks, setup, failures = finished(raw)
    rec = {k: raw[k] for k in ("command", "exit", "cpu_s", "rss_mb")}
    rec["wall_s"] = raw["end"] - raw["start"]
    rec["setup_s"] = setup
    summary = None
    if os.path.exists(os.path.join(out, "summary.json")):
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
    rec["certificates"] = summary
    names = sorted(os.listdir(out))
    rec["hashes"] = {n: sha256(os.path.join(out, n)) for n in names
                     if n.endswith((".csv", ".xy"))}
    rec["artifact_bytes"] = sum(os.path.getsize(os.path.join(out, n))
                                for n in names)
    if summary is None or summary.get("pass") is not True:
        failures.append("summary does not report pass")
    elif summary.get("found", 0) < summary.get("requested", 0):
        failures.append("found < requested")
    if reference is not None:
        expected = reference.setdefault(raw["command"], rec["hashes"])
        if expected != rec["hashes"]:
            failures.append("artifact hash differs from the first timed pass")
    rec["failures"] = failures
    if "trace" in marks:
        rec["trace"] = marks["trace"]
    return rec


def run_pass(commands, configs, pass_dir, seed, trace, reference) -> dict:
    """All commands of a workload back to back, then their checks."""
    raws = [spawn(c, configs[c.name], os.path.join(pass_dir, c.name), seed,
                  "trace" if trace else "run") for c in commands]
    records = [inspect(raw, reference) for raw in raws]
    shutil.rmtree(pass_dir)
    return {
        "trace": trace,
        "wall_s": raws[-1]["end"] - raws[0]["start"],
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "commands": records,
    }


def provenance() -> dict:
    info = {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}
    for package in ("numpy", "scipy", "jsonschema"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip()
                                      for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    indexes = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for index in [i for i in indexes if i.startswith("index")]:
        fields = []
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, index, key)) as fh:
                    fields.append(fh.read().strip())
            except OSError:
                fields.append("?")
        caches.append("L{} {} {}".format(*fields))
    info["caches"] = caches
    info["git_commit"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        info["git_commit"] = done.stdout.strip() or None
    # the benchmark also runs from plain checkouts without git metadata
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fraclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    info["source_sha256"] = digest.hexdigest()
    return info


def median(values):
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace) -> dict:
    commands = WORKLOADS[name]
    run_id = (f"{name}-seed{seed}-trace{int(trace)}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir = os.path.join(RUNS, run_id)
    os.makedirs(os.path.join(run_dir, "configs"))
    configs, warm_configs = {}, {}
    for c in commands:
        for table, suffix, cfg in ((configs, "", c.config),
                                   (warm_configs, ".warmup", c.warmup_config())):
            table[c.name] = os.path.join(run_dir, "configs", f"{c.name}{suffix}.json")
            with open(table[c.name], "w") as fh:
                json.dump(cfg, fh, indent=1)

    try:
        warmup = run_pass(commands, warm_configs, os.path.join(run_dir, "warmup"),
                          seed, False, None)
        reference = {}
        passes = []
        modes = (False, True) if trace else (False,)
        start = time.monotonic()
        rounds = 0
        while True:
            for mode in modes:
                passes.append(run_pass(
                    commands, configs,
                    os.path.join(run_dir, f"pass{len(passes)}"), seed, mode,
                    reference))
            rounds += 1
            elapsed = time.monotonic() - start
            if (rounds * len(modes) >= MIN_PASSES
                    and elapsed * (rounds + 1) / rounds > seconds):
                break
        probes = [setup_probe(c, configs[c.name],
                              os.path.join(run_dir, f"setup{k}", c.name), seed)
                  for k in range(0 if trace else SETUP_PROBES) for c in commands]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checked = [r for p in [warmup] + passes for r in p["commands"]] + probes
    attempted = len(checked)
    failed = sum(bool(r["failures"]) for r in checked)
    plain = [p for p in passes if not p["trace"]]
    e2e = {m: median([p[m] for p in plain]) for m in ("wall_s", "cpu_s",
                                                      "peak_rss_mb")}
    samples = [[r["setup_s"] for r in probes + [r for p in plain
                                                for r in p["commands"]]
                if r["command"] == c.name and r["setup_s"] is not None]
               for c in commands]
    e2e["setup_s"] = (sum(median(x) for x in samples)
                      if all(samples) else None)
    if trace:
        import spans
        traced = [p for p in passes if p["trace"]]
        overhead = median([p["wall_s"] for p in traced]) - e2e["wall_s"]
        per_pass = [spans.layer_values(
            spans.merge(r["trace"] for r in p["commands"] if "trace" in r),
            sum(r["artifact_bytes"] for r in p["commands"]), overhead)
            for p in traced]
        metrics = {m: {"value": median([v[m] for v in per_pass]), "unit": unit}
                   for m, unit, _, _ in spans.LAYER_METRICS}
    else:
        metrics = {m: {"value": e2e[m], "unit": unit}
                   for m, unit in E2E_UNITS.items()}

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": provenance(),
              "commands": [{"name": c.name, "cli": c.cli, "args": list(c.args),
                            "config": c.config, "warmup": c.warmup_config()}
                           for c in commands],
              "end_to_end": e2e, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "warmup": warmup, "passes": passes, "setup_probes": probes}
    with open(os.path.join(RUNS, run_id + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(CLI_SOURCE):
        print("error: fraclab sources not found under src/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric} = {entry['value']} {entry['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": e for n, r in results.items()
                             for m, e in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
