"""Run one fraclab CLI command for the benchmark harness.

Usage: python3 bench/child.py MARKS MODE COMMAND --config ... --out ...

Calls ``fraclab.cli.main`` with the given CLI arguments, exactly as
``python -m fraclab.cli`` would, and writes a JSON file MARKS holding the
CLOCK_MONOTONIC time at which the config had been loaded and validated
(``ready``).  MODE is ``run``; ``trace``, which also installs the spans of
bench/spans.py and stores their report in MARKS; or ``setup``, which stops
right after validation to sample the set-up time alone.  The exit code is
the CLI's (0 after a setup-only run).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import fraclab.cli as cli  # noqa: E402


class SetupDone(Exception):
    pass


def main(argv) -> int:
    marks_path, mode, cli_args = argv[0], argv[1], argv[2:]
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.install()
    marks = {}
    validate = cli.validate_config

    def validate_and_mark(command, config):
        validate(command, config)
        marks["ready"] = time.monotonic()
        if mode == "setup":
            raise SetupDone

    cli.validate_config = validate_and_mark
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    if tracer is not None:
        marks["trace"] = tracer.report()
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
