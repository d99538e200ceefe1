"""Start ``amst serve`` with the benchmark's layer wrappers installed.

Used by the traced serve-session run only::

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

Installs the same wrappers as ``run.py --trace 1``, hands the remaining
arguments to the CLI and writes the spans to ``SPANS.json`` when the
daemon exits.  Recording is off until SIGUSR1 and off again after
SIGUSR2, so the spans cover the measured session, not boot or warm-up.
"""

from __future__ import annotations

import signal
import sys

import tracing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = tracing.Recorder()
    tracing.install(rec)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(rec, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(rec, "enabled", False))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.enabled = False
        rec.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
