"""Run a ``python -m repro`` command under the benchmark's speed sampler
and, for traced runs, its layer wrappers.

Usage::

    python3 launcher.py [--trace] DUMP.json -- worker --listen 127.0.0.1:0

The harness starts every worker and server through this launcher. The
sampler (:mod:`speed`) runs from the start. With ``--trace`` the
wrappers are installed disabled; ``SIGUSR1`` zeroes their counters,
turns recording on and writes ``DUMP.json.on`` as an acknowledgement.
``SIGTERM`` writes ``{"speed": samples, "layers": counters}`` to
``DUMP.json`` (the speed samples, and each thread's layer counters,
empty when untraced) and ends the process at once, without unwinding
the command.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

import layers
import speed


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    argv = argv[1:] if trace else argv
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launcher.py [--trace] DUMP.json -- REPRO_ARGS...",
              file=sys.stderr)
        return 2
    dump = Path(argv[0])
    sampler = speed.Sampler()
    sampler.start()
    recorder = layers.Recorder()
    if trace:
        layers.install(recorder)

    def enable(signum: int, frame: object) -> None:
        recorder.reset()
        recorder.enabled = True
        dump.with_name(dump.name + ".on").write_text("on\n")

    def stop(signum: int, frame: object) -> None:
        sampler.stop()
        recorder.enabled = False
        dump.write_text(json.dumps({"speed": sampler.samples,
                                    "layers": recorder.thread_totals()}))
        os._exit(0)

    signal.signal(signal.SIGUSR1, enable)
    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main as repro_main

    return repro_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
