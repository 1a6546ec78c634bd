#!/usr/bin/env python3
"""``repro-io`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py --spans FILE serve [serve options]

Installs :class:`layers.LayerTracer` before the daemon starts, runs the
``repro-io`` command line unchanged, and writes the daemon's spans,
per-layer totals and per-request ``run_request`` times to ``FILE``
once it has drained.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    from repro.cli import main as repro_io

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        return repro_io(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
