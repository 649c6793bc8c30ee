"""Start ``repro serve`` with the layer functions traced.

Usage: ``python3 perfbench/serve_traced.py SPANS_FILE [repro serve args...]``
(from the repository root, ``src`` on ``PYTHONPATH``).  Wraps the layer
functions (see :mod:`layers`), runs the daemon until SIGTERM, then
writes the spans recorded in the daemon process to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from repro.experiments.service import serve_main  # noqa: E402


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        return serve_main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
