"""Run ``pops serve`` with the layer wrappers installed in the daemon.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_daemon.py SPANS.jsonl serve --socket ... [serve args]

The wrappers are installed before the daemon builds its session, then
``repro.cli.main`` runs the daemon unchanged.  When it shuts down, the
spans (plus the wrapper counters) are exported to ``SPANS.jsonl``.
"""

from __future__ import annotations

import sys

import layers
from repro.obs.trace import Tracer


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    installation = layers.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        installation.counters_event()
        tracer.export_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main())
