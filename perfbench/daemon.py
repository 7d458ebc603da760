"""Start ``repro serve`` with span recording, for traced serve-mixed runs.

  python3 perfbench/daemon.py --spans-dir DIR <repro serve options>

Wraps the layer entry points (see ``tracer.install``/``install_serve``)
before the daemon starts; its pool workers are forked later and inherit
the wrappers. The daemon's spans are written to DIR when it exits, each
worker's when it retires. Untraced runs start ``python3 -m repro serve``
directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-dir", type=Path, required=True)
    args, serve_args = parser.parse_known_args()
    from repro.harness import cli

    tracer = tracing.Tracer()
    tracing.install(tracer, args.spans_dir)
    tracing.install_serve(tracer)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.dump(args.spans_dir / f"daemon-{os.getpid()}.jsonl")


if __name__ == "__main__":
    raise SystemExit(main())
