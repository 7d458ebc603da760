"""Regenerate ``expected.json``: the pinned outputs every run checks.

  PYTHONPATH=src python3 perfbench/pin.py

Each pin is a direct ``api.run_suite`` rendering (serial, in-process,
no result cache) of the same params a workload runs:

* stream-large: total retired instructions, the sha256 of each plan's
  result document, and the sha256 of the rendered artifacts;
* serve-mixed: the sha256 of the rendered artifacts of every params
  document any seed can submit.

Rerun only when the simulated results are meant to change; a speed-up
must leave every pin as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import common  # noqa: E402
import serve_mixed  # noqa: E402


def direct(scale, workloads=None, window_sizes=None):
    from repro import api
    from repro.analysis.windowed import PAPER_WINDOW_SIZES
    from repro.serve.app import render_suite_artifacts

    suite = api.run_suite(scale, workloads=workloads, jobs=1,
                          window_sizes=window_sizes or PAPER_WINDOW_SIZES)
    return suite, render_suite_artifacts(suite, windowed=True)


def batch_pin(scale, workloads=None) -> dict:
    suite, artifacts = direct(scale, workloads)
    return {
        "retired": sum(c.path_length for c in suite.configs.values()),
        "artifacts_sha256": common.digest_text(artifacts),
        "plans": {"/".join(key): batch.result_digest(result)
                  for key, result in suite.configs.items()},
    }


def main() -> int:
    from repro import api

    sources = {api.get_workload(w, s).source()
               for w, s in common.SERVE_BINARIES}
    if len(sources) != len(common.SERVE_BINARIES):
        raise SystemExit("SERVE_BINARIES holds two identical binaries")
    pins = {
        "stream-large": batch_pin(common.STREAM_SCALE, ("stream",)),
        "serve-mixed": {"jobs": {}},
    }
    retired = {}
    for key, params in sorted(serve_mixed.universe().items()):
        suite, artifacts = direct(params["scale"],
                                  tuple(params["workloads"]),
                                  tuple(params["window_sizes"]))
        pins["serve-mixed"]["jobs"][key] = common.digest_text(artifacts)
        for plan_key, result in suite.configs.items():
            retired[(*plan_key, params["scale"])] = result.path_length
    # the layer probes run every stream-large plan, and a subset of serve's
    pins["stream-large"]["probe_retired"] = pins["stream-large"]["retired"]
    pins["serve-mixed"]["probe_retired"] = sum(
        retired[(p.workload, p.isa, p.profile, p.scale)]
        for p in batch.probe_plans("serve-mixed"))
    out = common.BENCH_DIR / "expected.json"
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
