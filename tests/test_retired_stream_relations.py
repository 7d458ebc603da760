"""Path-length metamorphic relation: every count of the retired stream
agrees.

The translator, the interpreter and the analysis engine are usually
checked against each other ("fast path A == fast path B"), which cannot
catch an error they share. This test checks a relation instead: the
fused engine's path length, its per-region breakdown, the instruction
mix total and both mix histograms must each sum to the number of
instructions the run retired. The counts come from different places —
the simulator's retirement counter, the engine's per-instruction tally
folded by region, by mnemonic and by group — so a translation that
retires the wrong stream, or an engine that drops or double-counts a
block's events, breaks the relation even when two paths agree.
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisConfig
from repro.harness.experiments import SCALED_MODELS
from repro.sim.config import load_core_model
from repro.workloads import ALL_WORKLOADS, get_workload, run_workload

SCALE = 0.01


@pytest.mark.parametrize("isa", ["rv64", "aarch64"])
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_retired_counts_agree(workload, isa):
    wl = get_workload(workload, SCALE)
    compiled = wl.compile(isa, "gcc12")
    engine = AnalysisConfig().build_engine(
        regions=compiled.image.regions,
        model=load_core_model(SCALED_MODELS[isa]))
    run = run_workload(wl, isa, "gcc12", compiled=compiled,
                       batch_sinks=[engine])
    result = engine.results()
    retired = run.result.instructions
    assert retired > 0
    assert run.result.translation is not None  # the translated fast path
    assert result.path.total == retired
    assert sum(result.path.per_region.values()) == retired
    assert result.mix.total == retired
    assert sum(result.mix.by_group.values()) == retired
    assert sum(result.mix.by_mnemonic.values()) == retired
