"""Deterministic intra-run sharding: snapshot, fast-forward, merge.

Paper-scale inputs (§4: 10M-element STREAM) spend nearly all their
wall-clock in the analysis engines, not in bare emulation — the
probe-free translated fast path retires instructions several times
faster than the fused engine can analyze them. That gap is the
parallelism budget this module spends, QEMU-icount style:

1. **Fast-forward** the program once, probe-free
   (:meth:`EmulationCore.fast_forward`), capturing a
   :class:`~repro.sim.snapshot.MachineSnapshot` every checkpoint
   interval (adaptively thinned, so the checkpoint count stays bounded
   without knowing the run length in advance). This pass also yields
   the exact total retirement count and the final machine state, which
   validates against the workload's reference outputs exactly as a
   serial run would.
2. **Slice** the retirement stream at the checkpoints nearest the
   ideal equal-work boundaries. Each slice restores its snapshot,
   builds a fresh analysis engine — ``relative=True`` for every slice
   but the first (PR 6's max-plus suffix engines) — and consumes
   exactly its span of retirements (:class:`BudgetExhausted` is the
   precise end-of-slice signal, not an error).
3. **Merge** the per-slice states left-to-right with
   :meth:`AnalysisState.merge`. Merging is associative by
   construction, so the folded result is byte-identical to the serial
   engine's — sharding is a pure wall-clock optimization with no
   result-identity footprint (``shards`` is excluded from plan
   fingerprints).

Slices run either **in-process** (one shared core: warm translators,
shared static table, the engine merge hits its same-table fast path) or
**in parallel worker processes** (snapshot blobs ship out, engine state
documents ship back, and the merge rebases instruction indices by
``(pc, word)`` identity). The parallel path degrades, never fails: a
shard worker that crashes, hangs up, or returns a corrupt snapshot is
retried a bounded number of times and then its slice simply runs
in-process — fault site ``shard`` (:mod:`repro.harness.faults`)
exercises exactly these paths. Inside a daemonic executor worker (which
cannot fork) the in-process path is chosen automatically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.common import BudgetExhausted, SimulationError
from repro.common.errors import ExperimentError
from repro.harness import faults
from repro.isa import get_isa
from repro.loader import load_program
from repro.sim import CheckpointRecorder, EmulationCore, Machine, MachineSnapshot, Memory

__all__ = [
    "MAX_AUTO_SHARDS",
    "ShardRunStats",
    "resolve_shards",
    "run_sharded_config",
]

#: ``--shards auto`` (0) never resolves above this; past ~8 slices the
#: per-shard restore/merge overhead outgrows the marginal speedup on the
#: workload sizes the paper uses.
MAX_AUTO_SHARDS = 8

#: Initial fast-forward checkpoint interval (instructions). Doubles each
#: time the recorder thins, so checkpoint density adapts to run length.
DEFAULT_CHECKPOINT_INTERVAL = 1 << 15

#: Thin the checkpoint history above this count (bounds snapshot memory).
MAX_CHECKPOINTS = 48

#: Polling interval while supervising shard workers, seconds.
_POLL_S = 0.02


def resolve_shards(shards: int, cores: int | None = None) -> int:
    """Resolve a plan's ``shards`` knob to a concrete slice count.

    ``0`` means *auto*: one slice per available CPU, capped at
    :data:`MAX_AUTO_SHARDS`. Explicit counts pass through unchanged.
    """
    if shards < 0:
        raise ExperimentError(f"shards must be >= 0, got {shards}")
    if shards == 0:
        cores = cores if cores is not None else (os.cpu_count() or 1)
        return max(1, min(cores, MAX_AUTO_SHARDS))
    return shards


@dataclass
class ShardRunStats:
    """Telemetry of one sharded config run (never part of the result
    identity — carried like translation stats, dropped by caches)."""

    shards: int
    checkpoints: int
    total_instructions: int
    ff_seconds: float
    parallel: bool
    fallbacks: int = 0
    retries: int = 0

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "checkpoints": self.checkpoints,
            "total_instructions": self.total_instructions,
            "ff_seconds": self.ff_seconds,
            "parallel": self.parallel,
            "fallbacks": self.fallbacks,
            "retries": self.retries,
        }


def _fresh_machine(compiled) -> tuple[Machine, EmulationCore, object]:
    isa = get_isa(compiled.isa_name)
    memory = Memory()
    load_program(compiled.image, memory)
    machine = Machine(isa.name, memory)
    machine.reset_stack()
    machine.pc = compiled.image.entry
    return machine, isa, memory


def _validate_outputs(workload, isa: str, profile: str, machine,
                      compiled) -> dict[str, float]:
    """Replicate :func:`repro.workloads.run_workload` validation against
    the fast-forwarded final machine (the FF pass runs to completion, so
    sharding validates outputs exactly once, like a serial run)."""
    from repro.workloads.base import read_output_scalars

    if machine.exit_code != 0:
        raise AssertionError(
            f"{workload.name}/{isa}/{profile}: exit code "
            f"{machine.exit_code}"
        )
    expected = workload.expected()
    outputs = read_output_scalars(machine, compiled, expected.keys())
    tol = workload.tolerance()
    for name, want in expected.items():
        got = outputs[name]
        if want == 0.0:
            ok = abs(got) <= tol
        else:
            ok = abs(got - want) <= tol * max(abs(want), 1.0)
        if not ok:
            raise AssertionError(
                f"{workload.name}/{isa}/{profile}: output {name} = "
                f"{got!r}, reference {want!r}"
            )
    return outputs


def _pick_cuts(positions: list[int], total: int, shards: int) -> list[int]:
    """Checkpoint positions nearest the ideal equal-work boundaries.

    ``positions`` are the recorded checkpoints (ascending, first is 0).
    Duplicates collapse, so fewer checkpoints than requested shards
    simply yields fewer (possibly zero) cuts — correctness never depends
    on hitting the ideal boundary, only on cutting *at a checkpoint*.
    """
    interior = [p for p in positions if 0 < p < total]
    if not interior or shards <= 1:
        return []
    cuts = set()
    for k in range(1, shards):
        ideal = round(k * total / shards)
        cuts.add(min(interior, key=lambda p: abs(p - ideal)))
    return sorted(cuts)


# -- worker-process slice execution ---------------------------------------


def _run_slice(core, engine, lo: int, hi: int | None,
               budget: int, trace_writer=None):
    """Consume retirements ``[lo, hi)`` on a machine already positioned
    at ``lo``. ``hi=None`` runs to program exit; bounded slices treat
    :class:`BudgetExhausted` as their normal completion."""
    sinks = [engine]
    if trace_writer is not None:
        sinks.append(trace_writer)
    if hi is None:
        return core.run_batched(sinks, max_instructions=budget - lo)
    try:
        core.run_batched(sinks, max_instructions=hi - lo)
    except BudgetExhausted:
        return None
    raise SimulationError(
        f"program exited inside shard slice [{lo}, {hi}) — the "
        f"fast-forward pass measured a longer run; snapshot and "
        f"simulation disagree"
    )


def _shard_child(conn, payload: dict) -> None:
    """Worker-process entry point: restore, run one slice, ship state.

    The loaded image ships *in* (so workers never touch the compiler)
    and the engine state ships *out* as its :meth:`state_doc` document —
    plain lists and tuples, no numpy buffers or closures — which the
    parent rebases onto the merged result by ``(pc, word)`` identity.
    """
    try:
        fault_doc = payload.get("faults")
        if fault_doc:
            faults.install(faults.FaultPlan.from_dict(fault_doc))
            faults.set_context(plan=payload["describe"],
                               attempt=payload["attempt"], in_worker=True)
        faults.check("shard")
        warm_blocks = payload.get("warm_blocks")
        if warm_blocks:
            # Draw translated block/summary sources from the same
            # on-disk warm level the pool workers use: a spawn-started
            # slice (no inherited code cache) skips each block's compile().
            from repro.harness.cache import BlockStore
            from repro.harness.warmcache import preload_sources

            doc = BlockStore(warm_blocks["root"]).get(warm_blocks["key"])
            if doc is not None:
                preload_sources(doc)
        snap = MachineSnapshot.from_bytes(payload["snapshot"])
        from repro.analysis.config import AnalysisConfig

        image = payload["image"]
        isa = get_isa(snap.isa_name)
        machine = Machine(isa.name, Memory(snap.memory_size))
        snap.restore(machine, image)
        core = EmulationCore(isa, machine, translate=payload["translate"])
        cfg = AnalysisConfig.from_dict(payload["analysis"])
        engine = cfg.build_engine(
            regions=image.regions, model=payload["model"],
            relative=payload["index"] > 0,
        )
        _run_slice(core, engine, payload["lo"], payload["hi"],
                   payload["budget"])
        conn.send({"ok": True, "state": engine.state_doc(),
                   "translation": core.translation_stats()})
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as err:
        try:
            conn.send({"ok": False,
                       "error": f"{type(err).__name__}: {err}"})
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _run_parallel_slices(bounds, snaps, *, image, describe, cfg,
                         model, budget, translate, retries,
                         stats: ShardRunStats, run_inproc,
                         warm_blocks: dict | None = None):
    """Fan slices out to worker processes; merge state docs in order.

    Per-slice bounded retries; a slice whose workers keep dying (or keep
    shipping corrupt snapshots) falls back to ``run_inproc`` — the plan
    degrades to partial (or full) serial execution instead of failing.
    """
    from repro.harness.executor import _mp_context

    ctx = _mp_context()
    fault_doc = faults.export()
    slices = list(range(len(bounds) - 1))

    def launch(k: int, attempt: int):
        lo, hi = bounds[k], bounds[k + 1]
        blob = faults.corrupt("shard", snaps[lo].to_bytes())
        payload = {
            "image": image,
            "analysis": cfg.to_dict(), "model": model,
            "snapshot": blob, "index": k, "lo": lo, "hi": hi,
            "budget": budget, "translate": translate,
            "faults": fault_doc, "attempt": attempt, "describe": describe,
            "warm_blocks": warm_blocks,
        }
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_shard_child,
                           args=(child_conn, payload), daemon=True)
        proc.start()
        child_conn.close()
        return proc, parent_conn

    states: dict[int, object] = {}
    translations: dict[int, dict | None] = {}
    active = {}  # k -> (proc, conn, attempt)
    for k in slices:
        active[k] = (*launch(k, 1), 1)

    def settle(k: int, msg: dict | None, attempt: int):
        """One slice attempt ended; retry, fall back, or record."""
        if msg is not None and msg.get("ok"):
            engine = cfg.build_engine(regions=image.regions, model=model,
                                      relative=k > 0)
            engine.load_state_doc(msg["state"])
            states[k] = engine.state()
            translations[k] = msg.get("translation")
            return
        if attempt <= retries:
            stats.retries += 1
            active[k] = (*launch(k, attempt + 1), attempt + 1)
            return
        stats.fallbacks += 1
        states[k], translations[k] = run_inproc(k)

    while active:
        time.sleep(_POLL_S)
        for k in list(active):
            proc, conn, attempt = active[k]
            msg = None
            final = False
            if conn.poll():
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None
                final = True
            elif not proc.is_alive():
                final = True
            if final:
                del active[k]
                proc.join()
                conn.close()
                settle(k, msg, attempt)

    ordered = [states[k] for k in slices]
    merged = ordered[0]
    for state in ordered[1:]:
        merged = merged.merge(state)
    return merged, [translations[k] for k in slices]


# -- the sharded config runner --------------------------------------------


def run_sharded_config(workload, isa: str, profile: str, compiled, cfg,
                       model, max_instructions: int, shards: int,
                       translate: bool = True, trace_writer=None,
                       *, checkpoint_interval: int | None = None,
                       parallel: bool | None = None, retries: int = 1,
                       ) -> tuple["ConfigResult", ShardRunStats]:
    """Run one configuration sharded; byte-identical to the serial path.

    Returns ``(result, stats)``. ``parallel=None`` auto-selects worker
    processes when there is more than one slice, more than one CPU, no
    trace recording, and this process may fork; ``False`` forces the
    in-process path (still sharded — the property tests and the fuzzer
    oracle exercise slice/merge without process overhead).
    """
    from repro.harness.experiments import ConfigResult

    if cfg.engine != "fused":
        raise ExperimentError(
            "sharded execution requires the fused (batched) engine; "
            f"got {cfg.engine!r}"
        )
    if shards < 1:
        raise ExperimentError(f"resolved shard count must be >= 1, got {shards}")

    # Phase 1: probe-free fast-forward with adaptive checkpointing. This
    # pass finds the exact run length, records restore points, and ends
    # on the final machine state (which validates the outputs).
    machine, isa_obj, _memory = _fresh_machine(compiled)
    core = EmulationCore(isa_obj, machine, translate=translate)
    recorder = CheckpointRecorder(machine)
    interval = checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
    ff_started = time.monotonic()
    pos = 0
    while machine.running and pos < max_instructions:
        step = min(interval, max_instructions - pos)
        executed = core.fast_forward(step)
        pos += executed
        if executed < step or not machine.running:
            break
        if pos < max_instructions:
            recorder.capture(pos)
            if len(recorder.snapshots) > MAX_CHECKPOINTS:
                recorder.thin()
                interval *= 2
    if machine.running:
        raise BudgetExhausted(
            f"instruction budget ({max_instructions}) exhausted",
            pc=machine.pc,
        )
    total = pos
    ff_seconds = time.monotonic() - ff_started
    # workload=None skips output validation: the fuzzer's sharding oracle
    # runs generated programs that have no reference outputs.
    name = "program"
    if workload is not None:
        name = workload.name
        _validate_outputs(workload, isa, profile, machine, compiled)

    cuts = _pick_cuts([s.retired for s in recorder.snapshots], total, shards)
    bounds: list[int | None] = [0, *cuts, None]
    snaps = {snap.retired: snap for snap in recorder.snapshots}
    n_slices = len(bounds) - 1
    use_parallel = (
        (parallel if parallel is not None else True)
        and n_slices > 1
        and trace_writer is None
        and (os.cpu_count() or 1) > 1
        and not multiprocessing.current_process().daemon
    )
    stats = ShardRunStats(
        shards=n_slices, checkpoints=len(recorder.snapshots),
        total_instructions=total, ff_seconds=ff_seconds,
        parallel=use_parallel,
    )

    def run_inproc(k: int):
        """Run slice ``k`` on the phase-1 core (warm translators, shared
        static table); also the parallel path's per-slice fallback."""
        lo, hi = bounds[k], bounds[k + 1]
        snaps[lo].restore(machine, compiled.image)
        engine = cfg.build_engine(
            regions=compiled.image.regions, model=model, relative=k > 0)
        _run_slice(core, engine, lo, hi, max_instructions,
                   trace_writer=trace_writer)
        return engine.state(), None

    if use_parallel:
        from repro.harness.warmcache import (
            block_key, get_block_root, image_fingerprint,
        )

        warm_blocks = None
        block_root = get_block_root()
        if block_root and translate:
            warm_blocks = {"root": block_root,
                           "key": block_key(image_fingerprint(compiled),
                                            translate)}
        merged, slice_translations = _run_parallel_slices(
            bounds, snaps, image=compiled.image,
            describe=f"{name}/{isa}/{profile}",
            cfg=cfg, model=model, budget=max_instructions,
            translate=translate, retries=retries, stats=stats,
            run_inproc=run_inproc, warm_blocks=warm_blocks,
        )
        translation = _merge_translation_stats(
            [core.translation_stats(), *slice_translations])
    else:
        if trace_writer is not None:
            trace_writer.isa_name = compiled.isa_name
            trace_writer.regions = list(compiled.image.regions)
        # In-process slices run sequentially, so one absolute engine can
        # simply continue across them: it consumes exactly the serial
        # retirement stream (each restore repositions the machine to
        # where the previous slice left it). Relative slices + merge are
        # reserved for worker processes, where the true prefix chain
        # state is unavailable — symbolic max-plus chains there grow
        # with every cell the slice has not seen, which a sequential
        # in-process pass never needs to pay for.
        engine = cfg.build_engine(regions=compiled.image.regions,
                                  model=model, relative=False)
        for k in range(n_slices):
            lo, hi = bounds[k], bounds[k + 1]
            snaps[lo].restore(machine, compiled.image)
            _run_slice(core, engine, lo, hi, max_instructions,
                       trace_writer=trace_writer)
        merged = engine.state()
        translation = core.translation_stats()

    result = ConfigResult.from_analysis(
        name, isa, profile, merged.results(),
        translation=translation,
    )
    return result, stats


def _merge_translation_stats(stats_list) -> dict | None:
    """Sum per-core translation counters (``max_block`` maximizes)."""
    merged = None
    for stats in stats_list:
        if not stats:
            continue
        if merged is None:
            merged = dict(stats)
            continue
        for key, value in stats.items():
            if key == "max_block":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged
