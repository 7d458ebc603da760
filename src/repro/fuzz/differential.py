"""Cross-ISA differential execution: the fuzzer's oracle stack.

One generated program is judged by a stack of oracles, cheapest first:

1. **Compile** for both ISAs — a :class:`~repro.common.errors.CompilerError`
   on a generator-legal program is itself a finding (the generator once
   flushed out a temp-register leak in the back end this way).
2. **Within-ISA**: the decode-once interpreter and the block-translation
   fast path must produce *identical* observable state — exit code,
   stdout, every global's bit pattern, and the exact retirement count
   (blocks retire the same instruction stream they translate).
3. **Analysis**: the fused engine consuming translate-time block-summary
   events must produce *exactly* the results of the five legacy
   per-retire probes on the same binary — path length, plain and scaled
   critical paths, instruction mix and windowed CPs.
4. **Warm reuse**: the same program analyzed as the first plan on a
   fresh :class:`~repro.harness.warmcache.WarmCache` and again as plan
   #N after intervening cached reuses must produce identical analysis
   documents. The reuse loop passes through the cache's fingerprint
   re-check, so this oracle composes with the ``warm`` fault site: a
   garbled cached image raises ``WarmStateError``, the entry is evicted
   and rebuilt (the executor's recycle-and-retry in miniature), and the
   documents must *still* agree.
4b. **Distributed scatter** (opt-in, ``--dist-oracle``): a small suite
   scattered by a :class:`~repro.dist.dispatcher.Dispatcher` across two
   in-process worker nodes over real localhost TCP — with an injected
   ``dist`` socket cut mid-run, so one node is lost and its leases are
   redispatched — must render artifacts *byte-identical* to the same
   suite run directly through ``run_suite``. This is the lease/dedup
   machinery's end-to-end determinism proof under fire.
4c. **Serve round-trip** (opt-in, ``--serve-oracle``): a small suite
   submitted to an in-process :class:`~repro.serve.app.ServeApp` over
   real HTTP must yield artifacts *byte-identical* to the same suite
   run directly through :func:`~repro.harness.experiments.run_suite`
   and rendered locally. Both sides share the result cache, so the
   oracle exercises the daemon's admission → journal → dispatch →
   render path, not the simulator twice. Composes with the ``serve``
   fault site: injected admission races surface as 429s the oracle
   must survive by retrying, and journal-line corruption must never
   change the rendered bytes.
5. **Cross-ISA**: RV64 and AArch64 executions of the same source must
   agree on exit code, stdout and global bit patterns. Retirement counts
   legitimately differ (that delta is the paper's whole subject).
6. **Invariants**: an interpreter run under
   :class:`~repro.sim.invariants.InvariantChecker` must retire cleanly.

Doubles are compared as raw 64-bit patterns: the back ends never
contract multiply-add (no FMA), and the generator avoids NaN/inf, so
bit-exact equality across ISAs is the correct expectation.

Any guest fault surfaces as a :class:`Finding` carrying the structured
:class:`~repro.sim.postmortem.GuestFaultReport`; a silent value
divergence captures the translated core's state post-hoc (reason-tagged,
with block history) so even "wrong answer, no crash" cases come with a
register file and disassembly to stare at.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.common.errors import CompilerError
from repro.compiler import compile_source
from repro.isa import get_isa
from repro.loader import load_program
from repro.sim import postmortem
from repro.sim.emucore import EmulationCore
from repro.sim.invariants import InvariantChecker
from repro.sim.machine import Machine
from repro.sim.memory import Memory
from repro.fuzz.generator import GenProgram, PROFILES

__all__ = [
    "ISAS",
    "Finding",
    "Observation",
    "observe",
    "diff_analysis",
    "diff_warm",
    "diff_serve",
    "diff_dist",
    "diff_source",
    "run_case",
    "run_campaign",
]

ISAS = ("rv64", "aarch64")

#: Instruction budget per run: generated programs retire well under this.
DEFAULT_MAX_INSTRUCTIONS = 3_000_000

#: Retired-history depth kept on translated runs for post-mortems.
HISTORY_DEPTH = 64


@dataclass
class Observation:
    """Everything observable about one finished execution."""

    exit_code: int
    instructions: int
    stdout: bytes
    #: symbol → raw little-endian bit pattern(s), one int per element.
    globals: dict[str, list[int]]

    def state(self) -> tuple:
        """Observable state *excluding* the retirement count (the
        cross-ISA comparison key)."""
        return (self.exit_code, self.stdout,
                tuple(sorted((k, tuple(v)) for k, v in self.globals.items())))

    def to_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "instructions": self.instructions,
            "stdout": self.stdout.decode("utf-8", "replace"),
            "globals": {k: [hex(x) for x in v]
                        for k, v in sorted(self.globals.items())},
        }


@dataclass
class Finding:
    """One divergence/fault/compile failure discovered by the fuzzer."""

    kind: str          # compile-error | guest-fault | within-isa |
    #                  # analysis | warm-reuse | cross-isa |
    #                  # invariant
    detail: str
    isa: str = ""      # "" for cross-ISA findings
    source: str = ""
    seed: int | None = None
    profile: str = ""
    #: Serialized :class:`GuestFaultReport` when one was captured.
    fault: dict | None = None
    observations: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "isa": self.isa,
            "seed": self.seed,
            "profile": self.profile,
            "fault": self.fault,
            "observations": self.observations,
        }


def observe(compiled, *, translate: bool, max_instructions: int,
            history: int = 0, check_invariants: bool = False):
    """Run ``compiled`` and return ``(Observation, core)``.

    Mirrors :func:`repro.sim.run_image` but keeps the core so a caller
    who later discovers a silent divergence can still capture its state
    (:func:`repro.sim.postmortem.capture` with a ``reason``). Guest
    faults propagate with their post-mortem report attached.
    """
    isa = get_isa(compiled.isa_name)
    memory = Memory(1 << 24)
    load_program(compiled.image, memory)
    machine = Machine(isa.name, memory)
    machine.reset_stack()
    machine.pc = compiled.image.entry
    probes = ()
    if check_invariants:
        probes = (InvariantChecker.for_image(compiled.image, machine),)
    core = EmulationCore(isa, machine, probes, translate=translate)
    if history:
        core.enable_history(history)
    result = core.run(max_instructions=max_instructions)
    obs = Observation(
        exit_code=result.exit_code,
        instructions=result.instructions,
        stdout=result.stdout,
        globals=_read_globals(compiled.image, memory),
    )
    return obs, core


def _read_globals(image, memory) -> dict[str, list[int]]:
    """Raw bit patterns of every fuzz-pool global present in the image."""
    out: dict[str, list[int]] = {}
    for name, _kind, count in GenProgram.standard_observables():
        addr = image.symbols.get(name)
        if addr is None:
            continue
        out[name] = [memory.load(addr + 8 * i, 8) for i in range(count)]
    return out


#: Window sizes for the fuzzer's analysis oracle: small enough that
#: short generated programs produce full windows.
_ORACLE_WINDOWS = (4, 16)


def diff_analysis(compiled, *, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                  ) -> str:
    """Within-ISA analysis oracle: run the fused engine over the
    translated block-summary event stream AND the five legacy per-retire
    probes over the interpreter, and describe the first metric on which
    they disagree ("" = exact agreement).
    """
    from repro.analysis import (
        AnalysisConfig,
        AnalysisResult,
        CriticalPathProbe,
        InstructionMixProbe,
        PathLengthProbe,
        WindowedCPProbe,
    )
    from repro.harness.plan import SCALED_MODELS
    from repro.sim.config import load_core_model
    from repro.sim.emucore import run_image

    isa = get_isa(compiled.isa_name)
    model = load_core_model(SCALED_MODELS[compiled.isa_name])
    cfg = AnalysisConfig(windowed=True, window_sizes=_ORACLE_WINDOWS)
    engine = cfg.build_engine(regions=compiled.image.regions, model=model)
    run_image(compiled.image, isa, batch_sinks=[engine],
              max_instructions=max_instructions)
    fused = engine.results().to_dict()

    path = PathLengthProbe(compiled.image.regions)
    cp = CriticalPathProbe()
    scaled = CriticalPathProbe(model)
    mix = InstructionMixProbe()
    window = WindowedCPProbe(_ORACLE_WINDOWS, 0.5)
    run_image(compiled.image, isa, [path, cp, scaled, mix, window],
              max_instructions=max_instructions, translate=False)
    oracle = AnalysisResult(
        path=path.result(), cp=cp.result(), scaled_cp=scaled.result(),
        mix=mix.result(), windowed=window.results(),
    ).to_dict()

    if fused == oracle:
        return ""
    for key in ("path", "cp", "scaled_cp", "mix", "windowed"):
        if fused.get(key) != oracle.get(key):
            delta = (f"{key}: fused {fused.get(key)!r} != "
                     f"probes {oracle.get(key)!r}")
            return delta if len(delta) <= 500 else delta[:497] + "..."
    return "analysis results differ"


def diff_warm(compiled, *, reuses: int = 3,
              max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> str:
    """Warm-reuse oracle: analyze the program as plan #1 on a fresh
    warm cache, then again as plan #N after ``reuses`` intervening
    cache reuses, and describe the first metric on which the two
    analysis documents disagree ("" = exact agreement).

    Every reuse passes through the cache's fingerprint re-check, so an
    installed ``warm`` fault garbling the cached image surfaces here as
    :class:`WarmStateError`; the oracle rebuilds and continues, exactly
    like the executor recycling a poisoned worker — and the final
    document must still match the first.
    """
    from repro.analysis import AnalysisConfig
    from repro.harness.plan import SCALED_MODELS
    from repro.harness.warmcache import WarmCache, WarmStateError
    from repro.sim.config import load_core_model
    from repro.sim.emucore import run_image

    isa = get_isa(compiled.isa_name)
    model = load_core_model(SCALED_MODELS[compiled.isa_name])
    cfg = AnalysisConfig(windowed=True, window_sizes=_ORACLE_WINDOWS)

    def analyze(prog) -> dict:
        engine = cfg.build_engine(regions=prog.image.regions, model=model)
        run_image(prog.image, isa, batch_sinks=[engine],
                  max_instructions=max_instructions)
        return engine.results().to_dict()

    def build():
        return compile_source(compiled.source, compiled.isa_name,
                              compiled.profile.name)

    warm = WarmCache()
    key = ("fuzz", compiled.isa_name, compiled.profile.name)
    first = analyze(warm.cached_program(key, build))
    reused = None
    for _ in range(max(1, reuses)):
        try:
            reused = warm.cached_program(key, build)
        except WarmStateError:
            # poisoned entry evicted; the next lookup rebuilds — the
            # executor's recycle-and-retry, in miniature
            reused = warm.cached_program(key, build)
    last = analyze(reused)

    if first == last:
        return ""
    for metric in ("path", "cp", "scaled_cp", "mix", "windowed"):
        if first.get(metric) != last.get(metric):
            delta = (f"{metric}: plan #1 {first.get(metric)!r} != "
                     f"warm plan #N {last.get(metric)!r}")
            return delta if len(delta) <= 500 else delta[:497] + "..."
    return "warm-reuse analysis differs"


#: Lazily started in-process serve daemon shared by every ``diff_serve``
#: call in this process (starting a daemon per case would dwarf the
#: simulation cost; sharing one also matches production, where many
#: submissions hit one long-lived service).
_SERVE_FIXTURE: dict = {"app": None, "addr": None}


def _serve_fixture() -> tuple[str, int]:
    if _SERVE_FIXTURE["app"] is None:
        import atexit

        from repro.serve.app import ServeApp

        app = ServeApp(jobs=2, queue_limit=8, client_quota=0)
        addr = app.start_background()
        atexit.register(app.stop_background)
        _SERVE_FIXTURE.update(app=app, addr=addr)
    return _SERVE_FIXTURE["addr"]


def diff_serve(seed: int = 0, *, scale: float = 0.02) -> str:
    """Serve round-trip oracle: submit a small suite to the shared
    in-process daemon over HTTP and describe the first artifact whose
    bytes differ from a direct :func:`run_suite` rendering ("" = exact
    agreement). The workload rotates with ``seed`` so a campaign covers
    the registry; the shared result cache keeps repeat cases cheap.

    Injected admission faults (``serve``/``transient``, queue-full
    races) surface as 429s, which the oracle absorbs by honouring
    Retry-After a few times — persistent shedding *is* a finding.
    """
    import time as _time

    from repro.harness.experiments import run_suite
    from repro.serve.app import render_suite_artifacts
    from repro.serve.client import ServeClient, ServeError
    from repro.workloads import ALL_WORKLOADS

    workload = sorted(ALL_WORKLOADS)[seed % len(ALL_WORKLOADS)]
    params = {"scale": scale, "workloads": [workload], "windowed": False}
    host, port = _serve_fixture()
    client = ServeClient(host, port)
    submitted = None
    for _attempt in range(5):
        try:
            submitted = client.submit(params, client="fuzz")
            break
        except ServeError as err:
            if err.status != 429:
                return f"submission rejected: {err}"
            _time.sleep(min(float(err.retry_after or 1), 2.0))
    if submitted is None:
        return "submission shed with 429 five times in a row"
    job = client.wait(submitted["job"], timeout=600.0)
    job_id = job["job"]
    if job["state"] != "done":
        return (f"job {job_id} finished {job['state']!r}: "
                f"{job.get('error', '')}")
    suite = run_suite(scale, workloads=(workload,), windowed=False,
                      jobs=1, verbose=False)
    expected = render_suite_artifacts(suite, windowed=False)
    served = set(client.artifacts(job_id))
    missing = sorted(set(expected) - served)
    if missing:
        return f"artifacts missing over HTTP: {missing}"
    for name in sorted(expected):
        got = client.artifact(job_id, name)
        if got != expected[name]:
            return (f"{name}: HTTP-served bytes differ from the direct "
                    f"run_suite rendering ({len(got)} vs "
                    f"{len(expected[name])} chars)")
    return ""


#: Lazily started distributed fixture shared by every ``diff_dist``
#: call: one Dispatcher listening on localhost plus two in-process
#: WorkerNode threads, each with its own cache directory (spinning this
#: up per case would dwarf the simulation cost).
_DIST_FIXTURE: dict = {"dispatcher": None}


def _dist_fixture():
    if _DIST_FIXTURE["dispatcher"] is None:
        import atexit
        import tempfile
        from pathlib import Path

        from repro.dist.dispatcher import Dispatcher
        from repro.dist.worker import WorkerNode
        from repro.harness.cache import ResultCache
        from repro.harness.executor import Executor

        tmp = Path(tempfile.mkdtemp(prefix="repro-dist-fuzz-"))
        executor = Executor(jobs=1, cache=ResultCache(tmp / "daemon"),
                            persistent=True)
        dispatcher = Dispatcher(executor=executor, lease_timeout=30.0,
                                node_heartbeat=5.0, retries=2)
        host, port = dispatcher.start_listener()
        nodes = [
            WorkerNode(host, port, name=f"fuzz-node-{i}",
                       cache_root=tmp / f"node{i}", heartbeat=0.5)
            for i in (1, 2)
        ]
        for node in nodes:
            node.start_background()
        dispatcher.wait_for_nodes(2, timeout=15.0)

        def teardown():
            for node in nodes:
                node.stop()
            dispatcher.close()
            executor.close()

        atexit.register(teardown)
        _DIST_FIXTURE.update(dispatcher=dispatcher, nodes=nodes)
    return _DIST_FIXTURE["dispatcher"]


def diff_dist(seed: int = 0, *, scale: float = 0.02) -> str:
    """Distributed scatter oracle: run a small suite through the shared
    two-node dispatcher fixture — cutting one node's socket mid-run —
    and describe the first artifact whose bytes differ from a direct
    :func:`run_suite` rendering ("" = exact agreement). The workload
    and the victim plan rotate with ``seed``.

    When a user fault plan is already installed (``--fault-plan``) it
    is left in charge; otherwise a ``dist``/``transient`` spec is
    installed for the duration that makes the dispatcher sever one
    node's connection right after a task frame is sent, forcing a
    lease redispatch the artifacts must not notice.
    """
    from repro.harness import faults
    from repro.harness.experiments import run_suite
    from repro.harness.plan import plan_suite
    from repro.serve.app import assemble_suite, render_suite_artifacts
    from repro.workloads import ALL_WORKLOADS

    workload = sorted(ALL_WORKLOADS)[seed % len(ALL_WORKLOADS)]
    params = {"scale": scale, "workloads": [workload], "windowed": False,
              "window_sizes": ()}
    plans = plan_suite(scale, workloads=(workload,), windowed=False)
    dispatcher = _dist_fixture()

    installed = None
    if faults.active() is None:
        victim = plans[seed % len(plans)]
        installed = faults.FaultPlan(specs=[faults.FaultSpec(
            site="dist", kind="transient",
            plan=f"dispatch:{victim.describe()}", at=(1,))],
            seed=seed)
        faults.install(installed)
    try:
        results = dispatcher.run(plans)
    except Exception as err:  # noqa: BLE001 — a failed scatter IS the
        return f"distributed run failed: {type(err).__name__}: {err}"
    finally:
        if installed is not None:
            faults.uninstall()

    suite = run_suite(scale, workloads=(workload,), windowed=False,
                      jobs=1, verbose=False)
    expected = render_suite_artifacts(suite, windowed=False)
    got = render_suite_artifacts(assemble_suite(params, results),
                                 windowed=False)
    missing = sorted(set(expected) - set(got))
    if missing:
        return f"artifacts missing from the distributed run: {missing}"
    for name in sorted(expected):
        if got[name] != expected[name]:
            return (f"{name}: distributed bytes differ from the direct "
                    f"run_suite rendering ({len(got[name])} vs "
                    f"{len(expected[name])} chars)")
    return ""


def _fault_finding(kind: str, err: Exception, *, isa: str, source: str,
                   seed=None, profile="") -> Finding:
    report = getattr(err, "fault_report", None)
    return Finding(
        kind=kind, detail=str(err), isa=isa, source=source, seed=seed,
        profile=profile,
        fault=report.to_dict() if report is not None else None,
    )


def diff_source(source: str, *, seed: int | None = None, profile: str = "",
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                serve_oracle: bool = False,
                dist_oracle: bool = False) -> list[Finding]:
    """All findings for one program source (empty list = clean).

    ``serve_oracle`` additionally runs the HTTP round-trip oracle
    (:func:`diff_serve`) — opt-in because it starts a daemon and runs a
    real (tiny) workload suite, which the unit-test path must not pay.
    ``dist_oracle`` likewise runs the two-node distributed scatter
    oracle (:func:`diff_dist`).
    """
    findings: list[Finding] = []
    interp: dict[str, Observation] = {}

    for isa_name in ISAS:
        try:
            compiled = compile_source(source, isa_name, "gcc12")
        except CompilerError as err:
            findings.append(Finding(
                kind="compile-error", detail=str(err), isa=isa_name,
                source=source, seed=seed, profile=profile))
            continue

        try:
            ref, _core = observe(
                compiled, translate=False,
                max_instructions=max_instructions)
        except postmortem.GUEST_FAULTS as err:
            findings.append(_fault_finding(
                "guest-fault", err, isa=isa_name, source=source,
                seed=seed, profile=profile))
            continue
        interp[isa_name] = ref

        try:
            fast, core = observe(
                compiled, translate=True, history=HISTORY_DEPTH,
                max_instructions=max_instructions)
        except postmortem.GUEST_FAULTS as err:
            findings.append(_fault_finding(
                "guest-fault", err, isa=isa_name, source=source,
                seed=seed, profile=profile))
            continue

        diverged = (fast.state() != ref.state()
                    or fast.instructions != ref.instructions)
        if diverged:
            delta = _describe_delta(ref, fast)
            report = postmortem.capture(
                core, reason=f"within-ISA divergence ({delta})")
            findings.append(Finding(
                kind="within-isa",
                detail=f"{isa_name}: translated run diverges from "
                       f"interpreter ({delta})",
                isa=isa_name, source=source, seed=seed, profile=profile,
                fault=report.to_dict(),
                observations={"interpreter": ref.to_dict(),
                              "translated": fast.to_dict()}))
        else:
            # only meaningful when the execution paths agree: the
            # analysis oracle compares fused-over-translated against
            # probes-over-interpreter, so an execution divergence would
            # just be re-reported here as a duplicate analysis delta
            try:
                delta = diff_analysis(compiled,
                                      max_instructions=max_instructions)
            except postmortem.GUEST_FAULTS as err:
                findings.append(_fault_finding(
                    "analysis", err, isa=isa_name, source=source,
                    seed=seed, profile=profile))
            else:
                if delta:
                    findings.append(Finding(
                        kind="analysis",
                        detail=f"{isa_name}: fused block-summary "
                               f"analysis diverges from the probe "
                               f"oracle ({delta})",
                        isa=isa_name, source=source, seed=seed,
                        profile=profile))
            try:
                delta = diff_warm(compiled,
                                  max_instructions=max_instructions)
            except postmortem.GUEST_FAULTS as err:
                findings.append(_fault_finding(
                    "warm-reuse", err, isa=isa_name, source=source,
                    seed=seed, profile=profile))
            else:
                if delta:
                    findings.append(Finding(
                        kind="warm-reuse",
                        detail=f"{isa_name}: analysis after warm cache "
                               f"reuse diverges from the first plan "
                               f"({delta})",
                        isa=isa_name, source=source, seed=seed,
                        profile=profile))

        try:
            observe(compiled, translate=False, check_invariants=True,
                    max_instructions=max_instructions)
        except postmortem.GUEST_FAULTS as err:
            findings.append(_fault_finding(
                "invariant", err, isa=isa_name, source=source,
                seed=seed, profile=profile))

    if dist_oracle:
        try:
            delta = diff_dist(seed or 0)
        except Exception as err:  # noqa: BLE001 — fixture trouble is the
            findings.append(Finding(  # finding, not a fuzzer crash
                kind="dist",
                detail=f"dist oracle failed: {type(err).__name__}: {err}",
                source=source, seed=seed, profile=profile))
        else:
            if delta:
                findings.append(Finding(
                    kind="dist",
                    detail=f"distributed artifacts diverge from the "
                           f"direct run_suite rendering ({delta})",
                    source=source, seed=seed, profile=profile))

    if serve_oracle:
        try:
            delta = diff_serve(seed or 0)
        except Exception as err:  # noqa: BLE001 — daemon trouble is the
            findings.append(Finding(  # finding, not a fuzzer crash
                kind="serve",
                detail=f"serve oracle failed: {type(err).__name__}: {err}",
                source=source, seed=seed, profile=profile))
        else:
            if delta:
                findings.append(Finding(
                    kind="serve",
                    detail=f"HTTP-served artifacts diverge from the "
                           f"direct run_suite rendering ({delta})",
                    source=source, seed=seed, profile=profile))

    if len(interp) == len(ISAS):
        a, b = (interp[name] for name in ISAS)
        if a.state() != b.state():
            findings.append(Finding(
                kind="cross-isa",
                detail="ISAs disagree on observable state: "
                       + _describe_delta(a, b),
                source=source, seed=seed, profile=profile,
                observations={ISAS[0]: a.to_dict(), ISAS[1]: b.to_dict()}))
    return findings


def _describe_delta(a: Observation, b: Observation) -> str:
    """First observable that differs, human-readably."""
    if a.exit_code != b.exit_code:
        return f"exit {a.exit_code} != {b.exit_code}"
    if a.stdout != b.stdout:
        return f"stdout {a.stdout!r} != {b.stdout!r}"
    for name in sorted(set(a.globals) | set(b.globals)):
        va, vb = a.globals.get(name), b.globals.get(name)
        if va != vb:
            for i, (xa, xb) in enumerate(zip(va or (), vb or ())):
                if xa != xb:
                    return f"{name}[{i}] {xa:#x} != {xb:#x}"
            return f"{name} {va} != {vb}"
    if a.instructions != b.instructions:
        return f"instret {a.instructions} != {b.instructions}"
    return "states equal"  # caller compared something stricter


def run_case(seed: int, profile: str, *,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             serve_oracle: bool = False,
             dist_oracle: bool = False) -> list[Finding]:
    """Generate and differentially execute one ``(seed, profile)`` case."""
    prog = GenProgram(seed, profile)
    return diff_source(prog.render(), seed=seed, profile=profile,
                       max_instructions=max_instructions,
                       serve_oracle=serve_oracle,
                       dist_oracle=dist_oracle)


def run_campaign(seed: int, count: int, *, profiles=PROFILES,
                 out_dir=None, time_budget: float | None = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 minimize: bool = True, progress=None,
                 serve_oracle: bool = False,
                 dist_oracle: bool = False) -> dict:
    """Run ``count`` cases per profile starting at ``seed``.

    Returns a summary dict; when ``out_dir`` is given, each finding's
    (minimized) reproducer is written as ``case-<seed>-<profile>.kc``
    plus a ``.json`` sidecar with the finding details.
    """
    from repro.fuzz.minimize import shrink_program

    t0 = time.monotonic()
    cases = 0
    findings: list[Finding] = []
    stopped = ""
    for index in range(count):
        for profile in profiles:
            if (time_budget is not None
                    and time.monotonic() - t0 >= time_budget):
                stopped = "time budget exhausted"
                break
            case_seed = seed + index
            found = run_case(case_seed, profile,
                             max_instructions=max_instructions,
                             serve_oracle=serve_oracle,
                             dist_oracle=dist_oracle)
            cases += 1
            if progress is not None and not found:
                progress(case_seed, profile, None)
            for finding in found:
                prog = GenProgram(case_seed, profile)
                # serve/dist findings are service properties, not
                # program properties — there is nothing to shrink
                if minimize and finding.kind not in ("serve", "dist"):
                    kept = shrink_program(
                        prog, finding.kind,
                        max_instructions=max_instructions)
                    finding.source = prog.render(keep=kept)
                findings.append(finding)
                if progress is not None:
                    progress(case_seed, profile, finding)
                if out_dir is not None:
                    _write_reproducer(out_dir, finding)
        if stopped:
            break
    return {
        "cases": cases,
        "findings": [f.to_dict() for f in findings],
        "finding_objects": findings,
        "elapsed": time.monotonic() - t0,
        "stopped": stopped or "completed",
    }


def _write_reproducer(out_dir, finding: Finding) -> None:
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"case-{finding.seed}-{finding.profile or 'replay'}"
    (out / f"{stem}.kc").write_text(finding.source)
    (out / f"{stem}.json").write_text(
        json.dumps(finding.to_dict(), indent=2, sort_keys=True) + "\n")


def replay_source(source: str, *,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  ) -> list[Finding]:
    """Differentially execute a stored ``.kc`` reproducer/corpus file."""
    return diff_source(source, max_instructions=max_instructions)
