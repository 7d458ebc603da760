"""Deterministic fault injection for the resilient execution layer.

A :class:`FaultPlan` is a seeded, serializable description of *which*
failures to inject *where*: each :class:`FaultSpec` names an injection
site, a fault kind, and filters (plan substring, attempt numbers,
per-process occurrence indices) that make the injection exactly
reproducible. The harness threads the active plan through every layer it
hardens:

===================== =====================================================
site                  checked by
===================== =====================================================
``worker``            :func:`repro.harness.executor._child_main`, before
                      the heartbeat thread starts (kinds: ``crash``,
                      ``hang``, ``transient``, ``error``)
``execute``           :func:`repro.harness.executor.execute_plan`, both
                      serial and worker paths (``transient``, ``error``,
                      ``hang``)
``cache-result-write``  :meth:`ResultCache.put` — mangles the JSON entry
                      bytes (``truncate``, ``garble``, ``empty``)
``cache-trace-write``   :meth:`TraceStore.put` — mangles the compressed
                      trace envelope (``truncate``, ``garble``, ``empty``)
``cache-tmp-leftover``  :meth:`ResultCache.put`/:meth:`TraceStore.put` —
                      leaves a stray ``*.tmp`` file (``leftover``)
``warm``                :meth:`WarmCache.cached_program` on a warm-image
                      *hit* — as an action site (``transient``, ``error``,
                      ``hang``) and as a *data* site garbling the cached
                      image bytes (``truncate``, ``garble``, ``empty``).
                      The fingerprint re-check catches the corruption,
                      evicts the entry and raises ``WarmStateError``; the
                      pool recycles the poisoned worker and the plan
                      retries clean — it never fails. Note warm workers
                      live across plans, so per-process occurrence
                      counters (``at``) count across the whole task
                      stream, not per plan.
``serve``               the ``repro serve`` daemon's job lifecycle — an
                      *action* site between the job-journal append and
                      executor dispatch (``crash``, ``hang``,
                      ``transient``, ``error``; fired via
                      :func:`check_daemon`, since the daemon is its own
                      supervised process rather than an executor worker),
                      a *data* site tearing job-journal lines
                      (``truncate``, ``garble``, ``empty`` — the restart
                      scan must quarantine or tolerate them), and fired
                      with kind filters at the admission queue-full race
                      (``transient``) and the SSE writer (``hang``,
                      modelling a stalled client socket).
``dist``                the remote-executor tier (:mod:`repro.dist`) — a
                      multi-threaded site fired with *explicit points*
                      (:func:`check_point` / :func:`corrupt_point` /
                      :func:`fire_point`, matched against each spec's
                      ``plan`` filter) so concurrent daemon threads and
                      worker-node agents cannot race on the process
                      context. Windows: ``connect:<node>`` (worker
                      connect — ``transient`` models connect refused),
                      ``register:<node>`` (daemon registration race,
                      ``transient``), ``dispatch:<plan>`` (daemon-side
                      ``transient`` = the node socket cut mid-plan),
                      ``task:<plan>`` (worker per-task ``crash``/
                      ``hang``/``transient``/``error`` — ``hang``
                      models heartbeat silence), ``result:<plan>``
                      (data kinds tear the result frame mid-wire;
                      the site-specific ``duplicate`` kind replays the
                      frame, exercising lease dedup).
``translate-compile``   block compilation in :mod:`repro.sim.blocks`
                      (``error``; exercises per-block demotion)
``semantics``           compiled-block wrapping in :mod:`repro.sim.blocks`
                      (``skew``; flips a destination-register bit after
                      each execution of an affected block — a silent
                      wrong-result bug only differential testing catches)
===================== =====================================================

Zero overhead when no plan is installed: every site guard is one module
global read (``_ACTIVE is None`` / ``_FAULT_HOOK is None``). Workers
receive the plan as a serialized dict argument, so injection is
deterministic under both ``fork`` and ``spawn`` start methods, and the
``attempts`` filter lets a fault fire on attempt 1 and *not* on the
retry — the harness proves recovery, not just failure.

Fault kinds:

* ``crash`` — ``os._exit(exit_code)``; only fires inside a worker
  process (the parent must survive to observe the death).
* ``hang`` — sleep ``seconds``; in a worker this happens *before* the
  heartbeat thread starts, so it models a truly wedged process.
* ``transient`` — raise :class:`InjectedTransientError` (an ``OSError``,
  so the executor's transient-retry policy applies).
* ``error`` — raise :class:`InjectedFaultError` (an
  :class:`ExperimentError`: deterministic, never retried).
* ``truncate`` / ``garble`` / ``empty`` — corrupt bytes being written
  (``garble`` XORs seeded-random positions, so corruption is
  reproducible per :attr:`FaultPlan.seed`).
* ``leftover`` — leave a stray tmp file beside the entry.
"""

from __future__ import annotations

import json
import os
import random
import time
import zlib
from dataclasses import dataclass, field

from repro.common.errors import ExperimentError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "InjectedFaultError",
    "InjectedTransientError",
    "install",
    "uninstall",
    "active",
    "export",
    "set_context",
    "check",
    "check_daemon",
    "check_point",
    "fire",
    "fire_point",
    "corrupt",
    "corrupt_point",
    "mutate_block",
    "KNOWN_SITES",
]

#: Sites whose kinds are *actions* (performed by :func:`check`).
ACTION_KINDS = ("crash", "hang", "transient", "error")
#: Kinds that mangle bytes (applied by :func:`corrupt`).
DATA_KINDS = ("truncate", "garble", "empty")
#: Kinds that mutate compiled-block semantics (applied by
#: :func:`mutate_block` at the ``semantics`` site).
SEMANTIC_KINDS = ("skew",)
#: Site-specific kinds of the ``dist`` tier: ``duplicate`` replays a
#: result frame after the original was sent (the dispatcher must drop
#: the copy by fingerprint — the lease-dedup proof).
DIST_KINDS = ("duplicate",)

#: Every injection site the harness wires up, mapped to the kinds that
#: site can apply. :meth:`FaultPlan.validate` rejects specs outside this
#: table so a typo'd ``--fault-plan`` fails loudly instead of silently
#: never firing.
KNOWN_SITES: dict[str, tuple[str, ...]] = {
    "worker": ACTION_KINDS,
    "execute": ACTION_KINDS,
    "warm": ("transient", "error", "hang") + DATA_KINDS,
    "serve": ACTION_KINDS + DATA_KINDS,
    "dist": ACTION_KINDS + DATA_KINDS + DIST_KINDS,
    "cache-result-write": DATA_KINDS,
    "cache-trace-write": DATA_KINDS,
    "cache-tmp-leftover": ("leftover",),
    "translate-compile": ("error",),
    "semantics": SEMANTIC_KINDS,
}


class InjectedFaultError(ExperimentError):
    """A deterministic injected failure (kind ``error``)."""


class InjectedTransientError(OSError):
    """An injected failure the executor treats as transient."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection: where, what, and exactly when."""

    site: str
    kind: str
    #: Substring of ``plan.describe()``; "" matches any plan.
    plan: str = ""
    #: Attempt numbers to fire on; () fires on any attempt.
    attempts: tuple[int, ...] = ()
    #: 1-based occurrence indices of this site (per process, counted
    #: over occurrences that pass the plan/attempt filters); () fires on
    #: every occurrence.
    at: tuple[int, ...] = ()
    #: ``hang`` duration.
    seconds: float = 30.0
    #: ``crash`` exit status.
    exit_code: int = 86

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "plan": self.plan,
            "attempts": list(self.attempts),
            "at": list(self.at),
            "seconds": self.seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        return cls(
            site=doc["site"],
            kind=doc["kind"],
            plan=doc.get("plan", ""),
            attempts=tuple(int(a) for a in doc.get("attempts", ())),
            at=tuple(int(a) for a in doc.get("at", ())),
            seconds=float(doc.get("seconds", 30.0)),
            exit_code=int(doc.get("exit_code", 86)),
        )


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultSpec` values plus firing state.

    Occurrence counters are per-process (a worker starts fresh), so the
    ``attempts`` filter is the cross-process knob: the parent passes the
    attempt number into each worker.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.specs = [spec if isinstance(spec, FaultSpec)
                      else FaultSpec.from_dict(spec) for spec in self.specs]
        self._counts: dict[int, int] = {}

    # -- firing ----------------------------------------------------------

    def fire(self, site: str, *, plan: str = "", attempt: int = 0,
             in_worker: bool = False,
             kinds: tuple[str, ...] | None = None) -> FaultSpec | None:
        """The first spec firing at this occurrence of ``site``, or None.

        Increments each matching spec's occurrence counter (filters
        first, so a spec scoped to one plan counts only that plan's
        occurrences). ``kinds`` restricts which specs are considered —
        a site that is both an action point and a data point (``warm``:
        :func:`check` performs its action kinds, :func:`corrupt` its
        data kinds) fires each spec only at the call that can apply it.
        """
        for i, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if kinds is not None and spec.kind not in kinds:
                continue
            if spec.plan and spec.plan not in plan:
                continue
            if spec.attempts and attempt not in spec.attempts:
                continue
            if spec.kind == "crash" and not in_worker:
                continue
            count = self._counts.get(i, 0) + 1
            self._counts[i] = count
            if spec.at and count not in spec.at:
                continue
            return spec
        return None

    def validate(self) -> "FaultPlan":
        """Reject specs naming unknown sites or kinds a site cannot
        apply. Returns ``self`` so loading can chain."""
        for spec in self.specs:
            if spec.site not in KNOWN_SITES:
                raise ExperimentError(
                    f"unknown fault site {spec.site!r}; known sites: "
                    f"{', '.join(sorted(KNOWN_SITES))}")
            allowed = KNOWN_SITES[spec.site]
            if spec.kind not in allowed:
                raise ExperimentError(
                    f"fault kind {spec.kind!r} does not apply at site "
                    f"{spec.site!r} (allowed: {', '.join(allowed)})")
        return self

    def rng_for(self, spec: FaultSpec) -> random.Random:
        """Deterministic RNG for this spec's data corruption (``hash()``
        is salted per process, so key on a stable CRC instead)."""
        tag = zlib.crc32(f"{spec.site}/{spec.kind}".encode())
        return random.Random((self.seed << 32) ^ tag)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"v": 1, "seed": self.seed,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if doc.get("v") != 1:
            raise ExperimentError(f"FaultPlan schema {doc.get('v')!r} != 1")
        return cls(specs=[FaultSpec.from_dict(s) for s in doc["specs"]],
                   seed=int(doc.get("seed", 0)))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


# -- global installation ------------------------------------------------

_ACTIVE: FaultPlan | None = None
_CONTEXT = {"plan": "", "attempt": 0, "in_worker": False}


def _sync_hooks() -> None:
    """Point the sim layer's injected hooks at us (or clear them). The
    sim package must not import the harness, so the dependency is
    inverted: installation pokes module globals into
    :mod:`repro.sim.blocks`."""
    from repro.sim import blocks

    blocks._FAULT_HOOK = check if _ACTIVE is not None else None
    sem_active = _ACTIVE is not None and any(
        spec.site == "semantics" for spec in _ACTIVE.specs)
    blocks._SEM_HOOK = mutate_block if sem_active else None


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    _sync_hooks()


def uninstall() -> None:
    """Deactivate fault injection and reset the context."""
    global _ACTIVE
    _ACTIVE = None
    _CONTEXT.update(plan="", attempt=0, in_worker=False)
    _sync_hooks()


def active() -> FaultPlan | None:
    return _ACTIVE


def export() -> dict | None:
    """The active plan as a dict to ship to a worker process, or None."""
    return _ACTIVE.to_dict() if _ACTIVE is not None else None


def set_context(*, plan: str = "", attempt: int = 0,
                in_worker: bool = False) -> None:
    """Record what is being executed, for spec filters."""
    _CONTEXT.update(plan=plan, attempt=attempt, in_worker=in_worker)


def fire(site: str,
         kinds: tuple[str, ...] | None = None) -> FaultSpec | None:
    """Fire ``site`` under the current context; None when inactive."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(site, kinds=kinds, **_CONTEXT)


def _perform(spec: FaultSpec, site: str) -> None:
    if spec.kind == "crash":
        os._exit(spec.exit_code)
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return
    if spec.kind == "transient":
        raise InjectedTransientError(
            f"injected transient fault at {site!r}")
    if spec.kind == "error":
        raise InjectedFaultError(f"injected fault at {site!r}")
    raise ExperimentError(
        f"fault kind {spec.kind!r} is not an action (site {site!r})")


def check(site: str) -> None:
    """Fire ``site`` and *perform* an action fault (crash/hang/raise)."""
    spec = fire(site, ACTION_KINDS)
    if spec is None:
        return
    _perform(spec, site)


def check_daemon(site: str,
                 kinds: tuple[str, ...] | None = None) -> None:
    """:func:`check` for a supervised *daemon* process.

    ``crash`` specs normally fire only inside executor workers (the
    parent must survive to observe the death); the serve daemon is its
    own supervised process — its supervisor or the chaos test restarts
    it — so here the in-worker guard is forced open. ``kinds`` narrows
    which action kinds this call site can perform (e.g. the SSE writer
    only models ``hang``)."""
    if _ACTIVE is None:
        return
    action = tuple(k for k in (kinds or ACTION_KINDS) if k in ACTION_KINDS)
    ctx = dict(_CONTEXT)
    ctx["in_worker"] = True
    spec = _ACTIVE.fire(site, kinds=action, **ctx)
    if spec is None:
        return
    _perform(spec, site)


def fire_point(site: str, point: str, *, attempt: int = 0,
               kinds: tuple[str, ...] | None = None) -> FaultSpec | None:
    """Fire ``site`` with an *explicit* context instead of the
    process-global one.

    The ``dist`` tier is multi-threaded on both ends (daemon reader
    threads, worker heartbeat threads), so the global
    :func:`set_context` would race between components firing
    concurrently. ``point`` is matched against each spec's ``plan``
    substring filter — call sites tag themselves
    (``"dispatch:<plan>"``, ``"result:<plan>"``, ...) and specs scope
    to a window by filtering on the tag. ``in_worker`` is forced open:
    every dist participant (daemon and node agents) is its own
    supervised process."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(site, plan=point, attempt=attempt,
                        in_worker=True, kinds=kinds)


def check_point(site: str, point: str, *, attempt: int = 0,
                kinds: tuple[str, ...] | None = None) -> None:
    """:func:`check` under an explicit ``point`` (see
    :func:`fire_point`); ``kinds`` narrows which action kinds this call
    site can perform."""
    action = tuple(k for k in (kinds or ACTION_KINDS) if k in ACTION_KINDS)
    spec = fire_point(site, point, attempt=attempt, kinds=action)
    if spec is None:
        return
    _perform(spec, site)


def corrupt_point(site: str, point: str, data: bytes, *,
                  attempt: int = 0) -> bytes:
    """:func:`corrupt` under an explicit ``point`` (see
    :func:`fire_point`)."""
    spec = fire_point(site, point, attempt=attempt, kinds=DATA_KINDS)
    if spec is None:
        return data
    return _apply_corruption(spec, site, data)


def mutate_block(fn, insts):
    """Fire the ``semantics`` site for a freshly compiled block function.

    When a ``skew`` spec fires, the block function is wrapped so every
    execution additionally XORs bit 0 of one integer register the block
    writes — a deliberately *silent* wrong-result bug (no crash, no
    hang) that only a differential oracle can catch. The victim register
    is chosen deterministically from the plan seed among the block's
    integer destinations (falling back to a seeded pick in x1..x30 for
    blocks with none). Demoted blocks are never passed through here, so
    the interpreter stays a trustworthy oracle.
    """
    spec = fire("semantics", SEMANTIC_KINDS)
    if spec is None:
        return fn
    if spec.kind != "skew":
        raise ExperimentError(
            f"fault kind {spec.kind!r} is not a semantics mutation")
    rng = _ACTIVE.rng_for(spec)
    dsts = sorted({d for inst in insts for d in inst.dsts if 1 <= d <= 30})
    reg = rng.choice(dsts) if dsts else rng.randint(1, 30)

    def _skewed(machine, *rest):
        out = fn(machine, *rest)
        machine.r[reg] ^= 1
        return out

    return _skewed


def corrupt(site: str, data: bytes) -> bytes:
    """Fire ``site`` and mangle ``data`` per the spec (identity when the
    site does not fire)."""
    spec = fire(site, DATA_KINDS)
    if spec is None:
        return data
    return _apply_corruption(spec, site, data)


def _apply_corruption(spec: FaultSpec, site: str, data: bytes) -> bytes:
    if spec.kind == "truncate":
        return data[:len(data) // 2]
    if spec.kind == "empty":
        return b""
    if spec.kind == "garble":
        rng = _ACTIVE.rng_for(spec)
        blob = bytearray(data)
        for _ in range(max(4, len(blob) // 64)):
            if not blob:
                break
            blob[rng.randrange(len(blob))] ^= 1 + rng.randrange(255)
        return bytes(blob)
    raise ExperimentError(
        f"fault kind {spec.kind!r} does not corrupt data (site {site!r})")
