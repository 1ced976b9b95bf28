"""Multi-program serving: a model registry and a shared-scheduler pool.

A deployed CiM service rarely hosts one network.  ``ProgramRegistry``
names compiled programs — registered from a live chip, compiled from a
model, or restored from the content-addressed artifact store — and
``MultiProgramPool`` serves several of them behind one scheduler:

* **One worker group per program.**  Each registered program gets its
  own replica fleet (``_ReplicaWorker.group`` = the program name);
  requests route by name to the least-loaded replica *of that program*,
  and work stealing stays inside the group — a replica is physically
  programmed with one model's weights, so cross-program stealing would
  be a wrong answer, not a load-balancing trick.
* **Bit-exactness across pool shapes.**  Replica ``r`` of a program is
  the same variation draw whether it serves in a dedicated
  :class:`~repro.serve.pool.ChipPool` or in a shared
  ``MultiProgramPool`` (both derive from
  :func:`~repro.compiler.chip.replica_variation_seed`), so consolidating
  N single-model pools onto one scheduler changes scheduling only —
  never logits.  Enforced by ``tests/serve/test_program_registry.py``.
* **Shared warm-up economics.**  A registry entry keeps one warm chip
  per program; building a serving fleet reuses its calibrated MAC unit
  and programmed tiles (fresh meters per replica), so registering a
  program pays bring-up once no matter how many pools it later joins.
  With a store attached, :meth:`ProgramRegistry.register_model` goes
  through :meth:`~repro.artifacts.store.ArtifactStore.load_or_compile`
  — warm bring-up in milliseconds when an artifact matches.
* **Per-program telemetry.**  :meth:`MultiProgramPool.stats` returns a
  :class:`~repro.serve.pool.PoolStats` per program (or one program's on
  request); :meth:`divergence` probes one program's replica fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.chip import Chip
from repro.compiler.lowering import compile_model
from repro.serve.pool import (
    ChipPool,
    _pool_stats,
    _replica_snapshot,
    _ReplicaWorker,
)


@dataclass
class RegisteredProgram:
    """One named program plus its warm first replica.

    ``source`` records how the chip came up: ``"compile"`` (cold build)
    or ``"artifact"`` (restored from the store).
    """

    name: str
    program: object
    design: object
    chip: Chip | None = field(default=None, repr=False)
    source: str = "compile"

    def warm_chip(self) -> Chip:
        """The entry's resident chip, building (cold) on first use."""
        if self.chip is None:
            self.chip = Chip(self.program, self.design)
        return self.chip

    def build_chips(self, n_replicas):
        """A fresh ``n_replicas``-chip fleet for one pool.

        The warm chip is never placed into a pool directly — pools own
        their replicas' meters, and sharing one chip between two pools
        would interleave their telemetry.  Instead replica 0 is a new
        ``Chip`` adopting the warm chip's calibrated unit, programmed
        tiles and estimator (milliseconds, bit-identical forward, same
        pricing), and replicas 1..n-1 redraw variation exactly as
        :meth:`Chip.build_replicas` always does.
        """
        warm = self.warm_chip()
        first = Chip(self.program, self.design,
                     estimator=warm.meter.estimator, unit=warm.unit,
                     programmed=warm._programmed)
        return Chip.build_replicas(self.program, self.design, n_replicas,
                                   first=first)

    def describe(self):
        return {
            "name": self.name,
            "design": type(self.design).__name__,
            "fingerprint": self.program.fingerprint,
            "n_layers": len(self.program.layers),
            "n_tiles": self.program.n_tiles,
            "source": self.source,
            "warm": self.chip is not None,
        }


class ProgramRegistry:
    """Named, insertion-ordered collection of compiled programs.

    Optionally backed by an :class:`~repro.artifacts.store.ArtifactStore`
    so registrations resolve through the content-addressed cache.
    """

    def __init__(self, store=None):
        self.store = store
        self._entries = {}

    def _claim(self, name):
        if not name:
            raise ValueError("a registered program needs a non-empty name")
        if name in self._entries:
            raise ValueError(f"program {name!r} is already registered")

    def register_chip(self, name, chip, *,
                      source="compile") -> RegisteredProgram:
        """Register an already-programmed chip under ``name``."""
        self._claim(name)
        entry = RegisteredProgram(name, chip.program, chip.design,
                                  chip=chip, source=source)
        self._entries[name] = entry
        return entry

    def register_model(self, name, model, design,
                       mapping=None) -> RegisteredProgram:
        """Compile-or-load ``model`` and register the resulting chip.

        With a store attached this is the instant-bring-up path: a
        matching artifact restores the chip in milliseconds and a miss
        compiles cold and saves the artifact for next time.
        """
        if self.store is not None:
            chip, source = self.store.load_or_compile(model, design,
                                                      mapping)
        else:
            program = compile_model(model, design, mapping)
            chip, source = Chip(program, design), "compile"
        return self.register_chip(name, chip, source=source)

    def register_artifact(self, name, fingerprint, *, design=None,
                          check_code_version=True) -> RegisteredProgram:
        """Register a program straight from a stored artifact."""
        if self.store is None:
            raise ValueError(
                "register_artifact needs a registry built with an "
                "ArtifactStore")
        chip = self.store.load_chip(fingerprint, design=design,
                                    check_code_version=check_code_version)
        return self.register_chip(name, chip, source="artifact")

    def get(self, name) -> RegisteredProgram:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"no program {name!r} registered; have "
                f"{list(self._entries)}") from None

    def names(self):
        return tuple(self._entries)

    def describe(self):
        return [entry.describe() for entry in self._entries.values()]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return f"ProgramRegistry({list(self._entries)})"


class MultiProgramPool(ChipPool):
    """One work-stealing scheduler serving several registered programs.

    The request surface is the single-program pool's with a leading
    ``program`` name: :meth:`submit`, :meth:`infer`, :meth:`divergence`,
    :meth:`stats`.  ``replicas`` is a fleet size shared by every
    program, or a ``{name: n}`` dict for asymmetric fleets (hot models
    get more dies).  Scheduling, micro-batching, temperature coalescing,
    draining, and close/drain semantics are inherited unchanged; routing
    and stealing are group-bound (see :class:`ChipPool` internals).
    """

    def __init__(self, registry, names=None, *, replicas=2,
                 max_batch_size=64, linger_s=0.002, autostart=True,
                 workers="threads"):
        names = tuple(names) if names is not None else registry.names()
        if not names:
            raise ValueError("a multi-program pool needs at least one "
                             "registered program")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate program names: {list(names)}")
        if linger_s < 0:
            raise ValueError("linger_s must be non-negative")
        self.registry = registry
        self.names = names
        self.program = None       # no single program; route by name
        self.temp_bins = None     # binning stays a single-program policy
        self._entries = {name: registry.get(name) for name in names}
        replica_workers = []
        for name in names:
            entry = self._entries[name]
            n = replicas.get(name, 2) if isinstance(replicas, dict) \
                else int(replicas)
            if n < 1:
                raise ValueError(
                    f"program {name!r} needs at least one replica")
            for chip in entry.build_chips(n):
                replica_workers.append(
                    _ReplicaWorker(len(replica_workers), chip, 0,
                                   max_batch_size, group=name))
        # Process mode comes along for free: _setup publishes each
        # program's state once (publication groups by program object)
        # and binds every replica's worker to the shared arena.
        self._setup(replica_workers, max_batch_size, linger_s, autostart,
                    worker_mode=workers)

    def _check_program(self, program):
        if program not in self._entries:
            raise KeyError(
                f"pool serves {list(self.names)}, not {program!r}")

    def _default_temp(self, group):
        return self._entries[group].program.mapping.temp_c

    @property
    def mapping(self):
        raise AttributeError(
            "a MultiProgramPool has no single mapping; use "
            "pool.registry.get(name).program.mapping")

    # ------------------------------------------------------------------
    # request surface (program-name routed)
    # ------------------------------------------------------------------
    def submit(self, program, x, temp_c=None):
        """Enqueue on the least-loaded replica serving ``program``."""
        self._check_program(program)
        return self._enqueue(x, temp_c, group=program)

    def infer(self, program, x, temp_c=None):
        """Synchronous request against one program (pumps in sync mode)."""
        ticket = self.submit(program, x, temp_c=temp_c)
        self._pump(ticket)
        return ticket.result()

    def divergence(self, program, x, temp_c=None):
        """Cross-replica fluctuation probe of one program's fleet."""
        self._check_program(program)
        return super().divergence(x, temp_c, _group=program)

    def stats(self, program=None):
        """Per-program :class:`PoolStats` — a dict keyed by name, or one
        program's stats when named."""
        if program is not None:
            self._check_program(program)
        with self._cond:
            snapshots = [_replica_snapshot(w) for w in self.workers]
        tops = {name: next(w.chip.meter.tops_per_watt
                           for w in self.workers if w.group == name)
                for name in self.names}
        if program is not None:
            return _pool_stats(
                [s for s in snapshots if s["program"] == program],
                tops[program])
        return {name: _pool_stats(
                    [s for s in snapshots if s["program"] == name],
                    tops[name])
                for name in self.names}

    def replicas_of(self, program):
        """Replica indices serving ``program`` (for ``submit_to``)."""
        self._check_program(program)
        return tuple(w.index for w in self.workers if w.group == program)

    def __repr__(self):
        groups = {name: sum(1 for w in self.workers if w.group == name)
                  for name in self.names}
        return (f"MultiProgramPool({groups}, "
                f"max_batch_size={self.max_batch_size}, "
                f"closed={self._closed})")


__all__ = ["MultiProgramPool", "ProgramRegistry", "RegisteredProgram"]
