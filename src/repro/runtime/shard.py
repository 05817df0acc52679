"""Process-sharded runtime: multi-process sweeps with a cross-shard
event router.

The single-process runtime tops out at one interpreter: the
:class:`~repro.runtime.sweep.SweepEngine` overlaps device I/O on
threads, but the GIL caps compute and the registry/bus are single-copy.
This module takes the paper's small-to-large continuum literally — the
same orchestration design runs over a fleet partitioned into per-process
shards:

* the fleet is hash-partitioned by entity id
  (:func:`repro.mapreduce.partition.shard_index`, the same stable crc32
  the MapReduce shuffle uses), one shard per **worker process**;
* each worker hosts a full :class:`~repro.runtime.app.Application` that
  binds only its shard's entities — so supervision, read caching and
  columnar batch reads all keep working per shard, unchanged;
* the **coordinator** hosts the application logic (contexts,
  controllers, windows, periodic jobs) and no devices.  Periodic
  gathers fan out to the workers, which sweep, fold outcomes and run
  map-side combines locally; the coordinator merges replies back into
  exact registry order — the same ``(position, value)`` merge
  discipline the sweep engine uses for threads;
* a :class:`ShardRouter` forwards cross-shard traffic: publishes raised
  inside a worker are recorded at the device instance and replayed into
  the coordinator's bus, and coordinator-side reads/actions are routed
  to the owning shard.

Determinism guarantees (and their limits):

* Entity-to-shard assignment is a pure function of ``(entity_id,
  shards)`` — stable across runs and across processes.
* Worker clocks are :class:`~repro.runtime.clock.SimulationClock`
  instances advanced with **absolute** ``run_until(target)`` commands,
  never relative deltas, so simulated substrate values (pure functions
  of the clock reading) stay byte-identical to a single-process run.
* Ungrouped and grouped payloads merge by global registration position
  and are byte-identical to ``ShardConfig(enabled=False)``.
* MapReduce payloads are exact for jobs without a ``combine`` hook (raw
  map emissions are re-ordered into the single-process emission
  sequence before one final reduce).  With a combiner, each worker
  ships one partial per key and the final reduce sees one partial per
  contributing shard instead of one per fleet — value-identical for
  associative combine/reduce pairs, the same contract incremental
  windows already impose.

Spawn-safety: worker processes are started through
``multiprocessing.get_context(start_method)``.  Under ``spawn`` (and
``forkserver``) the :class:`ShardBootstrap` must be picklable and
importable — a module-level class, not a closure; under the POSIX
default ``fork`` any bootstrap works.  The bootstrap contract is the
heart of it: ``build(ctx)`` must construct the application from scratch
inside the calling process (fresh clock, fresh substrate, fresh
drivers) and bind only the entities ``ctx.owns``.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from repro.errors import BindingError, ShardError
from repro.mapreduce.api import (
    CombineCollector,
    MapCollector,
    job_combiner,
)
from repro.mapreduce.partition import shard_index
from repro.runtime.clock import SimulationClock
from repro.runtime.component import GatherReading, SourceEvent
from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.app import Application

__all__ = [
    "ShardBootstrap",
    "ShardConfig",
    "ShardContext",
    "ShardRouter",
    "ShardedRuntime",
]

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ShardConfig(ConfigBase):
    """How a sharded runtime partitions and executes.

    * ``enabled`` — off by default: the runtime stays single-process
      and byte-identical to the unsharded code path (the
      :class:`ShardedRuntime` then binds the whole fleet into one local
      application and never spawns a worker).
    * ``workers`` — worker process count; also the shard count, so the
      fleet partitions into exactly ``workers`` hash shards.
    * ``start_method`` — ``multiprocessing`` start method; ``None``
      uses the platform default (``fork`` on POSIX).  ``spawn`` and
      ``forkserver`` require a picklable, importable bootstrap.

    The whole section is structural: the worker gang is fixed for the
    life of the runtime, so ``Application.apply_config`` refuses any
    change to it.
    """

    enabled: bool = False
    workers: int = 4
    start_method: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS[1:]} or None"
            )


@dataclass(frozen=True)
class ShardContext:
    """Which slice of the fleet one process owns.

    Passed to :meth:`ShardBootstrap.build`: a worker receives its shard
    index and binds the entities it :meth:`owns`; the coordinator
    receives ``index=None`` and binds none.  When sharding is disabled
    the runtime builds with ``ShardContext(shards=1, index=0)``, which
    owns everything — the single-process degenerate case.
    """

    shards: int
    index: Optional[int] = None

    @property
    def is_coordinator(self) -> bool:
        return self.index is None

    def owns(self, entity_id: str) -> bool:
        """Does this process bind ``entity_id``?

        Pure function of ``(entity_id, shards)`` via the stable crc32
        partitioner, so every process in the gang agrees without
        coordination."""
        if self.index is None:
            return False
        return shard_index(entity_id, self.shards) == self.index


class ShardBootstrap:
    """Recipe for building one process's view of the application.

    Subclasses implement:

    * :meth:`fleet` — the **full** fleet's entity ids in global
      registration order.  Every process derives the same global
      positions from it; those positions are what the coordinator's
      merge sorts by.
    * :meth:`build` — construct a fresh, **unstarted**
      :class:`~repro.runtime.app.Application` in the calling process,
      installing every implementation but binding only the devices
      ``ctx.owns``.  The app's clock must be a
      :class:`~repro.runtime.clock.SimulationClock` (workers are driven
      by absolute clock-sync commands), and carrying a
      :class:`ShardConfig` on its :class:`RuntimeConfig` is how the
      runtime learns its worker count when none is passed explicitly.

    The bootstrap is pickled into worker processes under ``spawn``, so
    keep it a plain data record (design source, fleet size, seeds) —
    never live drivers or clocks.
    """

    def fleet(self) -> Sequence[str]:
        raise NotImplementedError  # pragma: no cover - interface

    def build(self, ctx: ShardContext) -> "Application":
        raise NotImplementedError  # pragma: no cover - interface

    def bind_entity(
        self, app: "Application", entity_id: str, position: int
    ) -> None:
        """Bind one more entity into a built application (dynamic
        re-partitioning).

        Called by :meth:`ShardedRuntime.rebind` — on the owning worker's
        application when sharded, on the local application otherwise —
        with the coordinator-assigned global registration ``position``.
        The default refuses: a bootstrap must opt into dynamic binding
        by knowing how to construct the entity's driver inside an
        already-built process.
        """
        raise ShardError(
            f"{type(self).__name__} does not support dynamic "
            "(re)binding; override ShardBootstrap.bind_entity"
        )


class ShardEntityProxy:
    """Coordinator-side handle on an entity living in a worker process.

    Mirrors the :class:`~repro.runtime.proxies.DeviceProxy` surface —
    ``entity_id`` / ``device_type`` / ``attributes`` properties, typed
    ``query``/``act``, and dynamic snake-case facets — but routes reads
    and actions through the :class:`ShardedRuntime` to the shard that
    owns the entity.  The ``repr`` matches ``DeviceProxy`` exactly so
    payload digests (context memoization) agree across modes.
    """

    __slots__ = ("_runtime", "_info", "_entity_id", "_attributes")

    def __init__(self, runtime, info, entity_id, attributes):
        object.__setattr__(self, "_runtime", runtime)
        object.__setattr__(self, "_info", info)
        object.__setattr__(self, "_entity_id", entity_id)
        object.__setattr__(self, "_attributes", dict(attributes))

    @property
    def entity_id(self) -> str:
        return self._entity_id

    @property
    def device_type(self) -> str:
        return self._info.name

    @property
    def attributes(self) -> Dict[str, Any]:
        return dict(self._attributes)

    def query(self, source: str) -> Any:
        """Query-driven read, served by the owning shard."""
        return self._runtime.query(self._entity_id, source)

    def act(self, action: str, **params: Any) -> Any:
        return self._runtime.act(self._entity_id, action, **params)

    def __getattr__(self, name: str) -> Any:
        from repro.naming import (
            action_method_name,
            camel_to_snake,
            query_method_name,
        )

        info = object.__getattribute__(self, "_info")
        for source in info.sources:
            if query_method_name(source) == name:
                return functools.partial(self.query, source)
        for action in info.actions:
            if action_method_name(action) == name:
                return functools.partial(self.act, action)
        attributes = object.__getattribute__(self, "_attributes")
        for attribute in attributes:
            if camel_to_snake(attribute) == name:
                return attributes[attribute]
        raise AttributeError(f"device {info.name} has no facet '{name}'")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("device proxies are read-only handles")

    def __repr__(self) -> str:
        return f"<proxy {self.device_type} {self.entity_id}>"


# ----------------------------------------------------------------------
# Wire transport
# ----------------------------------------------------------------------
#
# Every pipe message — commands, replies, the ready handshake — is one
# explicitly pickled byte string sent with ``send_bytes``.  Doing the
# pickling by hand (instead of ``Connection.send``) is what lets the
# coordinator meter the wire: the router counts the bytes of every
# command it sends and every reply it receives into
# ``shard_wire_bytes_total``, which is the quantity the delta protocol
# exists to shrink and the fleet-scale benchmark gates on.

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _wire_send(conn, obj: Any) -> int:
    """Pickle ``obj`` onto the pipe; returns the byte count."""
    data = pickle.dumps(obj, _PICKLE_PROTOCOL)
    conn.send_bytes(data)
    return len(data)


def _wire_recv(conn) -> Tuple[Any, int]:
    """Receive one pickled message; returns ``(object, byte_count)``."""
    data = conn.recv_bytes()
    return pickle.loads(data), len(data)


def _pack_positions(positions: List[int]) -> List[int]:
    """Gap-encode an ascending position list: ``[first, gap, gap, ...]``.

    Worker reading positions are ascending (registry order is bind
    order is ascending coordinator position), so the gaps are small
    ints that pickle in 2 bytes where a million-device fleet's
    absolute positions cost 5."""
    if not positions:
        return positions
    packed = [positions[0]]
    prev = positions[0]
    for position in positions[1:]:
        packed.append(position - prev)
        prev = position
    return packed


def _unpack_positions(packed: List[int]) -> List[int]:
    """Inverse of :func:`_pack_positions`."""
    if not packed:
        return packed
    positions = [packed[0]]
    prev = packed[0]
    for gap in packed[1:]:
        prev += gap
        positions.append(prev)
    return positions


def _encode_group_keys(keys: List[Any]) -> Tuple[Any, ...]:
    """Dictionary-encode a group-key column.

    Fleets group a huge position space into a handful of cohorts, so
    the column is almost always ``("t", table, index_bytes)`` — each
    key string pickled once plus one byte per row.  Columns with more
    than 256 distinct (or unhashable) keys fall back to the plain list
    ``("k", keys)``."""
    table: List[Any] = []
    index_of: Dict[Any, int] = {}
    indexes = bytearray()
    try:
        for key in keys:
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(table)
                if index > 255:
                    return ("k", keys)
                table.append(key)
            indexes.append(index)
    except TypeError:
        return ("k", keys)
    return ("t", table, bytes(indexes))


def _decode_group_keys(block: Tuple[Any, ...]) -> List[Any]:
    """Inverse of :func:`_encode_group_keys`."""
    if block[0] == "t":
        table = block[1]
        return [table[index] for index in block[2]]
    return block[1]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _ShardWorker:
    """One worker process: a shard-local application plus the command
    loop the coordinator drives over a pipe.

    The worker's application is never ``start()``-ed — its periodic
    jobs live at the coordinator — but all of its machinery below the
    wiring layer (registry, sweep engine, supervision, read cache,
    columnar batch path) is fully live, which is exactly what the
    coordinator's gather commands exercise.
    """

    def __init__(self, bootstrap: ShardBootstrap, ctx: ShardContext):
        self.ctx = ctx
        self.bootstrap = bootstrap
        self.app = bootstrap.build(ctx)
        if not isinstance(self.app.clock, SimulationClock):
            raise ShardError(
                "worker applications must run on a SimulationClock",
                shard=ctx.index,
            )
        self.clock: SimulationClock = self.app.clock
        # entity id -> global registration position, derived from the
        # full-fleet enumeration so every shard agrees on merge order.
        self._gpos = {
            entity_id: position
            for position, entity_id in enumerate(bootstrap.fleet())
        }
        self._events: List[Tuple[Any, ...]] = []
        # Poll results parked between the poll and map rounds of a
        # MapReduce gather: (context, interaction) -> keyed readings.
        self._pending: Dict[Tuple[str, int], List[Tuple[Any, ...]]] = {}
        # Delta-sync state per (context, interaction): the registry
        # version the epoch started at plus the last value shipped per
        # global position.  A registry version bump (bind/unbind)
        # resets the epoch — the worker re-registers everything.
        self._sync: Dict[Tuple[str, int], Dict[str, Any]] = {}
        # Re-attach every instance's publish hook to the recorder so
        # pushes surface in command replies instead of dead-ending in
        # the worker's subscriber-less bus.  Recording happens at the
        # instance (one record per publish), not at the bus (which
        # would double-count ancestor-topic deliveries).
        for instance in self.app.registry:
            instance.attach(self._record_publish)

    # -- event recording ------------------------------------------------

    def _record_publish(self, instance, source, value, index) -> None:
        if self.app.read_cache is not None:
            # Keep the worker-local cache semantics of
            # ``_deliver_source_event``: the push supersedes cached
            # reads of this source.
            self.app.read_cache.on_publish(instance, source)
        self._events.append(
            (
                instance.info.name,
                instance.entity_id,
                dict(instance.attributes),
                source,
                value,
                index,
            )
        )

    def _drain_events(self) -> List[Tuple[Any, ...]]:
        events, self._events = self._events, []
        return events

    def _apply_invalidations(self, items) -> None:
        """Apply coordinator-routed cache invalidations.

        These piggyback on the next command instead of costing a
        dedicated round-trip: the router queues them (cross-shard
        cohort invalidations, unbind cleanups) and attaches the queue
        to whatever command reaches this shard next — which is always
        before the next read this shard serves, so the worker-local
        cache can never serve a value the coordinator knows is stale.
        """
        cache = self.app.read_cache
        if cache is None:
            return
        cache.apply_invalidations(items)

    # -- commands -------------------------------------------------------

    def _cmd_sync(self, target: float) -> Dict[str, Any]:
        self.clock.run_until(target)
        return {"events": self._drain_events()}

    def _cmd_poll(
        self, target: float, name: str, index: int
    ) -> Dict[str, Any]:
        """Sweep this shard for one periodic gather.

        Runs the exact per-shard half of
        ``Application._collect_payload``: sweep engine fan-out (serial
        under the simulation clock, columnar when the batch path is
        on), outcome folding with supervision/stale accounting, and
        group-key extraction.  Values stay in this process for
        MapReduce gathers — only ``{group: min gpos}`` crosses the pipe
        until the map round.

        Flat and grouped gathers reply in the delta protocol (see
        :meth:`_encode_delta`): identity columns ship once per
        registration epoch, values ship only when they differ from the
        last shipped value, vanished positions retract, and everything
        else is a ``quiescent`` count.
        """
        self.clock.run_until(target)
        app = self.app
        interaction = app.design.contexts[name].decl.interactions[index]
        source = interaction.source
        sampler = app._read_sampler(interaction)
        dropped_before = app._gather_network_dropped
        failed_before = app._gather_read_failed
        outcomes = app.sweeper.sweep(
            interaction.device,
            functools.partial(app._gather_read, source, sampler),
            read_column=(
                functools.partial(app._gather_read_column, source, sampler)
                if app.config.batch.enabled
                else None
            ),
        )
        readings = app._fold_read_outcomes(outcomes, source)
        reply: Dict[str, Any] = {
            "dropped": app._gather_network_dropped - dropped_before,
            "failed": app._gather_read_failed - failed_before,
            "events": self._drain_events(),
        }
        gpos = self._gpos
        group = interaction.group
        if group is not None and group.uses_mapreduce:
            keyed = []
            for instance, value in readings:
                keyed.append(
                    (
                        gpos[instance.entity_id],
                        self._group_key(instance, group),
                        value,
                    )
                )
            self._pending[(name, index)] = keyed
            mins: Dict[Any, int] = {}
            for position, key, __ in keyed:
                if key not in mins or position < mins[key]:
                    mins[key] = position
            reply["kind"] = "mapreduce"
            reply["keys"] = mins
            return reply
        kind = "flat" if group is None else "grouped"
        reply["kind"] = kind
        try:
            self._encode_delta(reply, kind, readings, group, gpos, name, index)
        except Exception:
            # A half-applied epoch (e.g. a BindingError halfway through
            # key extraction) must not leave ghost "already shipped"
            # digests: drop the state so the next poll re-registers.
            self._sync.pop((name, index), None)
            raise
        return reply

    def _group_key(self, instance, group):
        try:
            return instance.attributes[group.attribute]
        except KeyError:
            raise BindingError(
                f"entity '{instance.entity_id}' has no attribute "
                f"'{group.attribute}' to group by"
            ) from None

    def _encode_delta(
        self, reply, kind, readings, group, gpos, name, index
    ) -> None:
        """The delta wire protocol.

        Reply blocks (all optional, all columnar, positions always
        gap-encoded via :func:`_pack_positions`):

        * ``register`` — rows never shipped this epoch, identity and
          first value together: ``(packed_positions, key_block,
          values)`` for grouped gathers (``key_block`` per
          :func:`_encode_group_keys`), ``(packed_positions,
          type_names, entity_ids, attribute_dicts, values)`` for flat
          ones.
        * ``changed`` — ``(packed_positions, values)`` for
          previously-registered readings that moved.  "Changed" is
          ``type(prev) is not type(value) or prev != value`` — NaN
          therefore always re-ships (never stale), at worst a handful
          of false re-sends.
        * ``retract`` — packed positions shipped earlier this epoch
          that have no reading this sweep (unbound, sampler-dropped,
          read-failed past the stale window); the coordinator drops
          them from its mirror.
        * ``quiescent`` — count of readings identical to the last
          shipped value; they cross the pipe as this single integer.
        * ``reset`` — set when the shard's registry version moved (or
          the epoch is new): the coordinator must clear this shard's
          slice of the mirror before applying the blocks.
        """
        version = self.app.registry.version
        state = self._sync.get((name, index))
        if state is None or state["version"] != version:
            state = {"version": version, "known": {}}
            self._sync[(name, index)] = state
            reply["reset"] = True
        known = state["known"]
        reg_pos: List[int] = []
        reg_ident: List[Any] = []
        reg_val: List[Any] = []
        changed_pos: List[int] = []
        changed_val: List[Any] = []
        quiescent = 0
        flat = kind == "flat"
        for instance, value in readings:
            position = gpos[instance.entity_id]
            if position not in known:
                reg_pos.append(position)
                if flat:
                    reg_ident.append(
                        (
                            instance.info.name,
                            instance.entity_id,
                            dict(instance.attributes),
                        )
                    )
                else:
                    reg_ident.append(self._group_key(instance, group))
                reg_val.append(value)
                known[position] = value
            else:
                prev = known[position]
                if type(prev) is type(value) and prev == value:
                    quiescent += 1
                else:
                    changed_pos.append(position)
                    changed_val.append(value)
                    known[position] = value
        vanished = len(known) - len(readings)
        if vanished:
            present = {gpos[i.entity_id] for i, __ in readings}
            retract = sorted(p for p in known if p not in present)
            for position in retract:
                del known[position]
            reply["retract"] = _pack_positions(retract)
        if reg_pos:
            if flat:
                reply["register"] = (
                    _pack_positions(reg_pos),
                    [ident[0] for ident in reg_ident],
                    [ident[1] for ident in reg_ident],
                    [ident[2] for ident in reg_ident],
                    reg_val,
                )
            else:
                reply["register"] = (
                    _pack_positions(reg_pos),
                    _encode_group_keys(reg_ident),
                    reg_val,
                )
        if changed_pos:
            reply["changed"] = (_pack_positions(changed_pos), changed_val)
        reply["quiescent"] = quiescent

    def _cmd_map(
        self, name: str, index: int, ranks: Dict[Any, int]
    ) -> Dict[str, Any]:
        """Map (and map-side combine) the parked poll readings.

        ``ranks`` is the coordinator's global group order — the rank of
        each group's first *surviving* reading across all shards — so
        sorting this shard's inputs by ``(rank, gpos)`` reproduces the
        exact slice of the single-process input sequence this shard
        owns, and the emission tags ``(rank, gpos, emission)`` are
        globally comparable.
        """
        keyed = self._pending.pop((name, index))
        job = self.app.implementation(name)
        keyed.sort(key=lambda row: (ranks[row[1]], row[0]))
        pairs: List[Tuple[Tuple[int, int, int], Any, Any]] = []
        for position, key, value in keyed:
            collector = MapCollector()
            job.map(key, value, collector)
            rank = ranks[key]
            emissions = enumerate(collector.pairs)
            for emission, (out_key, out_value) in emissions:
                tag = (rank, position, emission)
                pairs.append((tag, out_key, out_value))
        mapped = len(pairs)
        combine = job_combiner(job)
        if combine is not None and pairs:
            grouped: Dict[Any, List[Tuple[Any, Any]]] = {}
            for tag, out_key, out_value in pairs:
                grouped.setdefault(out_key, []).append((tag, out_value))
            combined = []
            for out_key, tagged in grouped.items():
                collector = CombineCollector()
                combine(out_key, [v for __, v in tagged], collector)
                first = min(tag for tag, __ in tagged)
                for pair_key, pair_value in collector.pairs:
                    combined.append((first, pair_key, pair_value))
            pairs = combined
        return {
            "data": pairs,
            "mapped": mapped,
            "events": self._drain_events(),
        }

    def _cmd_publish(
        self, target, entity_id, source, value, index
    ) -> Dict[str, Any]:
        self.clock.run_until(target)
        instance = self.app.registry.get(entity_id)
        instance.publish(source, value, index=index)
        return {"events": self._drain_events()}

    def _cmd_read(self, target, entity_id, source) -> Dict[str, Any]:
        self.clock.run_until(target)
        value = self.app.registry.get(entity_id).read(source)
        return {"value": value, "events": self._drain_events()}

    def _cmd_act(self, target, entity_id, action, params) -> Dict[str, Any]:
        self.clock.run_until(target)
        value = self.app.registry.get(entity_id).act(action, **params)
        return {"value": value, "events": self._drain_events()}

    def _cmd_bind(self, target, entity_id, position) -> Dict[str, Any]:
        """Dynamic re-partitioning: bind one more entity into this
        shard's running application.

        The bootstrap constructs the device (it knows the drivers); the
        worker wires the publish recorder and records the
        coordinator-assigned global position.  The registry version
        bump this causes invalidates the worker's cohort plans and
        resets its delta epochs, so the next poll re-registers — no
        static fleet required.
        """
        self.clock.run_until(target)
        self.bootstrap.bind_entity(self.app, entity_id, position)
        instance = self.app.registry.get(entity_id)
        instance.attach(self._record_publish)
        self._gpos[entity_id] = position
        return {
            "bound": len(self.app.registry),
            "events": self._drain_events(),
        }

    def _cmd_unbind(self, target, entity_id) -> Dict[str, Any]:
        self.clock.run_until(target)
        self.app.unbind_device(entity_id)
        self._gpos.pop(entity_id, None)
        return {
            "bound": len(self.app.registry),
            "events": self._drain_events(),
        }

    def _cmd_stats(self) -> Dict[str, Any]:
        app = self.app
        return {
            "value": {
                "shard": self.ctx.index,
                "bound_entities": len(app.registry),
                "gather_network_dropped": app._gather_network_dropped,
                "gather_read_failed": app._gather_read_failed,
                "sweep": app.sweeper.stats(),
                "supervision": app.supervision.stats(),
                "cache": (
                    app.read_cache.stats()
                    if app.read_cache is not None
                    else None
                ),
            },
            "events": self._drain_events(),
        }

    def serve(self, conn) -> None:
        """The command loop: recv, dispatch, reply, until ``stop``.

        Every message is ``(op, args, invalidations)``; piggybacked
        invalidations apply to the worker cache *before* the command
        dispatches, so a poll or read can never serve a cache entry
        the coordinator has already superseded.
        """
        handlers = {
            "sync": self._cmd_sync,
            "poll": self._cmd_poll,
            "map": self._cmd_map,
            "publish": self._cmd_publish,
            "read": self._cmd_read,
            "act": self._cmd_act,
            "bind": self._cmd_bind,
            "unbind": self._cmd_unbind,
            "stats": self._cmd_stats,
        }
        while True:
            try:
                message, __ = _wire_recv(conn)
            except EOFError:
                break
            op, args, invalidations = message
            if invalidations:
                self._apply_invalidations(invalidations)
            if op == "stop":
                _wire_send(conn, ("ok", {"events": self._drain_events()}))
                break
            try:
                reply = handlers[op](*args)
            except Exception as exc:  # noqa: BLE001 - shipped upstream
                try:
                    _wire_send(conn, ("error", exc))
                except Exception:  # unpicklable exception payload
                    _wire_send(
                        conn,
                        (
                            "error",
                            ShardError(repr(exc), shard=self.ctx.index),
                        ),
                    )
            else:
                _wire_send(conn, ("ok", reply))
        self.app.sweeper.close()
        conn.close()


def _shard_worker_main(conn, bootstrap, index, shards) -> None:
    """Worker process entry point (module-level for spawn pickling)."""
    try:
        worker = _ShardWorker(
            bootstrap, ShardContext(shards=shards, index=index)
        )
    except Exception as exc:  # noqa: BLE001 - surfaced as ShardError
        try:
            _wire_send(conn, ("error", exc))
        except Exception:
            _wire_send(conn, ("error", ShardError(repr(exc), shard=index)))
        conn.close()
        return
    _wire_send(conn, ("ok", {"bound": len(worker.app.registry)}))
    worker.serve(conn)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class ShardRouter(Instrumented):
    """Coordinator-side transport: commands out, events back.

    Owns the worker pipes.  ``broadcast`` sends to every worker before
    receiving any reply, which is where the parallelism comes from —
    all shards sweep (and sleep on their modeled device I/O)
    concurrently while the coordinator waits.  Replies always arrive in
    shard order, so merge inputs are deterministic.
    """

    metric_specs = (
        MetricSpec(
            "shard_commands_total",
            "_commands",
            stats_key="commands",
            help="Commands sent to shard workers.",
        ),
        MetricSpec(
            "shard_events_routed_total",
            "_events_routed",
            stats_key="events_routed",
            help="Worker-side device publishes replayed into the "
            "coordinator bus.",
        ),
        MetricSpec(
            "shard_publishes_forwarded_total",
            "_publishes",
            stats_key="publishes_forwarded",
            help="Cross-shard publishes routed to their owning worker.",
        ),
        MetricSpec(
            "shard_errors_total",
            "_errors",
            stats_key="errors",
            help="Worker commands that failed or lost their worker.",
        ),
        MetricSpec(
            "shard_wire_bytes_total",
            "_wire_bytes",
            stats_key="wire_bytes",
            help="Pickled bytes crossing the worker pipes, both "
            "directions, measured at the coordinator.",
        ),
    )

    def __init__(self):
        self._workers: List[Tuple[Any, Any]] = []  # (process, conn)
        self._commands = 0
        self._events_routed = 0
        self._publishes = 0
        self._errors = 0
        self._wire_bytes = 0
        # Per-shard invalidation queues, drained onto the next command
        # that reaches each shard (see _ShardWorker.serve).
        self._invalidations: List[List[Tuple[Any, ...]]] = []

    def __len__(self) -> int:
        return len(self._workers)

    def attach(self, workers: List[Tuple[Any, Any]]) -> None:
        self._workers = list(workers)
        self._invalidations = [[] for __ in workers]

    def queue_invalidation(
        self, item: Tuple[Any, ...], skip: Optional[int] = None
    ) -> None:
        """Queue a cache invalidation for every shard (minus ``skip``,
        normally the origin shard that already invalidated locally).
        The queue rides piggyback on each shard's next command."""
        for shard, queue in enumerate(self._invalidations):
            if shard != skip:
                queue.append(item)

    def _take_invalidations(self, shard: int) -> Tuple[Tuple[Any, ...], ...]:
        queue = self._invalidations[shard]
        if not queue:
            return ()
        self._invalidations[shard] = []
        return tuple(queue)

    def _send_to(self, shard: int, op: str, args: Tuple[Any, ...]) -> None:
        __, conn = self._workers[shard]
        message = (op, args, self._take_invalidations(shard))
        try:
            self._wire_bytes += _wire_send(conn, message)
        except OSError:
            self._errors += 1
            raise ShardError(
                "worker pipe closed while sending a command", shard=shard
            ) from None

    def _receive(self, shard: int) -> Dict[str, Any]:
        __, conn = self._workers[shard]
        try:
            reply, size = _wire_recv(conn)
        except EOFError:
            self._errors += 1
            raise ShardError(
                "worker process died mid-command", shard=shard
            ) from None
        self._wire_bytes += size
        status, payload = reply
        if status == "error":
            self._errors += 1
            if isinstance(payload, BaseException):
                raise payload
            raise ShardError(repr(payload), shard=shard)
        return payload

    def send(
        self, shard: int, op: str, args: Tuple[Any, ...] = ()
    ) -> Dict[str, Any]:
        """One command to one shard; returns the reply payload."""
        self._commands += 1
        self._send_to(shard, op, args)
        return self._receive(shard)

    def broadcast(
        self, op: str, args: Tuple[Any, ...] = ()
    ) -> List[Dict[str, Any]]:
        """The same command to every shard; replies in shard order."""
        self._commands += len(self._workers)
        for shard in range(len(self._workers)):
            self._send_to(shard, op, args)
        return [self._receive(shard) for shard in range(len(self._workers))]

    def shutdown(self) -> None:
        for shard, (__, conn) in enumerate(self._workers):
            try:
                self._wire_bytes += _wire_send(
                    conn, ("stop", (), self._take_invalidations(shard))
                )
            except OSError:
                pass
        for process, conn in self._workers:
            try:
                conn.recv_bytes()
            except EOFError:
                pass
            conn.close()
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=10)
        self._workers = []
        self._invalidations = []


class _GroupedMirror:
    """Coordinator-side registration-order mirror of one grouped
    gather under delta sync.

    Holds the last applied ``position → group key`` and ``position →
    value`` maps (positions are globally unique, so one merged map
    serves all shards; per-shard position sets exist only so a shard
    ``reset`` can clear exactly its slice).  The grouped payload is
    maintained **incrementally**: value changes write through position
    slots into prebuilt per-group columns, and the full
    sort-and-regroup rebuild runs only when registration churn
    (register/retract/reset) dirties the order — steady-state merge
    cost is O(changed), not O(fleet).
    """

    __slots__ = (
        "keys",
        "values",
        "shard_positions",
        "order",
        "groups",
        "slots",
        "dirty",
    )

    def __init__(self, shards: int):
        self.keys: Dict[int, Any] = {}
        self.values: Dict[int, Any] = {}
        self.shard_positions: List[set] = [set() for __ in range(shards)]
        self.order: List[int] = []
        self.groups: Dict[Any, List[Any]] = {}
        self.slots: Dict[int, Tuple[List[Any], int]] = {}
        self.dirty = False

    def _register(self, shard: int, positions, idents) -> None:
        self.shard_positions[shard].update(positions)
        keys = self.keys
        for position, key in zip(positions, idents):
            keys[position] = key

    def apply(self, shard: int, reply: Dict[str, Any]) -> Tuple[int, int]:
        """Fold one shard's delta blocks in; returns ``(delta_rows,
        quiescent_rows)`` — rows that crossed the pipe (registered +
        changed + retracted) and rows that didn't."""
        delta_rows = 0
        if reply.get("reset"):
            mine = self.shard_positions[shard]
            if mine:
                for position in mine:
                    self.keys.pop(position, None)
                    self.values.pop(position, None)
                self.shard_positions[shard] = set()
                self.dirty = True
        register = reply.get("register")
        if register:
            packed, key_block, column = register
            positions = _unpack_positions(packed)
            self._register(shard, positions, _decode_group_keys(key_block))
            values = self.values
            for position, value in zip(positions, column):
                values[position] = value
            delta_rows += len(positions)
            self.dirty = True
        retract = reply.get("retract")
        if retract:
            retract = _unpack_positions(retract)
            self.shard_positions[shard].difference_update(retract)
            for position in retract:
                self.keys.pop(position, None)
                self.values.pop(position, None)
            self.dirty = True
            delta_rows += len(retract)
        changed = reply.get("changed")
        if changed:
            packed, column = changed
            positions = _unpack_positions(packed)
            delta_rows += len(positions)
            values = self.values
            if self.dirty:
                for position, value in zip(positions, column):
                    values[position] = value
            else:
                slots = self.slots
                for position, value in zip(positions, column):
                    values[position] = value
                    group_column, offset = slots[position]
                    group_column[offset] = value
        return delta_rows, reply.get("quiescent", 0)

    def _rebuild(self) -> None:
        keys = self.keys
        values = self.values
        order = sorted(keys)
        groups: Dict[Any, List[Any]] = {}
        slots: Dict[int, Tuple[List[Any], int]] = {}
        for position in order:
            column = groups.get(keys[position])
            if column is None:
                column = groups[keys[position]] = []
            slots[position] = (column, len(column))
            column.append(values[position])
        self.order = order
        self.groups = groups
        self.slots = slots
        self.dirty = False

    def payload(self) -> Dict[Any, List[Any]]:
        """The full grouped payload — fresh per-group lists (so a
        context implementation mutating its payload cannot corrupt the
        mirror), in first-occurrence-by-position key order, exactly as
        ``group_readings`` builds it."""
        if self.dirty:
            self._rebuild()
        return {key: list(column) for key, column in self.groups.items()}

    def value_pairs(self) -> List[Tuple[None, Any]]:
        """Per-reading pairs for placement byte accounting."""
        if self.dirty:
            self._rebuild()
        values = self.values
        return [(None, values[position]) for position in self.order]


class _FlatMirror:
    """Registration-order mirror of one ungrouped gather under delta
    sync: ``position → (type, entity id, attributes)`` identity plus
    the last shipped value, with the sorted position order cached
    across quiescent sweeps."""

    __slots__ = ("ident", "values", "shard_positions", "order", "dirty")

    def __init__(self, shards: int):
        self.ident: Dict[int, Tuple[str, str, Dict[str, Any]]] = {}
        self.values: Dict[int, Any] = {}
        self.shard_positions: List[set] = [set() for __ in range(shards)]
        self.order: List[int] = []
        self.dirty = False

    def apply(self, shard: int, reply: Dict[str, Any]) -> Tuple[int, int]:
        delta_rows = 0
        if reply.get("reset"):
            mine = self.shard_positions[shard]
            if mine:
                for position in mine:
                    self.ident.pop(position, None)
                    self.values.pop(position, None)
                self.shard_positions[shard] = set()
                self.dirty = True
        register = reply.get("register")
        if register:
            packed, type_names, entity_ids, attribute_dicts, column = register
            positions = _unpack_positions(packed)
            self.shard_positions[shard].update(positions)
            ident = self.ident
            values = self.values
            rows = zip(
                positions, type_names, entity_ids, attribute_dicts, column
            )
            for position, type_name, entity_id, attributes, value in rows:
                ident[position] = (type_name, entity_id, attributes)
                values[position] = value
            delta_rows += len(positions)
            self.dirty = True
        retract = reply.get("retract")
        if retract:
            retract = _unpack_positions(retract)
            self.shard_positions[shard].difference_update(retract)
            for position in retract:
                self.ident.pop(position, None)
                self.values.pop(position, None)
            self.dirty = True
            delta_rows += len(retract)
        changed = reply.get("changed")
        if changed:
            packed, column = changed
            positions = _unpack_positions(packed)
            delta_rows += len(positions)
            values = self.values
            for position, value in zip(positions, column):
                values[position] = value
        return delta_rows, reply.get("quiescent", 0)

    def positions(self) -> List[int]:
        if self.dirty:
            self.order = sorted(self.ident)
            self.dirty = False
        return self.order


class ShardedRuntime(Instrumented):
    """Coordinator for a process-sharded application.

    ::

        runtime = ShardedRuntime(bootstrap)   # ShardConfig from the app
        runtime.start()
        runtime.advance(600.0)
        runtime.stop()

    With ``ShardConfig(enabled=False)`` (the default) no worker is ever
    spawned: the bootstrap builds one local application owning the
    whole fleet, and ``start``/``advance``/``publish``/``query``/
    ``act`` degrade to direct calls on it — byte-identical to not using
    this class at all.  That degenerate mode is what the equivalence
    tests diff the sharded mode against.
    """

    metric_specs = (
        MetricSpec(
            "shard_sweeps_total",
            "_sweeps",
            stats_key="sweeps",
            help="Periodic gathers fanned out across shard workers.",
        ),
        MetricSpec(
            "shard_merge_pairs_total",
            "_merge_pairs",
            stats_key="merge_pairs",
            help="Map-side partial pairs merged at the coordinator.",
        ),
        MetricSpec(
            "shard_remote_reads_total",
            "_remote_reads",
            stats_key="remote_reads",
            help="Query-driven reads routed to an owning shard.",
        ),
        MetricSpec(
            "shard_delta_rows_total",
            "_delta_rows",
            stats_key="delta_rows",
            help="Changed or retracted readings shipped by the delta "
            "wire protocol (quiescent readings cross as one count).",
        ),
        MetricSpec(
            "shard_quiescent_rows_total",
            "_quiescent_rows",
            stats_key="quiescent_rows",
            help="Readings unchanged since the last sweep, which cross "
            "the worker pipes only as a per-shard count.",
        ),
        MetricSpec(
            "shard_workers",
            "_worker_count",
            kind="gauge",
            stats_key="workers",
            help="Live shard worker processes.",
        ),
    )

    def __init__(
        self,
        bootstrap: ShardBootstrap,
        shard: Optional[ShardConfig] = None,
    ):
        self.bootstrap = bootstrap
        if shard is None:
            # Probe build: learn the ShardConfig the bootstrap puts on
            # its RuntimeConfig.  The probe binds nothing (coordinator
            # context) and is discarded.
            probe = bootstrap.build(ShardContext(shards=1, index=None))
            shard = probe.config.shard
        self.config = shard
        self.sharded = shard.enabled
        if self.sharded:
            ctx = ShardContext(shards=shard.workers, index=None)
        else:
            ctx = ShardContext(shards=1, index=0)
        self.app: "Application" = bootstrap.build(ctx)
        if self.sharded and not isinstance(self.app.clock, SimulationClock):
            raise ShardError(
                "the coordinator application must run on a "
                "SimulationClock (workers are driven by absolute "
                "clock-sync commands)"
            )
        self.router = ShardRouter()
        self._sweeps = 0
        self._merge_pairs = 0
        self._remote_reads = 0
        self._delta_rows = 0
        self._quiescent_rows = 0
        self._worker_count = 0
        self._started = False
        # Delta-sync mirrors per (context name, interaction index);
        # populated lazily on the first poll.
        self._mirrors: Dict[Tuple[str, int], Any] = {}
        # Next global registration position handed to a dynamic
        # rebind — the static fleet occupies [0, len(fleet)).
        self._next_position = len(bootstrap.fleet())
        # interaction identity -> (context name, interaction index);
        # how the delegate names a gather to the workers.
        self._interactions: Dict[int, Tuple[str, int]] = {}
        for name, info in self.app.design.contexts.items():
            interactions = info.decl.interactions
            for position, interaction in enumerate(interactions):
                self._interactions[id(interaction)] = (name, position)
        # entity id -> coordinator-side proxy, built lazily from worker
        # reply rows (attributes are static for the fleet's lifetime).
        self._proxies: Dict[str, ShardEntityProxy] = {}

    # -- life-cycle -----------------------------------------------------

    def start(self) -> "ShardedRuntime":
        if self._started:
            raise ShardError("sharded runtime already started")
        self.attach_metrics(self.app.metrics)
        self.router.attach_metrics(self.app.metrics)
        if self.sharded:
            self._spawn_workers()
            self.app.attach_gather_delegate(self._collect_sharded)
        self.app.start()
        self._started = True
        return self

    def _spawn_workers(self) -> None:
        mp = multiprocessing.get_context(self.config.start_method)
        workers = []
        for index in range(self.config.workers):
            parent, child = mp.Pipe()
            process = mp.Process(
                target=_shard_worker_main,
                args=(child, self.bootstrap, index, self.config.workers),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child.close()
            workers.append((process, parent))
        self.router.attach(workers)
        # Ready handshake: every worker reports its shard build (or the
        # exception that killed it) before the first command.
        for shard in range(len(workers)):
            self.router._receive(shard)
        self._worker_count = len(workers)

    def stop(self) -> None:
        if not self._started:
            return
        self.app.stop()
        if self.sharded:
            self.app.attach_gather_delegate(None)
            self.router.shutdown()
            self._worker_count = 0
        self._started = False

    def advance(self, seconds: float) -> int:
        """Drive the coordinator clock (gathers fan out to workers),
        then sync worker clocks to the final time and drain any events
        their own scheduled jobs raised."""
        fired = self.app.advance(seconds)
        if self.sharded and self._started:
            replies = self.router.broadcast("sync", (self.app.clock.now(),))
            for reply in replies:
                self._replay_events(reply["events"])
        return fired

    # -- cross-shard routing --------------------------------------------

    def _owning_shard(self, entity_id: str) -> int:
        return shard_index(entity_id, self.config.workers)

    def publish(
        self, entity_id: str, source: str, value: Any, index: Any = None
    ) -> None:
        """Event-driven publish on an entity, wherever it lives.

        Sharded: the command routes to the owning worker, the worker's
        device instance validates and records the publish, and the
        event replays into the coordinator bus.  Unsharded: a direct
        ``instance.publish`` — the identical single-process path.
        """
        if not self.sharded:
            self.app.registry.get(entity_id).publish(
                source, value, index=index
            )
            return
        self.router._publishes += 1
        reply = self.router.send(
            self._owning_shard(entity_id),
            "publish",
            (self.app.clock.now(), entity_id, source, value, index),
        )
        self._replay_events(reply["events"])

    def query(self, entity_id: str, source: str) -> Any:
        """Query-driven read routed to the owning shard."""
        if not self.sharded:
            return self.app.registry.get(entity_id).read(source)
        self._remote_reads += 1
        reply = self.router.send(
            self._owning_shard(entity_id),
            "read",
            (self.app.clock.now(), entity_id, source),
        )
        self._replay_events(reply["events"])
        return reply["value"]

    def act(self, entity_id: str, action: str, **params: Any) -> Any:
        """Actuation routed to the owning shard."""
        if not self.sharded:
            return self.app.registry.get(entity_id).act(action, **params)
        reply = self.router.send(
            self._owning_shard(entity_id),
            "act",
            (self.app.clock.now(), entity_id, action, params),
        )
        self._replay_events(reply["events"])
        return reply["value"]

    def rebind(self, entity_id: str) -> None:
        """Dynamically bind one more entity into the running fleet.

        The bind routes to the owning worker incrementally — no static
        fleet, no restart: the worker's registry version bump resets
        its delta epoch and cohort plans, and the entity joins the next
        sweep at the end of global registration order (exactly where a
        single-process late ``bind_device`` would put it).  Requires a
        bootstrap that implements
        :meth:`ShardBootstrap.bind_entity`.
        """
        position = self._next_position
        self._next_position += 1
        if not self.sharded:
            self.bootstrap.bind_entity(self.app, entity_id, position)
            return
        reply = self.router.send(
            self._owning_shard(entity_id),
            "bind",
            (self.app.clock.now(), entity_id, position),
        )
        self._replay_events(reply["events"])

    def unbind(self, entity_id: str) -> None:
        """Dynamically unbind an entity, wherever it lives."""
        if not self.sharded:
            self.app.unbind_device(entity_id)
            return
        reply = self.router.send(
            self._owning_shard(entity_id),
            "unbind",
            (self.app.clock.now(), entity_id),
        )
        self._replay_events(reply["events"])
        self._proxies.pop(entity_id, None)
        if self.app.read_cache is not None:
            self.app.read_cache.invalidate(entity_id)

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-shard registry/sweep/supervision snapshots."""
        if not self.sharded:
            return []
        replies = self.router.broadcast("stats")
        return [reply["value"] for reply in replies]

    # -- event replay ---------------------------------------------------

    def _proxy_for(
        self, type_name: str, entity_id: str, attributes
    ) -> ShardEntityProxy:
        proxy = self._proxies.get(entity_id)
        if proxy is None:
            proxy = ShardEntityProxy(
                self,
                self.app.design.devices[type_name],
                entity_id,
                attributes,
            )
            self._proxies[entity_id] = proxy
        return proxy

    def _replay_events(self, events) -> None:
        """Publish worker-recorded device events into the coordinator
        bus, mirroring ``Application._on_device_publish`` (network
        model, delivery plans, cache invalidation) with a routed proxy
        in place of the local instance."""
        app = self.app
        cache = app.read_cache
        shard_attribute = None
        if cache is not None and cache.config.invalidate_on_publish:
            shard_attribute = cache.config.shard_attribute
        for type_name, entity_id, attributes, source, value, index in events:
            self._events_routed_bump()
            if cache is not None:
                cache.invalidate(entity_id, source)
            if shard_attribute is not None:
                # The publish supersedes every same-source entry in the
                # publisher's attribute cohort — in single-process mode
                # one on_publish call covers the whole fleet, but here
                # the other shards' local caches only learn through the
                # router.  Queue the cohort drop for every shard except
                # the origin (which already invalidated locally); it
                # piggybacks on each shard's next command, always
                # before its next read.
                shard_value = attributes.get(shard_attribute)
                if shard_value is not None:
                    self.router.queue_invalidation(
                        ("cohort", source, shard_value),
                        skip=self._owning_shard(entity_id),
                    )
            proxy = self._proxy_for(type_name, entity_id, attributes)
            deliver = functools.partial(
                self._dispatch_remote,
                type_name,
                proxy,
                source,
                value,
                index,
            )
            if app.network is None:
                deliver()
            else:
                app.network.transmit(app.clock, deliver)

    def _events_routed_bump(self) -> None:
        self.router._events_routed += 1

    def _dispatch_remote(self, type_name, proxy, source, value, index) -> None:
        app = self.app
        event = SourceEvent(
            device=proxy,
            source=source,
            value=value,
            index=index,
            timestamp=app.clock.now(),
        )
        planner = app.planner
        if planner is not None:
            plan = planner.source_plan(type_name, source)
            app.bus.dispatch_compiled(plan.targets, len(plan.topics), event)
            return
        info = app.design.devices[type_name]
        for topic in app._topics_for(info, source):
            app.bus.publish(topic, event)

    # -- the delegated gather -------------------------------------------

    def _collect_sharded(self, interaction, implementation) -> Any:
        """Collect one periodic gather across all shards.

        Replaces ``Application._collect_payload`` via the gather
        delegate: every worker sweeps its shard concurrently, and the
        replies merge back into the exact single-process payload —
        sorted by global registration position for flat and grouped
        gathers, re-sequenced map emissions with a coordinator-side
        final reduce for MapReduce gathers.
        """
        app = self.app
        name, index = self._interactions[id(interaction)]
        self._sweeps += 1
        polls = self.router.broadcast("poll", (app.clock.now(), name, index))
        app._gather_network_dropped += sum(r["dropped"] for r in polls)
        app._gather_read_failed += sum(r["failed"] for r in polls)
        for reply in polls:
            self._replay_events(reply["events"])
        kind = polls[0]["kind"]
        placement = app.placement
        if kind != "mapreduce":
            return self._merge_delta(kind, name, index, polls, placement)
        # MapReduce: rank groups by their first surviving reading
        # across the whole fleet, then let each worker map+combine its
        # slice in that global order.
        mins: Dict[Any, int] = {}
        for reply in polls:
            for key, position in reply["keys"].items():
                if key not in mins or position < mins[key]:
                    mins[key] = position
        order = sorted(mins, key=mins.__getitem__)
        ranks = {key: rank for rank, key in enumerate(order)}
        maps = self.router.broadcast("map", (name, index, ranks))
        for reply in maps:
            self._replay_events(reply["events"])
        tagged = [pair for reply in maps for pair in reply["data"]]
        if placement is not None and id(interaction) in app._edge_interactions:
            # One edge node per shard: the worker-side map+combine *is*
            # the edge execution, so the shipped partials are the WAN
            # traffic — sample loss and account bytes per partial.
            placement.note_edge_sweep(len(maps))
            tagged = placement.deliver_partials(tagged)
        tagged.sort(key=lambda pair: pair[0])
        pairs = [(key, value) for __, key, value in tagged]
        mapped = sum(reply["mapped"] for reply in maps)
        self._merge_pairs += len(pairs)
        return app.mapreduce.merge_partials(implementation, pairs, mapped)

    def _merge_delta(
        self, kind: str, name: str, index: int, polls, placement
    ) -> Any:
        """Fold delta replies into the per-gather mirror and rebuild
        the exact single-process payload from registration order."""
        key = (name, index)
        mirror = self._mirrors.get(key)
        if mirror is None:
            mirror = (
                _GroupedMirror(len(self.router))
                if kind == "grouped"
                else _FlatMirror(len(self.router))
            )
            self._mirrors[key] = mirror
        for shard, reply in enumerate(polls):
            delta_rows, quiescent = mirror.apply(shard, reply)
            self._delta_rows += delta_rows
            self._quiescent_rows += quiescent
        if kind == "grouped":
            if placement is not None:
                placement.account_cloud(mirror.value_pairs())
            return mirror.payload()
        order = mirror.positions()
        ident = mirror.ident
        values = mirror.values
        if placement is not None:
            placement.account_cloud(
                [(None, values[position]) for position in order]
            )
        return [
            GatherReading(self._proxy_for(*ident[position]), values[position])
            for position in order
        ]

    def _extra_stats(self) -> Dict[str, Any]:
        return {"router": self.router.stats()}
