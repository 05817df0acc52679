"""Runtime configuration: one record instead of keyword sprawl.

``Application.__init__`` had grown a new keyword argument per release
(clock, executor, network knobs, error policy, streaming windows,
metrics, and now the supervision/stale policies of :mod:`repro.faults`).
:class:`RuntimeConfig` gathers them into a single validated dataclass::

    from repro.runtime.config import RuntimeConfig

    config = RuntimeConfig(
        clock=SimulationClock(),
        error_policy="isolate",
        supervision=SupervisionPolicy(failure_threshold=3),
        stale=StalePolicy("last_known", max_age_seconds=600),
    )
    app = Application(design, config)

Every section (and the record itself) speaks the
:class:`~repro.runtime.configbase.ConfigBase` protocol — validated
``replace()``, JSON-able ``to_dict()``/``from_dict()`` — which is what
lets the live-tuning controller derive neighbouring configs from a
running one and lets ``Application.apply_config`` swap them atomically.

The legacy keyword form (``Application(design, clock=...,
streaming_windows=...)``) and the pre-``NetworkConfig`` network
keywords still work for one release through a single shim entry point,
:meth:`RuntimeConfig.from_legacy_kwargs`, which emits one consolidated
:class:`DeprecationWarning`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.cache import CacheConfig
from repro.runtime.configbase import ConfigBase
from repro.runtime.placement import NetworkConfig, PlacementConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardConfig
from repro.runtime.sweep import SweepConfig
from repro.runtime.tuning import TuningConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.runtime.clock import Clock
    from repro.telemetry import MetricsRegistry

__all__ = [
    "BatchConfig",
    "CacheConfig",
    "ConfigBase",
    "NetworkConfig",
    "PlacementConfig",
    "RuntimeConfig",
    "ShardConfig",
    "SweepConfig",
    "TuningConfig",
]

ERROR_POLICIES = ("raise", "isolate")


@dataclass(frozen=True)
class RuntimeConfig(ConfigBase):
    """Everything an :class:`~repro.runtime.app.Application` can tune.

    Every field has the historical default, so ``RuntimeConfig()`` is
    exactly the pre-redesign ``Application(design)`` behaviour.

    * ``clock`` — application clock; ``None`` means a fresh
      :class:`~repro.runtime.clock.SimulationClock`.
    * ``mapreduce_executor`` — executor for ``with map ... reduce ...``
      contexts (serial when ``None``).
    * ``network`` — a frozen :class:`NetworkConfig` describing the
      simulated delivery conditions (single hop or multi-hop fog
      topology); the application builds a fresh stateful model from it.
      Passing a pre-built ``NetworkConditions`` instance (the legacy
      form, together with ``apply_network_to_reads``) still works for
      one release with a :class:`DeprecationWarning`.
    * ``error_policy`` — ``'raise'`` propagates component failures,
      ``'isolate'`` contains them (see ``Application._run_component``).
    * ``streaming_windows`` — incremental window accumulation fast path.
    * ``metrics`` — shared telemetry registry (own registry when
      ``None``).
    * ``supervision`` — default :class:`SupervisionPolicy` applied to
      every bound device; ``None`` disables supervision entirely
      (legacy behaviour).
    * ``supervision_overrides`` — per-device-type policies; they apply
      to the named type and its subtypes, and win over ``supervision``.
    * ``supervision_seed`` — seed for the deterministic per-entity
      backoff jitter.
    * ``stale`` — degraded-delivery policy for periodic gathers when a
      supervised source is dark; ``None`` means ``StalePolicy('skip')``.
    * ``sweep`` — :class:`~repro.runtime.sweep.SweepConfig` governing
      how periodic gather sweeps execute (serial loop vs. bounded
      thread-pool fan-out); the default ``mode='auto'`` keeps
      simulation-clock runs serial and deterministic.
    * ``cache`` — :class:`~repro.runtime.cache.CacheConfig` governing
      the query-driven read fast path (freshness-aware read cache,
      single-flight coalescing, actuation/publish invalidation and
      context memoization); disabled by default, which keeps the read
      path byte-identical to the uncached runtime.
    * ``batch`` — :class:`~repro.runtime.plan.BatchConfig` governing
      the sweep/publish hot path (driver-level columnar batch reads and
      precompiled delivery plans); disabled by default, which keeps the
      scalar read path and per-publish topic resolution byte-identical
      to the unbatched runtime.
    * ``shard`` — :class:`~repro.runtime.shard.ShardConfig` governing
      the process-sharded runtime (hash-partitioned fleet, one worker
      process per shard, cross-shard event routing over the delta wire
      protocol); disabled by default, which keeps the runtime
      single-process and byte-identical to the unsharded code path.
    * ``placement`` — :class:`~repro.runtime.placement.PlacementConfig`
      governing the edge/cloud placement tier (edge-local map+combine
      for grouped MapReduce gathers, WAN byte accounting); disabled by
      default, which keeps every gather cloud-only and byte-identical
      to the placement-less runtime.
    * ``tuning`` — :class:`~repro.runtime.tuning.TuningConfig`
      governing the adaptive controller that closes the telemetry →
      config loop online; disabled by default, which schedules no
      controller and keeps every run byte-identical to the untuned
      runtime.
    """

    clock: Optional["Clock"] = None
    mapreduce_executor: Any = None
    name: str = "app"
    network: Any = None
    apply_network_to_reads: bool = False
    error_policy: str = "raise"
    streaming_windows: bool = True
    metrics: Optional["MetricsRegistry"] = None
    supervision: Optional[SupervisionPolicy] = None
    supervision_overrides: Mapping[str, SupervisionPolicy] = field(
        default_factory=dict
    )
    supervision_seed: int = 0
    stale: Optional[StalePolicy] = None
    sweep: SweepConfig = SweepConfig()
    cache: CacheConfig = CacheConfig()
    batch: BatchConfig = BatchConfig()
    shard: ShardConfig = ShardConfig()
    placement: PlacementConfig = PlacementConfig()
    tuning: TuningConfig = TuningConfig()

    # Live runtime objects: wiring, not deployment data.
    _runtime_fields = ("clock", "mapreduce_executor", "metrics")
    _decoders = {
        "network": NetworkConfig.from_dict,
        "sweep": SweepConfig.from_dict,
        "cache": CacheConfig.from_dict,
        "batch": BatchConfig.from_dict,
        "shard": ShardConfig.from_dict,
        "placement": PlacementConfig.from_dict,
        "tuning": TuningConfig.from_dict,
        "supervision": lambda raw: SupervisionPolicy(**raw),
        "supervision_overrides": lambda raw: {
            name: SupervisionPolicy(**policy)
            for name, policy in raw.items()
        },
        "stale": lambda raw: StalePolicy(**raw),
    }

    def __post_init__(self):
        if self.error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"error_policy must be one of {ERROR_POLICIES}"
            )
        # Validation only — the legacy-keyword DeprecationWarnings that
        # used to live here are consolidated in ``from_legacy_kwargs``,
        # keeping construction (and therefore ``replace``/``validate``)
        # warning-free.
        if self.network is not None and not isinstance(
            self.network, NetworkConfig
        ):
            if not callable(getattr(self.network, "transmit", None)):
                raise TypeError(
                    "network must be a NetworkConfig, a network model "
                    "with a transmit() method, or None"
                )
        if not isinstance(self.tuning, TuningConfig):
            raise TypeError("tuning must be a TuningConfig")
        if not isinstance(self.placement, PlacementConfig):
            raise TypeError("placement must be a PlacementConfig")
        if not isinstance(self.sweep, SweepConfig):
            raise TypeError("sweep must be a SweepConfig")
        if not isinstance(self.cache, CacheConfig):
            raise TypeError("cache must be a CacheConfig")
        if not isinstance(self.batch, BatchConfig):
            raise TypeError("batch must be a BatchConfig")
        if not isinstance(self.shard, ShardConfig):
            raise TypeError("shard must be a ShardConfig")
        if self.stale is not None and not isinstance(self.stale, StalePolicy):
            raise TypeError("stale must be a StalePolicy or None")
        if self.supervision is not None and not isinstance(
            self.supervision, SupervisionPolicy
        ):
            raise TypeError("supervision must be a SupervisionPolicy or None")

    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with ``changes`` applied and **fully re-validated**.

        Inherited :meth:`ConfigBase.replace` semantics: the copy goes
        back through ``__post_init__`` and :meth:`validate`, so a
        replace can never assemble a field combination construction
        would reject (e.g. a non-config network object, or — one level
        down — a flat-latency × hops ``NetworkConfig``).
        """
        return super().replace(**changes)

    def build_network(self) -> Tuple[Any, bool]:
        """The ``(model, apply_to_reads)`` pair an application attaches.

        A :class:`NetworkConfig` builds a fresh stateful model (or
        ``None`` when inert); a legacy pre-built instance passes
        through unchanged with the deprecated
        ``apply_network_to_reads`` flag.
        """
        network = self.network
        if isinstance(network, NetworkConfig):
            return (
                network.build(),
                network.apply_to_reads or self.apply_network_to_reads,
            )
        return network, self.apply_network_to_reads

    def supervised(self) -> bool:
        """Is any device type supervised under this configuration?"""
        return self.supervision is not None or bool(
            self.supervision_overrides
        )

    @property
    def stale_policy(self) -> StalePolicy:
        """The effective stale policy (``skip`` when unset)."""
        return self.stale if self.stale is not None else StalePolicy()

    @classmethod
    def from_legacy_kwargs(cls, **kwargs: Any) -> "RuntimeConfig":
        """The one shim for every deprecated keyword spelling.

        Folds the legacy ``Application(design, clock=..., ...)``
        keywords — including the pre-``NetworkConfig`` forms
        ``network=<model instance>`` and ``apply_network_to_reads`` —
        into a config, emitting a **single consolidated**
        :class:`DeprecationWarning` that spells out each migration.
        Unknown keywords raise ``TypeError`` exactly as the old
        constructor did.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - fields
        if unknown:
            raise TypeError(
                "Application() got unexpected keyword argument(s) "
                f"{sorted(unknown)}"
            )
        if not kwargs:
            return cls()
        notes = [
            "pass RuntimeConfig("
            + ", ".join(f"{name}=..." for name in sorted(kwargs))
            + ") instead of keyword argument(s)"
        ]
        network = kwargs.get("network")
        if network is not None and not isinstance(network, NetworkConfig):
            notes.append(
                "network=<model instance> becomes a frozen "
                "NetworkConfig (the application builds the model)"
            )
        if kwargs.get("apply_network_to_reads"):
            notes.append(
                "apply_network_to_reads=True becomes "
                "NetworkConfig(apply_to_reads=True)"
            )
        warnings.warn(
            "legacy Application/RuntimeConfig keywords are deprecated: "
            + "; ".join(notes),
            DeprecationWarning,
            stacklevel=3,
        )
        return cls(**kwargs)

    def describe(self) -> Dict[str, Any]:
        """Loggable summary (policies as reprs, objects as type names)."""
        summary: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None or isinstance(
                value, (str, int, float, bool)
            ):
                summary[f.name] = value
            elif isinstance(
                value, (ConfigBase, SupervisionPolicy, StalePolicy)
            ):
                summary[f.name] = repr(value)
            elif isinstance(value, Mapping):
                summary[f.name] = {
                    key: repr(item) for key, item in value.items()
                }
            else:
                summary[f.name] = type(value).__name__
        return summary
