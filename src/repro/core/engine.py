"""The LightTraffic engine: Algorithm 2 over the simulated substrate.

Semantics (which vertex every walk visits) are executed exactly with NumPy;
the simulated timeline answers how long each phase would take on the modeled
GPU and how phases overlap across the compute / load / evict streams.

:class:`LightTrafficEngine` is the public facade.  It holds what a run
builds once (partitioning, cost models, interconnects) and builds one
:class:`~repro.core.stages.StageContext` per device shard
(:meth:`LightTrafficEngine._build_context`).  There is one run loop:
every run, ``devices=1`` included, is a sharded run of
:class:`~repro.core.cluster.MultiDeviceEngine`, and a single-device run
is a one-shard cluster (no owned mask, no migration router).  One
iteration of that loop, per shard:

1. the scheduler selects a partition ``i`` (selective: most walks);
2. :class:`~repro.core.stages.GraphServer` serves partition ``i``'s graph
   data — cache hit, explicit copy on the load stream (evicting a victim
   if the graph pool is full), or zero copy under the adaptive rule
   ``alpha * w < S_p``;
3. :class:`~repro.core.stages.PreemptiveDispatcher` computes ready batches
   of *other* cached partitions while the load stream is busy;
4. :class:`~repro.core.stages.WalkLoader` streams partition ``i``'s host
   batches, then :class:`~repro.core.stages.ComputeDispatcher` runs the
   merged kernel and the device-cached batches (including the frontier);
5. survivors are reshuffled into the device frontiers of their new
   partitions; if the walk pool exceeds ``m_w``, batches are evicted to
   the host over the full-duplex evict stream.

Every observable fact of a run — iterations, serve modes, loads, kernels,
reshuffles, evictions, finishes — is emitted as a typed event on an
:class:`~repro.core.events.EventBus`; statistics
(:class:`~repro.core.stats.StatsCollector`), traces
(:class:`~repro.core.trace.TraceSubscriber`) and per-partition metrics
(:class:`~repro.core.metrics.MetricsCollector`) are plain subscribers.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.adaptive import AdaptivePolicy
from repro.core.config import EngineConfig
from repro.core.events import EventBus, WalksSeeded
from repro.core.metrics import MetricsCollector
from repro.core.prng import seeded_rng
from repro.core.scheduler import Scheduler
from repro.core.stages import StageContext
from repro.core.stats import RunStats
from repro.core.trace import TraceRecorder
from repro.gpu.cluster import (
    ClusterDeviceSpec,
    DeviceCluster,
    PeerLinkSpec,
    homogeneous_specs,
    peer_link_by_name,
    topology_by_name,
)
from repro.gpu.kernels import DIRECT_WRITE, KernelModel
from repro.gpu.memory import BlockPool
from repro.gpu.pcie import PCIeSpec, interconnect_by_name
from repro.gpu.timeline import Timeline
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionedGraph, partition_by_range
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.reshuffle import (
    DirectWriteReshuffler,
    TwoLevelReshuffler,
    group_by_partition,
)
from repro.walks.state import WalkArrays


def _scaled_link(link: PCIeSpec, scale: float) -> PCIeSpec:
    """``link`` with its bandwidth scaled by ``scale`` (latency by 1/scale)."""
    return dataclass_replace(
        link,
        name=f"{link.name}x{scale:g}",
        bandwidth=link.bandwidth * scale,
        latency_seconds=link.latency_seconds / scale,
    )


class LightTrafficEngine:
    """Out-of-GPU-memory random walk engine (the paper's contribution)."""

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: RandomWalkAlgorithm,
        config: Optional[EngineConfig] = None,
        partitioned: Optional[PartitionedGraph] = None,
        trace: Optional[TraceRecorder] = None,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        if config.sampler is not None:
            algorithm.set_transition_sampler(config.sampler)
        self.trace = trace
        self.bus = bus
        self.metrics = metrics
        self.partitioned = partitioned or partition_by_range(
            graph, config.partition_bytes
        )
        self.kernel_model = KernelModel(config.device, config.calibration)
        if isinstance(config.interconnect, PCIeSpec):
            self.pcie = config.interconnect
        else:
            self.pcie = interconnect_by_name(config.interconnect)
        self.adaptive = AdaptivePolicy(config.copy_mode, config.calibration)
        if isinstance(config.ship_interconnect, PCIeSpec):
            self.ship_link = config.ship_interconnect
        else:
            self.ship_link = interconnect_by_name(config.ship_interconnect)

    # ------------------------------------------------------------------
    def _make_rng(self) -> Any:
        """The run's RNG (sequential stream or counter-based Philox)."""
        cfg = self.config
        if cfg.rng_mode == "counter":
            from repro.core.prng import CounterRNG, TenantCounterRNG

            if getattr(self.algorithm, "uses_subset_draws", False):
                raise ValueError(
                    "rng_mode='counter' does not support algorithms with "
                    "subset redraws (node2vec, rejection-sampled weights)"
                )
            # Coalesced serve batches carry per-lane (query seed, local
            # walk id) tables so every query replays bit-identically to
            # its standalone run regardless of batching.
            lanes = getattr(self.algorithm, "tenant_lanes", None)
            if lanes is not None:
                lane_seeds, lane_locals = lanes
                return TenantCounterRNG(cfg.seed, lane_seeds, lane_locals)
            return CounterRNG(cfg.seed)
        return seeded_rng(cfg.seed)

    def _make_backend(self) -> Any:
        """Create and bind the run's execution backend.

        Always constructed — the default ``simulated`` backend runs the
        historical NumPy path bit-identically while measuring its real
        wall-clock per kernel (``RunStats.measured``).
        """
        from repro.backends import make_backend

        backend = make_backend(self.config.backend)
        backend.bind(
            self.graph, self.partitioned, self.algorithm, self.config
        )
        return backend

    def _make_cluster(self) -> DeviceCluster:
        """The run's shard map and peer mesh (one device by default)."""
        cfg = self.config
        num_devices = cfg.devices
        peer = cfg.peer_interconnect
        link = (
            peer
            if isinstance(peer, PeerLinkSpec)
            else peer_link_by_name(str(peer))
        )
        specs = (
            tuple(cfg.device_specs)
            if cfg.device_specs is not None
            else homogeneous_specs(num_devices)
        )
        return DeviceCluster(
            np.asarray(self.partitioned.partition_sizes(), dtype=np.int64),
            num_devices,
            link=link,
            record_ops=cfg.record_ops,
            specs=specs,
            topology=(
                topology_by_name(cfg.topology, num_devices)
                if num_devices > 1
                else None
            ),
            assignment_weights=self._assignment_weights(specs),
        )

    def _assignment_weights(
        self, specs: Sequence[ClusterDeviceSpec]
    ) -> Optional[np.ndarray]:
        """Byte-assignment weights of ``specs``; ``None`` splits evenly."""
        if not self.config.heterogeneous_assignment or all(
            spec.assignment_weight == 1.0 for spec in specs
        ):
            return None
        return np.array(
            [spec.assignment_weight for spec in specs], dtype=np.float64
        )

    def _build_context(
        self,
        device_id: int,
        cluster: DeviceCluster,
        rng: Any,
        num_walks: int,
        bus: EventBus,
        backend: Any = None,
    ) -> StageContext:
        """Pools, timeline, scheduler and policies of one device shard."""
        cfg = self.config
        num_partitions = self.partitioned.num_partitions
        batch_cap = cfg.resolved_batch_walks()
        capacity = cfg.walk_pool_walks
        if capacity is None:
            capacity = max(num_walks, batch_cap)
        pool_partitions = cfg.graph_pool_partitions
        reshuffler_cls = (
            DirectWriteReshuffler
            if cfg.reshuffle_mode == DIRECT_WRITE
            else TwoLevelReshuffler
        )
        # Heterogeneity: scale this shard's cost model and memory budgets
        # by its capability spec.  The == 1.0 guards keep the homogeneous
        # path on the exact shared objects/ints (bit-identity).
        spec = cluster.spec(device_id)
        kernel_model = self.kernel_model
        if spec.compute_scale != 1.0:
            device = dataclass_replace(
                cfg.device,
                name=f"{cfg.device.name}-{spec.name}",
                clock_hz=cfg.device.clock_hz * spec.compute_scale,
                mem_bandwidth=cfg.device.mem_bandwidth * spec.compute_scale,
            )
            kernel_model = KernelModel(device, cfg.calibration)
        if spec.memory_scale != 1.0:
            capacity = max(batch_cap, int(capacity * spec.memory_scale))
            pool_partitions = max(
                1, int(cfg.graph_pool_partitions * spec.memory_scale)
            )
        # link_scale covers the device's whole I/O complex: the host
        # interconnect carrying graph/walk DMA as well as the peer links
        # (which DeviceCluster.channel scales on its own).
        pcie = self.pcie
        ship_link = self.ship_link
        if spec.link_scale != 1.0:
            pcie = _scaled_link(pcie, spec.link_scale)
            ship_link = _scaled_link(ship_link, spec.link_scale)
        return StageContext(
            config=cfg,
            graph=self.graph,
            algorithm=self.algorithm,
            pgraph=self.partitioned,
            rng=rng,
            scheduler=Scheduler(
                num_partitions,
                cfg.selective,
                cfg.preemptive,
                eviction_policy=cfg.eviction_policy,
                owned=(
                    cluster.owned_mask(device_id)
                    if cluster.num_devices > 1
                    else None
                ),
            ),
            host=HostWalkPool(num_partitions, batch_cap),
            device=DeviceWalkPool(num_partitions, batch_cap, capacity),
            graph_pool=BlockPool(
                pool_partitions,
                name=f"graph-pool-d{device_id}",
                track_recency=(cfg.eviction_policy == "lru"),
            ),
            timeline=Timeline(record_ops=cfg.record_ops),
            bus=bus,
            reshuffler=reshuffler_cls(
                kernel_model, num_partitions, backend=backend
            ),
            kernel_model=kernel_model,
            pcie=pcie,
            ship_link=ship_link,
            bytes_per_walk=self.algorithm.bytes_per_walk,
            adaptive=self.adaptive,
            cluster=cluster,
            device_id=device_id,
            backend=backend,
        )

    def _seed(self, contexts: List[StageContext], num_walks: int) -> None:
        """Seed every walk into the host pool of its start partition's owner.

        ``contexts`` holds one context per device, in device order.  The
        shards share one RNG, one bus and one backend, so the first
        context's are the run's.
        """
        first = contexts[0]
        starts = self.algorithm.start_vertices(
            self.graph, num_walks, first.rng
        )
        walks = WalkArrays.fresh(starts)
        self.algorithm.on_start(walks, self.graph)
        if first.backend is not None:
            # Real backends precompute from the full seeded state
            # (trajectory tables, worker forks) before the walks are split
            # up by partition and device.
            first.backend.on_walks_seeded(walks)
        start_parts = self.partitioned.find_partitions(walks.vertices)
        groups = group_by_partition(walks, start_parts)
        for part, group in groups.items():
            contexts[first.cluster.owner(part)].host.append_walks(part, group)
        first.bus.emit(WalksSeeded(walks=num_walks, partitions=len(groups)))

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        """Run ``num_walks`` walks to completion; returns the statistics.

        The run goes through the one sharded loop of
        :class:`~repro.core.cluster.MultiDeviceEngine`, which shares this
        engine's built state (partitioning, cost models, the algorithm's
        configured sampler) instead of building it a second time.
        """
        from repro.core.cluster import MultiDeviceEngine

        sharded = MultiDeviceEngine.__new__(MultiDeviceEngine)
        sharded.__dict__.update(vars(self))
        stats = sharded.run(num_walks)
        self._timeline = sharded._timeline
        return stats


def run_walks(
    graph: CSRGraph,
    algorithm: RandomWalkAlgorithm,
    num_walks: int,
    config: Optional[EngineConfig] = None,
) -> RunStats:
    """One-call convenience: build an engine and run it."""
    return LightTrafficEngine(graph, algorithm, config).run(num_walks)
