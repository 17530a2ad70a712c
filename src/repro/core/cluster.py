"""Multi-device sharded engine with peer-to-peer walk migration.

:class:`MultiDeviceEngine` runs the LightTraffic pipeline on ``N``
simulated devices.  The range-partitioned graph is sharded contiguously
across the devices (:func:`repro.gpu.cluster.assign_partitions`), and each
shard owns the full single-device substrate: its own
:class:`~repro.gpu.timeline.Timeline` (compute/load/evict streams), graph
pool, host/device walk pools, scheduler (restricted to owned partitions)
and reshuffler.  The stages in :mod:`repro.core.stages` are reused
verbatim — one :class:`~repro.core.stages.StageContext` per shard.

What changes versus ``N`` independent engines is the walk frontier: a walk
stepping into another shard's partition range cannot be reshuffled locally.
The :class:`WalkMigrator` intercepts those walks after each kernel
(:meth:`ComputeDispatcher.dispatch` hands them over via ``ctx.router``) and
moves them over a :class:`~repro.gpu.cluster.PeerChannel`:

* the *send* occupies the source device's evict stream
  (``CAT_WALK_MIGRATE`` in the breakdown) starting no earlier than the
  kernel that produced the walks;
* the *link* is occupied for the transfer duration on the channel's own
  stream, which serializes concurrent migrations over the same directed
  device pair (different pairs overlap — the NVSwitch assumption);
* the *delivery* scatters the walks into the destination shard's device
  pool (reshuffle cost on the destination compute stream, starting no
  earlier than the payload's arrival) and records the arrival in
  ``frontier_ready`` so destination kernels never consume walks that are
  still in flight.

Elastic, heterogeneous, failable
--------------------------------
The cluster is no longer assumed homogeneous, reliable or statically
assigned:

* **Heterogeneity** — per-device :class:`~repro.gpu.cluster.ClusterDeviceSpec`
  scales each shard's kernel model, pool budgets and link bandwidth; the
  initial assignment weights partition bytes by each device's
  bottleneck capability (``ClusterDeviceSpec.assignment_weight``,
  gated by ``EngineConfig.heterogeneous_assignment``).
* **Topology** — migrations are routed by the cluster's
  :class:`~repro.gpu.cluster.Topology` (all-pairs, ring or switch); a
  route may relay over multiple channel hops, each serializing on its
  own stream.
* **Failure** — a :class:`~repro.core.config.FailureSchedule` kills
  devices at sweep boundaries; the dead shard's pending walks are
  drained and re-seeded onto survivors (``DeviceFailed`` /
  ``DeviceRecoveredWalks``), ownership is reassigned through the same
  byte-balanced :func:`~repro.gpu.cluster.assign_partitions`, and walk
  conservation is re-asserted immediately.
* **Elasticity** — a :class:`ClusterController` rides the metrics bus,
  detects compute-normalized pending-walk skew and hands partitions off
  between shards mid-run (``ShardRebalanced``), re-migrating their
  pending walks over the ordinary peer channels so the sanitizer's
  migration-conservation rule covers the rebalance path unchanged.

:meth:`MultiDeviceEngine.run` is the engine's only run loop: a
single-device run (:meth:`~repro.core.engine.LightTrafficEngine.run`
delegates here) is a one-shard cluster with no owned mask and no router.
:mod:`tests.test_engine_parity` pins its :class:`RunStats` bit-identical
to the single-device goldens; homogeneous no-failure multi-device runs
are pinned the same way against ``tests/data/cluster_golden.json``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.engine import LightTrafficEngine
from repro.core.events import (
    DeviceFailed,
    DeviceRecoveredWalks,
    EventBus,
    IterationStarted,
    KernelDispatched,
    RunCompleted,
    ShardRebalanced,
    WalksDelivered,
    WalksMigrated,
)
from repro.core.stages import (
    ComputeDispatcher,
    GraphServer,
    PreemptiveDispatcher,
    StageContext,
    WalkLoader,
)
from repro.core.stats import (
    CAT_RESHUFFLE,
    CAT_WALK_MIGRATE,
    RunStats,
    StatsCollector,
)
from repro.core.trace import TraceSubscriber
from repro.gpu.cluster import DeviceCluster, PeerChannel, assign_partitions
from repro.gpu.timeline import TimeBreakdown
from repro.walks.state import WalkArrays


class _Shard:
    """One device's context plus its pipeline stage instances."""

    __slots__ = (
        "ctx",
        "graph_server",
        "loader",
        "compute",
        "preemptive",
        "alive",
    )

    def __init__(self, ctx: StageContext) -> None:
        self.ctx = ctx
        self.graph_server = GraphServer(ctx)
        self.loader = WalkLoader(ctx)
        self.compute = ComputeDispatcher(ctx)
        self.preemptive = PreemptiveDispatcher(ctx, self.compute)
        self.alive = True


def _send(
    ctx: StageContext,
    dst: int,
    hops: Tuple[PeerChannel, ...],
    walks: int,
    earliest: float,
) -> float:
    """Send ``walks`` walks from ``ctx``'s device toward ``dst``.

    Returns the payload's arrival time at ``dst``.  The send occupies
    the source evict stream (``CAT_WALK_MIGRATE``), charged once and
    modeled on the first hop's link, which is held while the source copy
    engine pushes the payload; each relay hop forwards it as soon as it
    has received it.  Conservation counters: every hop
    counts the payload as sent; relay hops also count it as delivered the
    moment it leaves them, so only the final hop's ``delivered_walks``
    waits for the actual pool delivery (:func:`_delivered`) — per-channel
    ``sent == delivered`` stays an invariant at run end under every
    topology.
    """
    nbytes = walks * ctx.bytes_per_walk
    send_t = (
        hops[0].spec.transfer_time(nbytes)
        + ctx.config.calibration.scaled_memcpy_call_seconds
    )
    arrival: float = ctx.timeline.evict.schedule(
        send_t, CAT_WALK_MIGRATE, earliest=earliest
    )[0]
    last = hops[-1]
    for hop in hops:
        arrival = hop.transfer(nbytes, earliest=arrival)[1]
        hop.sent_walks += walks
        if hop is not last:
            hop.delivered_walks += walks
    ctx.bus.emit(
        WalksMigrated(
            src_device=ctx.device_id,
            dst_device=dst,
            walks=walks,
            nbytes=nbytes,
            seconds=send_t,
        )
    )
    return arrival


def _delivered(
    dctx: StageContext,
    src: int,
    chan: PeerChannel,
    walks: int,
    parts: Iterable[int],
    ready: float,
    arrival: float,
) -> None:
    """Book a payload that landed in ``dctx``'s pools.

    Kernels over the delivered walks of ``parts`` may not start before
    ``ready``.  ``src`` is the route's true origin — under multi-hop
    topologies the final hop's source is a relay.
    """
    for part in parts:
        if ready > dctx.frontier_ready.get(part, 0.0):
            dctx.frontier_ready[part] = ready
    chan.delivered_walks += walks
    dctx.bus.emit(
        WalksDelivered(
            src_device=src,
            dst_device=dctx.device_id,
            walks=walks,
            arrival=arrival,
        )
    )


def _refresh_owned(cluster: DeviceCluster, shards: List[_Shard]) -> None:
    """Point every alive shard's scheduler at its current partitions."""
    for shard in shards:
        if shard.alive:
            shard.ctx.scheduler.set_owned(
                cluster.owned_mask(shard.ctx.device_id)
            )


class WalkMigrator:
    """Routes post-kernel walks that left their shard over P2P channels.

    Installed as ``ctx.router`` on every shard context when ``devices > 1``;
    :meth:`ComputeDispatcher.dispatch` calls :meth:`route` with the
    surviving walks and their new partition ids before reshuffling.
    Routes come from the cluster topology and may span several channel
    hops (ring relays, an explicit switch); the send cost on the source
    evict stream is charged once, modeled on the first hop's link.
    """

    def __init__(self, cluster: DeviceCluster, shards: List[_Shard]) -> None:
        self.cluster = cluster
        self.shards = shards

    def route(
        self,
        ctx: StageContext,
        part_idx: int,
        active: WalkArrays,
        new_parts: np.ndarray,
        kernel_end: float,
    ) -> Tuple[WalkArrays, np.ndarray]:
        """Split ``active`` into (kept-local, migrated); returns the local part."""
        src = ctx.device_id
        dest = self.cluster.device_of[new_parts]
        local_mask = dest == src
        if bool(local_mask.all()):
            return active, new_parts
        # Ascending destination order keeps the send sequence — and with it
        # every downstream timestamp — deterministic.
        for dst in np.unique(dest[~local_mask]):
            dst = int(dst)
            sel = dest == dst
            payload = active.select(sel)
            parts = new_parts[sel]
            hops = self.cluster.route(src, dst)
            earliest = kernel_end
            if not ctx.config.pipeline:
                earliest = max(earliest, ctx.timeline.now)
            arrival = _send(ctx, dst, hops, len(payload), earliest)
            # Scatter the payload into the destination shard's pool.
            shard = self.shards[dst]
            dctx = shard.ctx
            cost, __ = dctx.reshuffler.reshuffle(dctx.device, payload, parts)
            ready = dctx.sched(
                dctx.timeline.compute, cost, CAT_RESHUFFLE, arrival
            )
            _delivered(
                dctx,
                src,
                hops[-1],
                len(payload),
                (int(p) for p in np.unique(parts)),
                ready,
                arrival,
            )
            shard.compute.enforce_walk_capacity(protect=None)
        return active.select(local_mask), new_parts[local_mask]


class ClusterController:
    """Elastic load controller: watches the metrics bus, hands off shards.

    The controller subscribes to the engine's event bus (the PR-1
    metrics backbone): ``IterationStarted`` samples each shard's pending
    walks, ``KernelDispatched`` accumulates a per-device activity
    window.  At every sweep boundary the engine calls
    :meth:`maybe_rebalance`; when the most loaded alive shard's
    compute-normalized pending walks exceed ``rebalance_threshold``
    times the alive mean (and the cooldown has elapsed), ownership is
    recomputed from per-partition pending load through the shared
    byte-balanced :func:`~repro.gpu.cluster.assign_partitions`, and the
    changed partitions are handed off: pending walks drained from the
    old owner, re-migrated over the ordinary peer channels (so the
    sanitizer's migration-conservation rule audits the rebalance path
    unchanged) and appended to the new owner's host pool.
    """

    def __init__(
        self,
        cluster: DeviceCluster,
        shards: List[_Shard],
        threshold: float,
        cooldown: int,
        heterogeneous: bool,
        conservation_check: Callable[[], None],
    ) -> None:
        self.cluster = cluster
        self.shards = shards
        self.threshold = threshold
        self.cooldown = cooldown
        self.heterogeneous = heterogeneous
        self._assert_conservation = conservation_check
        #: bus-sampled pending walks per device (IterationStarted).
        self._pending: Dict[int, int] = {}
        #: walks computed per device since the last rebalance.
        self._window: Dict[int, int] = {}
        self._last_rebalance = 0
        self.rebalances = 0

    # -- event handlers (bound by EventBus.attach) ----------------------
    def on_iteration_started(self, event: IterationStarted) -> None:
        self._pending[event.device] = event.pending_walks

    def on_kernel_dispatched(self, event: KernelDispatched) -> None:
        device = event.device
        self._window[device] = self._window.get(device, 0) + event.walks

    # ------------------------------------------------------------------
    def _normalized_loads(self) -> Dict[int, float]:
        """Compute-normalized pending load per alive device.

        The signal is the bus-sampled pending count; a shard that went
        idle stops emitting ``IterationStarted``, so its (stale) sample
        is clamped by the live pool count at the sweep boundary.
        """
        loads: Dict[int, float] = {}
        for shard in self.shards:
            if not shard.alive:
                continue
            device = shard.ctx.device_id
            sample = min(
                self._pending.get(device, 0), shard.ctx.pending_walks
            )
            loads[device] = (
                sample / self.cluster.spec(device).assignment_weight
            )
        return loads

    def maybe_rebalance(self, iteration: int, bus: EventBus) -> bool:
        """Rebalance if skew warrants it; returns whether it happened."""
        if iteration - self._last_rebalance < self.cooldown:
            return False
        loads = self._normalized_loads()
        if len(loads) < 2:
            return False
        mean = sum(loads.values()) / len(loads)
        if mean <= 0.0 or max(loads.values()) <= self.threshold * mean:
            return False
        cluster = self.cluster
        shards = self.shards
        alive_ids = cluster.alive_devices()
        # Recompute ownership from *pending load* (+1 keeps drained
        # partitions spreadable), weighted by bottleneck capability.
        num_partitions = cluster.device_of.size
        counts = np.empty(num_partitions, dtype=np.int64)
        for p in range(num_partitions):
            counts[p] = (
                shards[cluster.owner(p)].ctx.partition_walks(p) + 1
            )
        weights = None
        if self.heterogeneous:
            weights = np.array(
                [cluster.spec(int(d)).assignment_weight for d in alive_ids],
                dtype=np.float64,
            )
        sub = assign_partitions(counts, len(alive_ids), weights=weights)
        new_owner = alive_ids[sub]
        moved = np.nonzero(new_owner != cluster.device_of)[0]
        self._last_rebalance = iteration
        self._window.clear()
        if moved.size == 0:
            return False
        walks_moved = 0
        for p in (int(x) for x in moved):
            src = cluster.owner(p)
            dst = int(new_owner[p])
            src_ctx = shards[src].ctx
            groups = src_ctx.release_partition(p)
            walks = sum(len(group) for group in groups)
            if walks == 0:
                continue
            walks_moved += walks
            hops = cluster.route(src, dst)
            # The handoff starts once the old owner's pipeline quiesces.
            arrival = _send(
                src_ctx, dst, hops, walks, earliest=src_ctx.timeline.now
            )
            dctx = shards[dst].ctx
            for group in groups:
                dctx.host.append_walks(p, group)
            _delivered(dctx, src, hops[-1], walks, (p,), arrival, arrival)
        cluster.set_owners(moved, new_owner[moved])
        _refresh_owned(cluster, shards)
        bus.emit(
            ShardRebalanced(
                iteration=iteration,
                moved_partitions=int(moved.size),
                walks_moved=walks_moved,
            )
        )
        self.rebalances += 1
        self._assert_conservation()
        return True


class MultiDeviceEngine(LightTrafficEngine):
    """The LightTraffic engine sharded across ``config.devices`` devices.

    This class holds the engine's one run loop; ``devices=1`` is a
    one-shard cluster and :meth:`LightTrafficEngine.run` delegates here.
    """

    def _build_shard(
        self,
        device_id: int,
        cluster: DeviceCluster,
        rng: Any,
        num_walks: int,
        bus: EventBus,
        backend: Any = None,
    ) -> _Shard:
        """One device's context plus its pipeline stage instances."""
        return _Shard(
            self._build_context(
                device_id, cluster, rng, num_walks, bus, backend
            )
        )

    @staticmethod
    def _iterate(shard: _Shard, iteration: int) -> None:
        """One pipeline iteration of one shard (Algorithm 2's loop body)."""
        ctx = shard.ctx
        ctx.iteration = iteration
        selected = ctx.scheduler.select_partition(ctx.host, ctx.device)
        if selected is None:  # pragma: no cover - the shard has walks
            return
        ctx.bus.emit(
            IterationStarted(
                iteration,
                selected,
                ctx.partition_walks(selected),
                device=ctx.device_id,
            )
        )
        served = shard.graph_server.serve(selected)
        shard.preemptive.fill(exclude=selected)
        contents, batch_t = shard.loader.stream(selected)
        # Kernels over migrated walks wait for their payload; everything
        # delivered so far is consumed now, and later deliveries (only
        # ever from other shards' kernels) re-arm the bound.
        frontier_t = ctx.frontier_ready.pop(selected, 0.0)
        if contents is not None:
            shard.compute.dispatch(
                selected,
                contents,
                earliest=max(served.ready_time, batch_t, frontier_t),
                zero_copy=served.zero_copy,
            )
        shard.compute.dispatch(
            selected,
            ctx.device.pop_all(selected),
            earliest=max(served.ready_time, frontier_t),
            zero_copy=served.zero_copy,
        )

    def _sweep(
        self,
        shards: List[_Shard],
        cluster: DeviceCluster,
        bus: EventBus,
        controller: Optional[ClusterController],
        num_walks: int,
    ) -> None:
        """Run round-robin sweeps over the shards until no walk is left.

        In one sweep each shard with pending walks runs pipeline
        iterations in proportion to its compute rate — a 2x shard
        dispatches two partitions per sweep, a 0.5x shard one every other
        sweep (whole credits are spent, fractions carry over); homogeneous
        shards skip the credits and run one.  Migration may hand walks to
        a shard later in the sweep (processed the same sweep) or earlier
        (picked up next sweep); the run ends after a sweep that found
        every shard empty.  Each shard's pending count is read once per
        turn.  Device failures fire and the controller rebalances at sweep
        boundaries.
        """
        cfg = self.config
        pending_failures = (
            sorted(
                cfg.failure_schedule.failures,
                key=lambda f: (f.at_iteration, f.device),
            )
            if cfg.failure_schedule is not None and len(shards) > 1
            else []
        )
        #: per-device compute rate; None when every shard runs at 1.0.
        rates: Optional[List[float]] = [
            cluster.spec(dev).compute_scale for dev in range(len(shards))
        ]
        if all(rate == 1.0 for rate in rates):
            rates = None
        credits = [0.0] * len(shards)
        iteration = 0
        while True:
            while (
                pending_failures
                and pending_failures[0].at_iteration <= iteration + 1
                and any(s.ctx.pending_walks for s in shards)
            ):
                failure = pending_failures.pop(0)
                self._fail_device(
                    shards, cluster, failure.device, iteration, bus, num_walks
                )
            idle = True
            for shard in shards:
                ctx = shard.ctx
                if not shard.alive or ctx.pending_walks == 0:
                    continue
                idle = False
                rounds = 1
                if rates is not None:
                    dev = ctx.device_id
                    credits[dev] += rates[dev]
                    rounds = int(credits[dev])
                    credits[dev] -= rounds
                for round_idx in range(rounds):
                    if round_idx and ctx.pending_walks == 0:
                        break
                    iteration += 1
                    if (
                        cfg.max_iterations is not None
                        and iteration > cfg.max_iterations
                    ):
                        left = sum(s.ctx.pending_walks for s in shards)
                        raise RuntimeError(
                            f"exceeded max_iterations={cfg.max_iterations} "
                            f"with {left} walks left"
                        )
                    self._iterate(shard, iteration)
            if idle:
                return
            if controller is not None:
                controller.maybe_rebalance(iteration, bus)

    @staticmethod
    def _completion(
        shards: List[_Shard], cluster: DeviceCluster, num_walks: int
    ) -> RunCompleted:
        """The run's closing event; every walk must have finished."""
        finished = sum(shard.ctx.finished for shard in shards)
        if finished != num_walks:
            raise RuntimeError(
                f"walk conservation violated: finished {finished} "
                f"of {num_walks}"
            )
        breakdown = TimeBreakdown()
        total_time = 0.0
        for shard in shards:
            breakdown.merge(shard.ctx.timeline.breakdown)
            total_time = max(total_time, shard.ctx.timeline.total_time())
        for stream in cluster.all_streams():
            total_time = max(total_time, stream.busy_until)
        return RunCompleted(
            total_time=total_time,
            breakdown=breakdown.as_dict(),
            graph_pool_hits=sum(s.ctx.graph_pool.hits for s in shards),
            graph_pool_misses=sum(s.ctx.graph_pool.misses for s in shards),
            finished_walks=finished,
        )

    # ------------------------------------------------------------------
    def _assert_cluster_conservation(
        self, shards: List[_Shard], expected: int
    ) -> None:
        """Re-assert walk conservation after a cluster mutation.

        Failure recovery and elastic rebalance both move walks between
        pools outside the audited kernel/migration flow; every such
        mutation ends with this check so a lost or duplicated walk
        surfaces at the mutation that caused it, not at run end.
        """
        pending = sum(shard.ctx.pending_walks for shard in shards)
        finished = sum(shard.ctx.finished for shard in shards)
        if pending + finished != expected:
            raise RuntimeError(
                f"walk conservation violated after cluster mutation: "
                f"{pending} pending + {finished} finished != {expected}"
            )

    def _fail_device(
        self,
        shards: List[_Shard],
        cluster: DeviceCluster,
        device: int,
        iteration: int,
        bus: EventBus,
        num_walks: int,
    ) -> None:
        """Kill one device shard and recover its walks onto survivors.

        The dead shard's pending walks are drained (there are no walks
        in flight between iterations — migration delivery is synchronous
        within a dispatch), its partitions reassigned over the alive
        devices through the shared byte-balanced assignment, survivors'
        owned masks refreshed, and the walks appended to the new owners'
        host pools.  ``DeviceFailed`` is emitted only after the cluster
        is consistent again, so auditing subscribers always observe a
        conserved population.
        """
        shard = shards[device]
        if not shard.alive:
            return
        cluster.fail_device(device)
        shard.alive = False
        moved = cluster.owned_partitions(device)
        drained = {
            int(p): shard.ctx.release_partition(int(p)) for p in moved
        }
        pending = sum(
            len(group) for groups in drained.values() for group in groups
        )
        alive_ids = cluster.alive_devices()
        sizes = np.asarray(
            self.partitioned.partition_sizes(), dtype=np.int64
        )
        # The dead device may own fewer partitions than there are
        # survivors; spread over the least-loaded ones in that case
        # (deterministic: load then device id).
        if moved.size < alive_ids.size:
            ranked = sorted(
                (
                    shards[int(d)].ctx.pending_walks
                    / cluster.spec(int(d)).assignment_weight,
                    int(d),
                )
                for d in alive_ids
            )
            chosen = sorted(dev for __, dev in ranked[: moved.size])
            alive_ids = np.asarray(chosen, dtype=np.int64)
        weights = self._assignment_weights(
            [cluster.spec(int(d)) for d in alive_ids]
        )
        sub = assign_partitions(
            sizes[moved], len(alive_ids), weights=weights
        )
        new_owners = alive_ids[sub]
        cluster.set_owners(moved, new_owners)
        _refresh_owned(cluster, shards)
        recovered: Dict[int, List[int]] = {}
        for idx, p in enumerate(int(x) for x in moved):
            dst = int(new_owners[idx])
            walks = sum(len(group) for group in drained[p])
            for group in drained[p]:
                shards[dst].ctx.host.append_walks(p, group)
            entry = recovered.setdefault(dst, [0, 0])
            entry[0] += walks
            entry[1] += 1
        bus.emit(
            DeviceFailed(
                device=device,
                iteration=iteration,
                pending_walks=pending,
                partitions=int(moved.size),
            )
        )
        for dst in sorted(recovered):
            walks, partitions = recovered[dst]
            bus.emit(
                DeviceRecoveredWalks(
                    src_device=device,
                    dst_device=dst,
                    walks=walks,
                    partitions=partitions,
                )
            )
        self._assert_cluster_conservation(shards, num_walks)

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        """Run ``num_walks`` walks across the device shards."""
        if num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        cfg = self.config
        num_devices = cfg.devices
        cluster = self._make_cluster()
        bus = self.bus if self.bus is not None else EventBus()
        rng = self._make_rng()
        # One backend shared by every shard: the kernels are partition-
        # local, so a single bound instance (and a single trajectory
        # precompute) serves all devices.
        backend = self._make_backend()
        shards = [
            self._build_shard(dev, cluster, rng, num_walks, bus, backend)
            for dev in range(num_devices)
        ]
        if num_devices > 1:
            migrator = WalkMigrator(cluster, shards)
            for shard in shards:
                shard.ctx.router = migrator

        stats = RunStats(
            system="lighttraffic",
            algorithm=self.algorithm.name,
            graph=self.graph.name or "graph",
            num_walks=num_walks,
            num_partitions=self.partitioned.num_partitions,
            num_devices=num_devices,
        )
        tracer = (
            TraceSubscriber(self.trace) if self.trace is not None else None
        )
        sanitizer = None
        if cfg.sanitize:
            from repro.analysis import Sanitizer

            sanitizer = Sanitizer()
            for shard in shards:
                sanitizer.bind_shard(
                    shard.ctx.device_id,
                    timeline=shard.ctx.timeline,
                    graph_pool=shard.ctx.graph_pool,
                    host=shard.ctx.host,
                    device=shard.ctx.device,
                    expected_walks=num_walks,
                )
            if num_devices > 1:
                sanitizer.bind_cluster(cluster)
        controller = None
        if num_devices > 1 and cfg.rebalance_threshold is not None:
            controller = ClusterController(
                cluster,
                shards,
                threshold=cfg.rebalance_threshold,
                cooldown=cfg.rebalance_cooldown,
                heterogeneous=cfg.heterogeneous_assignment,
                conservation_check=(
                    lambda: self._assert_cluster_conservation(
                        shards, num_walks
                    )
                ),
            )
        try:
            with bus.observing(
                StatsCollector(stats, metrics=self.metrics),
                self.metrics,
                tracer,
                sanitizer,
                controller,
            ):
                self._seed([shard.ctx for shard in shards], num_walks)
                self._sweep(shards, cluster, bus, controller, num_walks)
                bus.emit(self._completion(shards, cluster, num_walks))
        finally:
            if sanitizer is not None:
                sanitizer.unbind()
                stats.sanitizer = sanitizer.summary()
            backend.close()
        stats.backend = cfg.backend
        stats.measured = backend.timings().as_dict()
        if num_devices > 1:
            stats.device_times = {
                str(shard.ctx.device_id): shard.ctx.timeline.total_time()
                for shard in shards
            }
        if cfg.record_ops:
            for shard in shards:
                shard.ctx.timeline.validate()
        self._timeline = shards[0].ctx.timeline
        self._timelines = [shard.ctx.timeline for shard in shards]
        self._cluster = cluster
        self._shards = shards
        return stats
