"""The resource bundle: aggregated query/monitor/predict over resources.

A :class:`ResourceBundle` represents "some portion of system resources"
without owning them — the same cluster may appear in several bundles.
It exposes:

* the **query interface** (on-demand snapshots across all categories),
* the **predictive interface** (queue-wait forecasts from history), and
* the **monitoring interface** (threshold subscriptions).

A bundle is built over the simulated substrate (clusters + network)
and hands the Execution Manager the uniform resource information it
integrates with application requirements.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..cluster import Cluster, SimulatedResource
from ..des import Simulation
from ..net import Network
from .monitor import ResourceMonitor, Subscription
from .prediction import EwmaPredictor, QuantilePredictor
from .representation import (
    ComputeRepresentation,
    NetworkRepresentation,
    ResourceRepresentation,
    StorageRepresentation,
)


class UnknownResource(KeyError):
    """Raised when a bundle is asked about a resource it does not contain."""


class ResourceBundle:
    """A named collection of resources with uniform interfaces.

    ``resources`` are the simulated resources (their clusters join the
    bundle under their own names) or a ``{name: Cluster}`` mapping.
    """

    def __init__(
        self,
        name: str,
        sim: Simulation,
        network: Network,
        resources: Union[Iterable[SimulatedResource], Dict[str, Cluster]],
    ) -> None:
        if isinstance(resources, dict):
            clusters = dict(resources)
        else:
            clusters = {r.cluster.name: r.cluster for r in resources}
        if not clusters:
            raise ValueError("a bundle needs at least one resource")
        self.name = name
        self.sim = sim
        self.network = network
        self._clusters = clusters
        self.predictor = QuantilePredictor()
        self.ewma = EwmaPredictor()
        self.monitor = ResourceMonitor(sim, self.query)

    # -- membership ---------------------------------------------------------------

    def resources(self) -> Tuple[str, ...]:
        return tuple(self._clusters)

    def __contains__(self, resource: str) -> bool:
        return resource in self._clusters

    def cluster(self, resource: str) -> Cluster:
        try:
            return self._clusters[resource]
        except KeyError:
            raise UnknownResource(resource) from None

    # -- query interface (on-demand mode) ------------------------------------------

    def query(self, resource: str) -> ResourceRepresentation:
        """On-demand snapshot of one resource across all categories."""
        tel = self.sim.telemetry
        if tel.enabled:
            tel.metrics.counter("bundle.queries").inc()
            with tel.span(
                "bundle", "query", track=f"bundle/{self.name}", resource=resource
            ):
                return self._query(resource)
        return self._query(resource)

    def _query(self, resource: str) -> ResourceRepresentation:
        cluster = self.cluster(resource)
        link = self.network.link_to(resource)
        fs = self.network.fs(resource)
        compute = ComputeRepresentation(
            total_cores=cluster.total_cores,
            cores_per_node=cluster.cores_per_node,
            free_cores=cluster.free_cores,
            utilization=cluster.utilization,
            queue_length=cluster.queue_length,
            queued_core_seconds=cluster.queued_core_seconds,
            queue_composition=tuple(
                sorted(cluster.queue_composition().items())
            ),
            scheduler_policy=cluster.scheduler.name,
            setup_time_estimate=self.predict_wait(resource),
            offline=cluster.is_offline,
        )
        network = NetworkRepresentation(
            bandwidth_bytes_per_s=link.bandwidth,
            latency_s=link.latency,
            active_flows=link.active_flows,
        )
        storage = StorageRepresentation(
            files=len(fs), used_bytes=fs.total_bytes()
        )
        return ResourceRepresentation(
            name=resource,
            timestamp=self.sim.now,
            compute=compute,
            network=network,
            storage=storage,
        )

    def query_all(self) -> List[ResourceRepresentation]:
        """Snapshot every resource in the bundle."""
        return [self.query(r) for r in self._clusters]

    def estimate_transfer_time(self, resource: str, size_bytes: float) -> float:
        """End-to-end staging estimate origin <-> resource."""
        self.cluster(resource)  # membership check
        return self.network.estimate_transfer_time(resource, size_bytes)

    # -- predictive interface --------------------------------------------------------

    def predict_wait(
        self, resource: str, cores: Optional[int] = None, mode: str = "quantile"
    ) -> float:
        """Forecast queue wait from the resource's recorded history.

        ``mode`` selects the estimator: "quantile" (QBETS-like bound,
        default) or "ewma" (point estimate).
        """
        history = list(self.cluster(resource).wait_history)
        if mode == "quantile":
            return self.predictor.predict(history, cores)
        if mode == "ewma":
            return self.ewma.predict(history, cores)
        raise ValueError(f"unknown prediction mode {mode!r}")

    def rank_by_expected_wait(
        self, cores: Optional[int] = None
    ) -> List[Tuple[str, float]]:
        """Resources sorted by predicted wait, best first."""
        ranked = [
            (name, self.predict_wait(name, cores)) for name in self._clusters
        ]
        ranked.sort(key=lambda pair: pair[1])
        return ranked

    # -- monitoring interface ----------------------------------------------------------

    def subscribe(
        self,
        resource: str,
        predicate: Callable[[ResourceRepresentation], bool],
        callback: Callable[[int, ResourceRepresentation], None],
        dwell_s: float = 0.0,
        renotify_s: Optional[float] = None,
    ) -> Subscription:
        """Monitor a resource; see :class:`ResourceMonitor`."""
        self.cluster(resource)  # membership check
        return self.monitor.subscribe(
            resource, predicate, callback, dwell_s=dwell_s, renotify_s=renotify_s
        )
