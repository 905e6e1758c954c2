"""The Bundle resource abstraction.

Uniform characterization of heterogeneous resources (compute / network /
storage), with on-demand and predictive query modes and a threshold
monitoring interface, aggregated into shareable resource bundles.
"""

from .bundle import ResourceBundle, UnknownResource
from .monitor import ResourceMonitor, Subscription
from .prediction import EwmaPredictor, QuantilePredictor, WaitSample
from .representation import (
    ComputeRepresentation,
    NetworkRepresentation,
    ResourceRepresentation,
    StorageRepresentation,
)

__all__ = [
    "ComputeRepresentation",
    "EwmaPredictor",
    "NetworkRepresentation",
    "QuantilePredictor",
    "ResourceBundle",
    "ResourceMonitor",
    "ResourceRepresentation",
    "StorageRepresentation",
    "Subscription",
    "UnknownResource",
    "WaitSample",
]
