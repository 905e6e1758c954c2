"""SAGA-like interoperability layer.

A standardized access layer to heterogeneous resource middleware:
uniform job descriptions and job states, with per-dialect adaptors
(Slurm-like, PBS-like, HTCondor-like) that translate them to the native
batch systems of the simulated resources.
"""

from .adaptors.base import Adaptor, AdaptorError
from .adaptors.dialects import (
    ADAPTORS,
    CondorAdaptor,
    PbsAdaptor,
    SlurmAdaptor,
)
from .description import JobDescription
from .fallible import (
    FallibleAdaptor,
    PermanentSubmitError,
    SubmissionFaultModel,
    SubmitFault,
    TransientSubmitError,
)
from .job import JobService, SagaJob
from .states import SAGA_FINAL, SagaState, map_native_state

__all__ = [
    "ADAPTORS",
    "Adaptor",
    "AdaptorError",
    "CondorAdaptor",
    "FallibleAdaptor",
    "PermanentSubmitError",
    "SubmissionFaultModel",
    "SubmitFault",
    "TransientSubmitError",
    "JobDescription",
    "JobService",
    "PbsAdaptor",
    "SAGA_FINAL",
    "SagaJob",
    "SagaState",
    "SlurmAdaptor",
    "map_native_state",
]
