"""Exception hierarchy for the :mod:`repro` simulation framework.

Every error raised by the framework derives from :class:`ReproError`, so
callers can catch framework failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime model errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the framework."""


class ConfigurationError(ReproError):
    """A system/VM/workload specification is invalid.

    Raised while validating user-supplied specs, before any simulation
    starts.  The message always names the offending field.
    """


class ModelError(ReproError):
    """A SAN model is structurally invalid.

    Examples: joining two places with incompatible kinds, adding two places
    with the same name to one atomic model, or wiring a gate to an activity
    that belongs to a different model.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state at run time.

    Examples: an instantaneous-activity loop that never quiesces, an output
    gate raising, or a negative marking.
    """


class SchedulingError(ReproError):
    """A plugged scheduling function produced an inconsistent decision.

    Examples: scheduling more VCPUs than there are PCPUs, assigning one
    PCPU to two VCPUs, or scheduling in a VCPU without a timeslice.
    """


class RegistryError(ReproError):
    """Scheduler registry lookup or registration failed."""


class StatisticsError(ReproError):
    """An estimator was asked for a quantity it cannot compute.

    Example: a confidence interval over fewer than two replications.
    """


class ReplicationError(ReproError):
    """A replication failed after exhausting its retry budget.

    Raised by the resilient experiment executor when one replication
    keeps crashing or timing out and the configuration does not allow
    continuing with partial results.
    """


class ServiceError(ReproError):
    """The simulation service rejected or could not run a request.

    Examples: a job payload with unknown keys or out-of-range values,
    a lookup of a job id the server never issued, or an operation on a
    server that is already shutting down.
    """
