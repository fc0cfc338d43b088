"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError`` etc. propagate untouched).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "SimulationError",
    "BankConflictError",
    "ScheduleError",
    "WorstCaseConstructionError",
    "OccupancyError",
    "ServiceError",
    "QueueFullError",
    "DeadlineExceededError",
    "WorkerCrashed",
    "ChaosFailureError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is outside its documented domain.

    Raised, for example, when ``E`` (elements per thread) is not positive,
    when a thread-block size ``u`` is not a multiple of the warp width ``w``,
    or when a subsequence split does not add up to ``E``.
    """


class SimulationError(ReproError, RuntimeError):
    """The warp-synchronous simulator detected an inconsistent execution.

    Examples: a thread program yields an unknown instruction, an address is
    out of the bounds of the shared-memory allocation, or a warp finishes
    with threads in divergent states where lockstep execution was required.
    """


class BankConflictError(ReproError, AssertionError):
    """A procedure that must be bank conflict free performed a conflicting access.

    This is only raised by *verifying* wrappers (e.g. the checks used in the
    test-suite and by ``python -m repro verify``); plain simulation records
    conflicts in counters instead of raising.
    """


class ScheduleError(ReproError, ValueError):
    """A gather/scatter round schedule failed an internal invariant.

    For instance, a round's address set is not a complete residue system
    modulo ``w``, or a thread would have to read two elements in one round.
    """


class WorstCaseConstructionError(ReproError, ValueError):
    """The Section 4 worst-case construction produced an invalid sequence.

    The construction is only defined for ``1 < E <= w``; requesting
    parameters outside that range, or an internal accounting mismatch
    (``|T| != w/d``), raises this error.
    """


class OccupancyError(ReproError, ValueError):
    """A kernel launch configuration cannot run on the modeled device.

    Raised when a thread block needs more shared memory or registers than a
    streaming multiprocessor physically has.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for :mod:`repro.service` failures (CLI exit code 5).

    Subclasses identify *which* service contract a request violated; the
    ``repro serve`` / ``repro submit`` CLI maps each subclass to its own
    exit code (see :data:`repro.service.cli.EXIT_CODES`) so callers can
    distinguish shed load from expired deadlines without parsing output.
    """

    #: Exit code ``repro serve`` / ``repro submit`` return for this class.
    exit_code: int = 5


class QueueFullError(ServiceError):
    """The service's bounded queue rejected a request (CLI exit code 3).

    Raised by :meth:`repro.service.SortService.submit` when the admission
    queue is at capacity and the caller asked not to block, or when the
    backpressure wait for queue space exceeds its timeout.  Shed requests
    were never admitted: retrying later is always safe.
    """

    exit_code = 3


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its result (CLI exit code 4).

    Raised when a queued request's relative deadline passes before a
    shard takes it; the scheduler drops expired requests as it takes
    them rather than wasting a shard on a result nobody is waiting for.
    """

    exit_code = 4


class WorkerCrashed(ReproError, RuntimeError):
    """A cluster pool worker died mid-task (the chaos crash fault).

    Raised by the fault hook :mod:`repro.replay.chaos` installs into
    :class:`repro.cluster.pool.ClusterPool` to simulate a worker process
    dying; the pool's recovery path catches it, rebuilds the executor,
    and retries the batch once.  Escaping this exception means recovery
    itself failed.
    """


class ChaosFailureError(ServiceError):
    """A chaos campaign ended with unrecovered failures (CLI exit code 7).

    Raised by :func:`repro.replay.campaign.run_campaign` (via the
    ``repro replay chaos`` CLI) when any injected fault left behind an
    oracle failure or an unexpected response — the service did *not*
    survive that fault.  The campaign's ``CHAOS_REPORT`` names the
    failed injections.
    """

    exit_code = 7
