"""Exception hierarchy for the TransPimLib reproduction.

All library-specific errors derive from :class:`TransPimError` so callers can
catch everything coming out of this package with a single ``except`` clause.
"""

from __future__ import annotations


class TransPimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(TransPimError):
    """A method, simulator, or workload was configured with invalid parameters."""


class UnsupportedFunctionError(TransPimError):
    """The requested (function, method) pair is not in the support matrix.

    Mirrors Table 2 of the paper: not every implementation method supports
    every function (e.g. D-LUT is unsuitable for periodic functions).
    """

    def __init__(self, function: str, method: str, reason: str = ""):
        self.function = function
        self.method = method
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"function {function!r} is not supported by method {method!r}{detail}"
        )


class RangeError(TransPimError):
    """An input value is outside the supported range of a method.

    Raised only when range extension is disabled; with range extension the
    library reduces the argument instead (Section 2.2.3 of the paper).
    """


class MemoryLayoutError(TransPimError):
    """A table or buffer does not fit in the requested PIM memory region."""


class SimulationError(TransPimError):
    """The PIM simulator was driven into an invalid state."""


class PoolError(SimulationError):
    """A multiprocess sharded dispatch failed.

    Raised by :mod:`repro.plan.pool` when a worker raises, dies, or the
    pool cannot be driven; the parent process always cleans up its shared
    memory segments and never returns a half-aggregated result.
    """

    def __init__(self, message: str, shard_index: int = -1):
        self.shard_index = shard_index
        super().__init__(message)


class PoolTimeoutError(PoolError):
    """A pooled shard did not complete within the pool's timeout.

    Covers both genuinely slow shards and workers that hang or die
    mid-shard without the pool noticing (the task's result then never
    arrives).
    """


class ServerError(TransPimError):
    """The serving front end (:mod:`repro.serve`) rejected a request."""


class ServerOverloadedError(ServerError):
    """Admission control shed a request at the hard queue-depth limit.

    Raised by :meth:`repro.serve.Server.submit` when the number of pending
    requests has reached ``hard_limit``.  Below the hard limit but above
    ``max_pending`` the server applies *backpressure* (the submit awaits
    capacity) instead of shedding.
    """


class ServerClosedError(ServerError):
    """A request arrived after :meth:`repro.serve.Server.close` began.

    A draining server completes every request admitted before close but
    refuses new ones; a cancelled (non-draining) close also fails the
    requests still queued with this error.
    """
