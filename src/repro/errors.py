"""Exception hierarchy for the RASA reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library errors without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value or combination was supplied."""


class IsaError(ReproError):
    """An ISA-level violation: bad opcode, operand, or encoding."""


class AssemblerError(IsaError):
    """The textual assembler rejected the input program."""


class VerificationError(IsaError):
    """The static verifier found diagnostics in a program that must be clean."""


class TileError(ReproError):
    """A tile-register access violated the tile layout or typing rules."""


class SimError(ReproError):
    """A simulator reached an inconsistent state (internal invariant broke)."""


class ScheduleError(SimError):
    """The engine sub-stage scheduler produced or detected an illegal overlap."""


class WorkloadError(ReproError):
    """A workload/layer definition is malformed or cannot be lowered."""


class ExperimentError(ReproError):
    """An experiment driver was given an inconsistent sweep or grid."""


class ServiceError(ReproError):
    """The sweep service rejected a request or could not be reached."""


class ServiceLookupError(ServiceError):
    """A service request named a plan or shard the job store does not hold."""


class TransitionError(ServiceError):
    """A shard step the legal-transition matrix or the lease rule refuses."""
