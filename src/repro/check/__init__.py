"""Online invariant oracles and conservation checks (``repro.check``).

The checking layer of the reproduction: paper-derived invariants (Eqs.
4, 7, 8; Sections V-D/V-E) validated on every Tier-2 control step via
the trace event bus, plus an end-of-run SDO conservation ledger per
substrate, which each system closes as ``check_conservation()``.  See
:mod:`repro.check.oracles` for the online checks and
:mod:`repro.check.conservation` for the ledgers; the seeded scenario
fuzzer that exercises them lives in :mod:`repro.experiments.fuzzing`.
"""

from repro.check.conservation import check_conservation
from repro.check.oracles import InvariantViolation, OracleRecorder

__all__ = [
    "InvariantViolation",
    "OracleRecorder",
    "check_conservation",
]
