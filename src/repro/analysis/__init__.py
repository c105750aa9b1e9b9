"""Metrics, classification and tabulation helpers for the experiments,
plus the SimSanitizer runtime resource ledger
(:mod:`repro.analysis.sanitizer`).

The five static analyzers — SimLint, SimRace, SimFlow, SimPure and
SimShard (:mod:`repro.analysis.simlint` ... :mod:`repro.analysis.simshard`,
built on :mod:`repro.analysis.framework`) — are deliberately *not*
imported here: the simulator imports this package through the sanitizer,
and no simulation should pay for loading the analyzers.  Import them by
module path.  See ``docs/analysis.md``."""

from repro.analysis.classify import CharacterizationRow, classify, is_replication_sensitive
from repro.analysis.metrics import amean, geomean, normalize, s_curve
from repro.analysis.sanitizer import ResourceLedger, SanitizerError, sanitize_from_env
from repro.analysis.tables import format_table, percent, ratio

__all__ = [
    "CharacterizationRow",
    "classify",
    "is_replication_sensitive",
    "amean",
    "geomean",
    "normalize",
    "s_curve",
    "format_table",
    "percent",
    "ratio",
    "ResourceLedger",
    "SanitizerError",
    "sanitize_from_env",
]
