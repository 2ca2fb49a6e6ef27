"""Exact arithmetic for rank-one cutting-and-stacking transformations.

The package builds columns from cut counts and spacer sequences, tracks the
offsets at which levels recur (all in integer/rational arithmetic, no
floating point on any authoritative path), and turns dynamical questions —
recurrence, matching, progression freeness, mixing-type decay, asymmetry
under inversion — into finite computations that emit machine-checkable
certificates.
"""

import importlib
from typing import Any

from ._version import __version__

TOOL_VERSION = __version__

# Public names by defining module, in ``__all__`` order.  Each module is
# imported the first time one of its names is looked up, so a command that
# never touches ``certificates`` never pays for compiling it.
_EXPORTS = {
    "construction": (
        "StageSpec",
        "RankOneSpec",
        "validate_spec",
        "ColumnStats",
        "column_stats",
        "LevelRef",
        "check_level",
        "level_width",
        "descendant_extent",
        "descendant_heights",
        "MeasureInterval",
        "intersection_measure",
    ),
    "sumsets": (
        "descendant_decompose",
        "descendant_differences",
        "PartnerSet",
        "partner_set",
        "PartnerShift",
        "partner_shift",
        "APSearchResult",
        "ap_search",
        "progression_runs",
        "DigitAlphabet",
        "admissible_alphabets",
        "sumset_membership",
        "GapCount",
        "gap_count",
        "CoverageChecks",
        "coverage_checks",
        "GammaWitness",
        "gamma_search",
    ),
    "families": (
        "InfChaconParams",
        "make_inf_chacon",
        "TQParams",
        "make_tq",
        "SeparationResult",
        "separation_check",
        "AsymmParams",
        "asymm_stage_sets",
        "make_asymm_construction",
    ),
    "certificates": (
        "Certificate",
        "ProductQuery",
        "MatchWitness",
        "verify_match_witness",
        "conservativity_fraction",
        "ErgodicMatchResult",
        "ergodic_matching",
        "exhaustive_matches",
        "PatternQuery",
        "PatternResult",
        "pattern_measure",
        "MixingEntry",
        "MixingResult",
        "mixing_decay",
        "npc_certificate",
        "PwmResult",
        "pwm_witness",
        "non_ergodic_check",
        "AsymmetryResult",
        "asymmetry_statistic",
    ),
    "reporting": (
        "Report",
        "canonical_json",
        "fingerprint",
        "jsonable",
        "report_payload",
        "report_fingerprint",
        "emit_report",
        "validate_report",
    ),
    "specio": (
        "parse_spec",
        "load_spec",
        "spec_payload",
        "spec_fingerprint",
        "tq_params_of",
    ),
    "errors": (
        "RankLabError",
        "SpecError",
        "CutTooSmall",
        "NegativeSpacer",
        "LengthMismatch",
        "StageUnavailable",
        "StageTooLow",
        "ParamOutOfRange",
        "PreconditionViolated",
        "HorizonExceeded",
        "BudgetExceeded",
        "NoPartnerStages",
        "HypothesisUnmet",
        "ScheduleInfeasible",
        "SpecFileError",
        "IoError",
        "IntegerTooLong",
        "UsageError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["TOOL_VERSION", "__version__", *_MODULE_OF]


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
