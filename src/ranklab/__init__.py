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
        "progression_runs",
    ),
    "digits": (
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
    "oracles": ("ColumnStats", "column_stats", "ap_search", "exhaustive_matches"),
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


def _lazy_exports(namespace: dict[str, Any], module_of: dict[str, str]) -> tuple[Any, Any]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose globals are
    ``namespace``: a name is imported from its module in ``module_of``, relative
    to the package, the first time it is looked up."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{module_of[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _MODULE_OF)
