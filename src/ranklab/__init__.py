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

# The public names, by defining module relative to the package, in
# ``__all__`` order; a subpackage's parts have keys of their own.  This table
# is the one statement of the API: each module's ``__all__`` is
# ``_public(<its key>)``.  A module is imported the first time one of its
# names is looked up, so a command that never touches ``certificates`` never
# pays for compiling it.
_EXPORTS = {
    "_version": ("__version__",),
    "construction": (
        "StageSpec",
        "FamilyTag",
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
    "families.inf_chacon": ("InfChaconParams", "make_inf_chacon"),
    "families.tq": ("TQParams", "make_tq"),
    "families.asymm": (
        "AsymmParams",
        "make_asymm_construction",
        "AsymmStageSets",
        "asymm_stage_sets",
        "SeparationResult",
        "separation_check",
        "iroot_ceil",
    ),
    "certificates": (
        "VERDICT_HOLDS",
        "VERDICT_FAILS",
        "VERDICT_INCONCLUSIVE",
        "CERTIFICATE_KINDS",
        "Certificate",
        "ProductQuery",
        "MatchWitness",
        "verify_match_witness",
    ),
    "certificates.products": ("conservativity_fraction", "non_ergodic_check"),
    "certificates.matching": (
        "ErgodicMatchResult",
        "ergodic_matching",
        "PatternQuery",
        "PatternResult",
        "pattern_measure",
    ),
    "certificates.mixing": ("MixingEntry", "MixingResult", "mixing_decay"),
    "certificates.npc": ("npc_certificate",),
    "certificates.pwm": ("PwmResult", "pwm_witness"),
    "certificates.asymmetry": ("AsymmetryResult", "asymmetry_statistic"),
    "oracles": ("ColumnStats", "column_stats", "ap_search", "exhaustive_matches"),
    "reporting": (
        "TOOL_VERSION",
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


def _public(module: str) -> list[str]:
    """The names ``_EXPORTS`` lists for ``module``, then for its parts; for
    ``""``, the package, every name."""
    return [
        name
        for key, names in _EXPORTS.items()
        if not module or f"{key}.".startswith(f"{module}.")
        for name in names
    ]


__all__ = _public("")


def _lazy_exports(namespace: dict[str, Any]) -> tuple[Any, Any]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose globals are
    ``namespace``: a name ``_EXPORTS`` lists under a module below the package
    is imported from that module the first time it is looked up."""
    package = namespace["__name__"]
    prefix = package.partition(".")[2]
    prefix += "." if prefix else ""
    module_of = {
        name: key[len(prefix):]
        for key, names in _EXPORTS.items()
        if key.startswith(prefix)
        for name in names
    }

    def __getattr__(name: str) -> Any:
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{module_of[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals())
