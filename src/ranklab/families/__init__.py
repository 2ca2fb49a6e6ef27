"""Named construction families, generated as validated RankOneSpec values.

One part per spec kind: ``inf_chacon``, ``tq`` and ``asymm``.  Each family
exposes its closed form so the generic column engine can be cross-checked
against it.  A spec load imports the part of its kind alone; the public
names resolve on first use (PEP 562), as in ``ranklab.certificates``.
"""

from .. import _lazy_exports

_PARTS = {
    "inf_chacon": ("InfChaconParams", "make_inf_chacon"),
    "tq": ("TQParams", "make_tq"),
    "asymm": ("AsymmParams", "make_asymm_construction", "AsymmStageSets", "asymm_stage_sets",
              "SeparationResult", "separation_check", "iroot_ceil"),
}
_PART_OF = {name: part for part, names in _PARTS.items() for name in names}

__all__ = [*_PART_OF]

__getattr__, __dir__ = _lazy_exports(globals(), _PART_OF)
