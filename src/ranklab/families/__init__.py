"""Named construction families, generated as validated RankOneSpec values.

One part per spec kind: ``inf_chacon``, ``tq`` and ``asymm``.  Each family
is a stage rule, of its parameters and the current height, that the generic
column engine extends column by column.  A spec load imports the part of its
kind alone; the public names resolve on first use (PEP 562), as in
``ranklab.certificates``.
"""

from .. import _lazy_exports, _public

__all__ = _public("families")

__getattr__, __dir__ = _lazy_exports(globals())
