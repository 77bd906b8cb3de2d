"""A dict that refuses every change, for mappings inside rows handed out twice.

An answer served again from memory -- a :class:`~repro.analysis.stats.TableRollup`
view on an unchanged state, a reused
:meth:`~repro.analysis.live.LiveAnalysis.identify_unknown` -- hands every
caller the same frozen row objects, so a mapping a row carries must not be
changeable through any of them.  :class:`ReadOnlyDict` is a ``dict`` in every
other respect: its ``repr`` and ``==`` are a dict's, so a row's printed form
and every digest taken of it are those of the plain-dict row it replaces
(``types.MappingProxyType`` would change the ``repr``).
"""

from __future__ import annotations

from typing import NoReturn


class ReadOnlyDict(dict):
    """A ``dict`` whose mutators raise :class:`TypeError`; ``copy()`` and
    ``dict(...)`` give the caller a plain dict of its own to change."""

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # pickle and copy would otherwise refill the copy item by item
        return type(self), (dict(self),)
