"""Run a Table 7 search on a chosen side of its brute-force/index choice.

:class:`~repro.analysis.similarity.SimilaritySearch` picks brute force or the
n-gram index from its instance count, against
:data:`~repro.analysis.simindex.DEFAULT_INDEX_THRESHOLD`, which it reads on
every query.  Brute force is the oracle the index is pinned to, so a test that
compares the two patches that one constant for the duration of each call.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Any, Callable, Iterator
from unittest import mock

from repro.analysis import simindex


@contextlib.contextmanager
def index_threshold(value: int) -> Iterator[None]:
    """Searches queried inside the block use the index from ``value`` instances."""
    with mock.patch.object(simindex, "DEFAULT_INDEX_THRESHOLD", value):
        yield


def on_brute_force(call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``call(*args, **kwargs)`` with every search comparing every pair."""
    with index_threshold(sys.maxsize):
        return call(*args, **kwargs)


def on_index(call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``call(*args, **kwargs)`` with every search pruning through the index."""
    with index_threshold(0):
        return call(*args, **kwargs)
