"""One bounded, thread-safe least-recently-used map.

Every in-memory store with eviction in :mod:`repro.service` and
:mod:`repro.eco` is an :class:`LRU`: the service's finished jobs and
recent designs, a worker's parsed designs and warm ECO states, and an
ECO state's solve cache.  Keys are content addresses (or tuples of
them), so an entry never goes stale; eviction only forgets work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRU(Generic[K, V]):
    """A map of at most ``maxsize`` entries.

    :meth:`get` and :meth:`put` both count as a use; a :meth:`put` past
    the bound evicts the least recently used entry.  ``maxsize`` 0
    holds nothing.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = max(0, maxsize)
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K) -> V | None:
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def values(self) -> list[V]:
        """Snapshot of the values, least recently used first."""
        with self._lock:
            return list(self._data.values())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
