"""The one bounded LRU map behind every service and ECO cache."""

import sys
import threading

from repro.lru import LRU


def test_get_refreshes_and_put_evicts_the_least_recently_used():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1
    lru.put("c", 3)
    assert lru.get("b") is None
    assert lru.values() == [1, 3]
    assert LRU(0).get("x") is None and len(LRU(0)) == 0


def test_concurrent_use_keeps_the_bound_and_every_value():
    lru = LRU(8)
    errors = []

    def hammer(seed):
        try:
            for i in range(2000):
                key = (seed * 7 + i) % 24
                lru.put(key, key * 10)
                # an older key: the one other threads' puts evict next
                old = (key + 17) % 24
                value = lru.get(old)
                if value is not None and value != old * 10:
                    errors.append((old, value))
                if len(lru) > 8:
                    errors.append(("size", len(lru)))
        except Exception as exc:  # a lost update surfaces as a KeyError
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(lru) == 8
