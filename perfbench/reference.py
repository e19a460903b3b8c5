"""A fixed amount of pure-Python work, timed beside every measurement.

The host this benchmark was tuned on (2 vCPUs shared with other tenants)
changed speed by up to 2x within a minute, for plain CPU-bound Python with
no system time.  Reported times are therefore scaled to a nominal host
speed: a measured time t, with the reference work taking r seconds right
beside it, is reported as t * REFERENCE_S / r.  The work mixes what qfib
spends its time on (products accumulated into a dict keyed by packed
integers, small-object method calls, splitting and joining term text, big
integer arithmetic, an explicit-stack walk) but calls no qfib code, so
changes to qfib move the reported times and changes in host speed mostly
do not.  Raw times are kept in the run's metadata.
"""

from time import perf_counter

# What reference_seconds() takes at the nominal host speed.
REFERENCE_S = 0.04

_A = {(i // 20) << 32 | i % 20: i for i in range(200)}
_B = {(i // 20) << 32 | i % 20: i + 1 for i in range(600)}
_TEXT = " + ".join(f"{i}*z1^{i % 7}*z2^{i % 5}*q^{i}" for i in range(300))
_BIG = 3**4000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, other):
        return _Pair(self.a + other.a, self.b ^ other.b)


def _work():
    out = {}
    get = out.get
    for ka, va in _A.items():
        for kb, vb in _B.items():
            key = ka + kb
            c = get(key, 0) + va * vb
            if c:
                out[key] = c
    p, one = _Pair(0, 0), _Pair(1, 3)
    for _ in range(32000):
        p = p.add(one)
    for _ in range(24):
        text = " + ".join("*".join(t.split("*")) for t in _TEXT.split(" + "))
    x = _BIG
    for _ in range(96):
        x = (x * 12345 + 7) % (_BIG + 11)
    stack, visited = [(0, 0)], 0
    while stack:
        depth, width = stack.pop()
        visited += 1
        if depth < 14:
            stack.append((depth + 1, width))
            if depth % 3 == 0:
                stack.append((depth + 2, width + 1))
    return len(out) + len(text) + visited + p.a + x % 2


def reference_seconds():
    """Time one run of the reference work."""
    start = perf_counter()
    _work()
    return perf_counter() - start
