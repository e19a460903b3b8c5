"""Parity between the pure-Python and compiled term kernels."""

import random

import pytest

from qfib import _kernels_py
from qfib._backend import BACKEND
from qfib.layered import builtin_scheme
from qfib.polyring import _zoffsets
from qfib.tiling import AppendSpec, _tile_deltas

cy = pytest.importorskip("qfib._kernels_cy", reason="compiled kernels not built")


def _random_terms(rng, k=3, size=40):
    out = {}
    offs = _zoffsets(k)
    for _ in range(size):
        key = rng.randint(0, 200)
        for off in offs:
            key += rng.randint(0, 12) << off
        coeff = rng.choice([c for c in range(-30, 31) if c])
        out[key] = coeff
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_add_sub_mul_parity(seed):
    rng = random.Random(seed)
    a = _random_terms(rng)
    b = _random_terms(rng)
    assert _kernels_py.add_terms(a, b) == cy.add_terms(a, b)
    assert _kernels_py.sub_terms(a, b) == cy.sub_terms(a, b)
    assert _kernels_py.mul_terms(a, b) == cy.mul_terms(a, b)
    assert _kernels_py.scalar_mul_terms(a, -7) == cy.scalar_mul_terms(a, -7)
    assert _kernels_py.scalar_mul_terms(a, 0) == cy.scalar_mul_terms(a, 0) == {}


def test_cancellation_parity():
    a = {10: 5, 20: -3}
    b = {10: -5, 20: 3, 30: 1}
    assert _kernels_py.add_terms(a, b) == cy.add_terms(a, b) == {30: 1}
    neg = {0: 1}
    c = {5: 2}
    d = {5: -2}
    assert _kernels_py.mul_terms(neg, _kernels_py.add_terms(c, d)) == cy.mul_terms(
        neg, cy.add_terms(c, d)
    ) == {}


@pytest.mark.parametrize("seed", [3, 4])
def test_shift_eval_parity(seed):
    rng = random.Random(seed)
    a = _random_terms(rng)
    offs = _zoffsets(3)
    shifts = tuple((off, rng.randint(1, 3)) for off in offs)
    assert _kernels_py.shift_q_terms(a, shifts) == cy.shift_q_terms(a, shifts)
    assert _kernels_py.times_q_terms(a, 9) == cy.times_q_terms(a, 9)
    zvals = (2, -1, 3)
    assert _kernels_py.eval_terms(a, offs, zvals, 2) == cy.eval_terms(a, offs, zvals, 2)


def test_sum_tilings_parity():
    w = builtin_scheme("maj-rlp", 4)
    for n in (-1, 0, 1, 7, 12):
        deltas, _, _ = _tile_deltas(max(n, 0), 4, w, AppendSpec(1, 2))
        assert _kernels_py.sum_tilings_terms(n, 4, deltas) == cy.sum_tilings_terms(
            n, 4, deltas
        )


def test_backend_selected():
    assert BACKEND in ("python", "cython")
