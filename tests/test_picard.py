"""The shared Picard driver.

Proves:
  1.  on the affine contraction g <- 0.5 g + 1 from 0, iterate stops at the
      first update of size at most tol and reports the exact iteration
      count, the fixed point and a worst contraction ratio of exactly 0.5
  2.  an exhausted iteration budget raises ConvergenceError naming the
      solve
  3.  an update that writes into its input and returns it, or returns the
      buffer it returned before, raises ValueError instead of reading as a
      zero step and stopping after one update
"""

import numpy as np
import pytest

from vslcontrol import ConvergenceError, PicardSettings
from vslcontrol.picard import iterate


def halve_and_add_one(g):
    return 0.5 * g + 1.0


def test_affine_contraction():
    # g_k = 2 - 2^(1-k) exactly, so update k moves g by 2^(1-k): the first
    # update at most 1e-10 is k = 35 (2^-34 = 5.8e-11 > 2^-33.2 = 1e-10)
    g, iterations, worst_ratio = iterate(halve_and_add_one, np.zeros(3),
                                         PicardSettings(tol=1e-10), "affine map")
    assert iterations == 35
    np.testing.assert_array_equal(g, np.full(3, 2.0 - 2.0 ** -34))
    assert worst_ratio == 0.5


def test_exhausted_budget_names_the_solve():
    with pytest.raises(ConvergenceError,
                       match=r"^affine map did not converge in 2 iterations$"):
        iterate(halve_and_add_one, np.zeros(1), PicardSettings(max_iter=2), "affine map")


def test_aliased_update_raises():
    calls = []

    def in_place(g):
        calls.append(1)
        g *= 0.5
        g += 1.0
        return g

    with pytest.raises(ValueError, match="^affine map: the update returned memory it was passed$"):
        iterate(in_place, np.zeros(3), PicardSettings(), "affine map")
    assert len(calls) == 1

    out = np.empty(3)

    def one_buffer(g):
        return np.add(0.5 * g, 1.0, out=out)

    with pytest.raises(ValueError, match="returned memory it was passed"):
        iterate(one_buffer, np.zeros(3), PicardSettings(), "affine map")
