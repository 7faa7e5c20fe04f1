"""Closed forms that share no code with the engine, at sizes past the oracle.

Khovanov (*A categorification of the Jones polynomial*, 2000) computes the
homology of the (2, n) torus link outright.  Normalized, its integral table
is

* H^(0, n-2) = H^(0, n) = Z;
* for 1 <= k <= (n-1)//2: H^(2k, 4k+n-2) = Z, H^(2k+1, 4k+n) = Z/2 and
  H^(2k+1, 4k+n+2) = Z;
* for even n, also H^(n, 3n-2) = H^(n, 3n) = Z;

and every other group is zero.
"""

import pytest

from khoma.diagram import torus_word
from khoma.homology import homology

Z = (1, ())
Z2 = (0, (2,))


def torus_2n_table(n):
    """Khovanov's table of T(2, n) as {(i, j): (rank, torsion)}."""
    table = {(0, n - 2): Z, (0, n): Z}
    for k in range(1, (n - 1) // 2 + 1):
        table[(2 * k, 4 * k + n - 2)] = Z
        table[(2 * k + 1, 4 * k + n)] = Z2
        table[(2 * k + 1, 4 * k + n + 2)] = Z
    if n % 2 == 0:
        table[(n, 3 * n - 2)] = Z
        table[(n, 3 * n)] = Z
    return table


def test_closed_form_spelled_out_for_the_trefoil():
    assert torus_2n_table(3) == {
        (0, 1): Z, (0, 3): Z, (2, 5): Z, (3, 7): Z2, (3, 9): Z,
    }


@pytest.mark.parametrize("n", range(2, 13))
def test_torus_2n_matches_khovanov_closed_form(n):
    table = homology(torus_word(2, n))
    assert table.normalized
    got = {
        key: (g.rank, g.torsion) for key, g in table.groups.items() if not g.is_trivial
    }
    assert got == torus_2n_table(n)
