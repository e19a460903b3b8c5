"""Exception types shared across the package.

Everything raised on bad input derives from QfibError so the CLI can map
library failures onto its usage exit code in one place.
"""


class QfibError(Exception):
    """Base class for all qfib errors."""


class RingMismatchError(QfibError, ValueError):
    """Two polynomials from rings with different numbers of z variables."""


class CapacityError(QfibError, OverflowError):
    """An exponent would overflow its field in the packed term key."""


class InvalidShiftError(QfibError, ValueError):
    """A z -> z*q^e substitution with a negative exponent."""


class PolyParseError(QfibError, ValueError):
    """Syntax error in the polynomial text grammar."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PolyJsonError(QfibError, ValueError):
    """A JSON polynomial that is not in the term form Poly.to_json_dict writes."""


class DomainError(QfibError, ValueError):
    """Arguments outside an operation's mathematical domain."""


class UnsupportedSchemeError(QfibError, ValueError):
    """A statistic/family pair that has no tile-local weight scheme."""


class SizeLimitError(QfibError, ValueError):
    """A desk-scale guard in LIMITS was exceeded."""


# Every desk-scale guard; exceeding one raises SizeLimitError (CLI exit 2).
# Costs are single calls on a 2-vCPU host.
LIMITS = {
    # table/enumerate --n, verify --max-n, det's n + 2k - 2: enumeration
    # visits all F_n tilings (table --n 20 --k 20 takes 0.17-0.22 s in-process
    # for maj-lp, maj-rlp and generic:0,1,0).
    "board": 20,
    # --k on every verb.  No accepted board holds a longer tile; table --n 10
    # gives the same polynomial in 6 ms at k = 20 and 0.47 s at k = 1000.
    "k": 20,
    # validate-scheme --max-n: 2k * max_n^3 checks, one string per violation.
    # A corrupted k = 20 scheme takes 0.7 s, 56 MB at 20; 2.7 s, 150 MB at 30.
    "validate_max_n": 20,
    # det --k, verify det, lattice.determinant: 2^dim minors.  With
    # q-packed arithmetic det --n 6 --k 6 takes 7-11 s for maj-rlp and
    # 24-34 s for inv-prlp, whose 1.0M-term result takes about 4 s to print.
    "det_dim": 6,
    # verify and validate-scheme --random-schemes: every scheme is built up
    # front (about 2 KB each) and verified in turn.  The cheapest verify
    # (--identity det --k 2 --max-n 1) takes 0.27 s at 1000, 2.6 s at 10000.
    "random_schemes": 1000,
    "sign_k": 5,  # lattice.miles_sign_check
    "path_vertex": 24,  # lattice.enumerate_noncrossing_tuples
    "expr_len": 200,  # generic: expression characters; bounds its tree depth
}
