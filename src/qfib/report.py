"""Pass/fail reports for symbolic identity checks."""

import json
from dataclasses import dataclass

from .polyring import Poly, diff_witness


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact polynomial identity check.

    passed is True iff lhs == rhs exactly; otherwise witness names the first
    differing monomial (in canonical term order) with both coefficients.  A
    passing report holds one polynomial for both sides (rhs is lhs), so a
    verified identity keeps no second copy; a failing one keeps both.
    """

    identity: str
    params: dict
    lhs: Poly
    rhs: Poly
    passed: bool
    witness: str | None

    @classmethod
    def compare(cls, identity: str, params: dict, lhs: Poly, rhs: Poly) -> "IdentityReport":
        witness = diff_witness(lhs, rhs)
        if witness is None:
            rhs = lhs  # equal, and Poly is immutable
        return cls(identity, dict(params), lhs, rhs, witness is None, witness)

    def describe(self) -> str:
        bits = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        tail = "pass" if self.passed else f"FAIL ({self.witness})"
        return f"{self.identity} {bits}: {tail}"

    def to_json(self) -> str:
        return json_object(
            {
                "identity": self.identity,
                "params": {k: self.params[k] for k in sorted(self.params)},
                "verdict": "pass" if self.passed else "fail",
                "witness": self.witness,
                "lhs": self.lhs,
                "rhs": self.rhs,
            }
        )

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())


def json_object(fields: dict) -> str:
    """fields as one JSON object, in the text json.dumps writes: Poly
    values through Poly.to_json, once per object (a passing report's lhs is
    its rhs), the others through json.dumps."""
    texts = {}
    for v in fields.values():
        if isinstance(v, Poly) and id(v) not in texts:
            texts[id(v)] = v.to_json()
    items = ", ".join(
        f"{json.dumps(key)}: {texts[id(v)] if isinstance(v, Poly) else json.dumps(v)}"
        for key, v in fields.items()
    )
    return f"{{{items}}}"
