"""Four-valued verdicts for finite-horizon checks of asymptotic properties.

Every property that is really a statement about infinite data (density,
recurrence type, divergence of the kneading map, ...) is reported through a
:class:`Verdict` rather than a bare boolean:

* ``certified`` -- the statement holds and a finite certificate proves it;
* ``refuted``   -- a finite counterexample witness was found;
* ``evidence``  -- consistent with the data up to the stated depth/epsilon;
* ``undetermined`` -- the data does not support either direction.

Verdicts carry the identifier of the rule that produced them and a witness
dictionary, so reports can be audited without re-running the computation.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

CERTIFIED = "certified"
REFUTED = "refuted"
EVIDENCE = "evidence"
UNDETERMINED = "undetermined"

_STATUSES = (CERTIFIED, REFUTED, EVIDENCE, UNDETERMINED)


def approx(value, digits: int = 17) -> str:
    """Short decimal rendering of a rational for witness payloads.

    Exact fractions from long certified orbits can have denominators far
    beyond any printing limit; witnesses only need a human-scale value.
    The decimal exponent comes from the bit lengths, so the cost does not
    grow with it.
    """
    value = Fraction(value)
    n, d = abs(value.numerator), value.denominator
    if not n:
        return "0"
    sign = "-" if value.numerator < 0 else ""
    exp = math.floor((n.bit_length() - d.bit_length()) * math.log10(2))
    while True:                         # until 10^exp <= n/d < 10^(exp + 1)
        shift = digits - exp
        scaled = n * 10 ** shift // d if shift >= 0 else n // (d * 10 ** -shift)
        if scaled < 10 ** digits:
            exp -= 1
        elif scaled >= 10 ** (digits + 1):
            exp += 1
        else:
            break
    mantissa = f"{scaled:0{digits + 1}d}"
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{exp:+d}"


def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator.bit_length() > 256 or \
                value.numerator.bit_length() > 256:
            return {"approx": approx(value)}
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    depth: int | None = None
    epsilon: Fraction | None = None
    witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")

    @property
    def is_certified(self):
        return self.status == CERTIFIED

    @property
    def is_refuted(self):
        return self.status == REFUTED

    @property
    def is_positive(self):
        """Certified or evidence-level support."""
        return self.status in (CERTIFIED, EVIDENCE)

    def to_json(self):
        out = {"status": self.status, "rule": self.rule}
        out["depth"] = self.depth
        out["epsilon"] = _jsonable(self.epsilon)
        out["witness"] = _jsonable(self.witness)
        return out

    def __str__(self):
        bits = [self.status, f"rule={self.rule}"]
        if self.depth is not None:
            bits.append(f"depth={self.depth}")
        if self.epsilon is not None:
            bits.append(f"eps={self.epsilon}")
        if self.witness:
            bits.append(f"witness={self.witness}")
        return "Verdict(" + ", ".join(bits) + ")"


def certified(rule, depth=None, epsilon=None, **witness):
    return Verdict(CERTIFIED, rule, depth, epsilon, witness)


def refuted(rule, depth=None, epsilon=None, **witness):
    return Verdict(REFUTED, rule, depth, epsilon, witness)


def evidence(rule, depth=None, epsilon=None, **witness):
    return Verdict(EVIDENCE, rule, depth, epsilon, witness)


def undetermined(rule, reason, depth=None, epsilon=None, **witness):
    witness = dict(witness)
    witness["reason"] = reason
    return Verdict(UNDETERMINED, rule, depth, epsilon, witness)
