"""Validation reports shared across the package.

A report either passes, fails with tagged violations (the tag names the
first broken axiom, e.g. "M5c" or "2Ma", together with a rational witness
when one exists), or carries `undecided` notes for properties that a word
bound was too small to settle.  Undecided is never conflated with failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import AffineMap


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    witness: object = None

    def __str__(self):
        w = f" at witness {self.witness}" if self.witness is not None else ""
        return f"[{self.code}] {self.message}{w}"


@dataclass
class Report:
    subject: str
    violations: list = field(default_factory=list)
    undecided: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def decided(self) -> bool:
        return not self.undecided

    def fail(self, code: str, message: str, witness=None):
        self.violations.append(Violation(code, message, witness))

    def note_undecided(self, message: str):
        self.undecided.append(message)

    def absorb(self, other: "Report"):
        self.violations.extend(other.violations)
        self.undecided.extend(other.undecided)

    def first(self):
        return self.violations[0] if self.violations else None

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationFailure(self)

    def summary(self) -> str:
        if self.ok and self.decided:
            return f"{self.subject}: pass"
        if self.ok:
            return f"{self.subject}: pass (undecided: {'; '.join(self.undecided)})"
        return f"{self.subject}: FAIL {self.first()}"

    def to_json(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [
                {"code": v.code, "message": v.message, "witness": _wjson(v.witness)}
                for v in self.violations
            ],
            "undecided": list(self.undecided),
        }


def _wjson(w):
    """A witness as JSON: rationals as canonical "p/q" strings at any depth,
    tuples as lists, affine maps as their matrix and offset."""
    if w is None:
        return None
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    if isinstance(w, (tuple, list)):
        return [_wjson(x) for x in w]
    if isinstance(w, AffineMap):
        return {"matrix": _wjson(w.matrix), "offset": _wjson(w.offset)}
    return str(w)


class ValidationFailure(Exception):
    def __init__(self, report: Report):
        super().__init__(report.summary())
        self.report = report


class UndecidedError(Exception):
    """A verdict could not be reached within the configured word bound."""


class ComposabilityError(Exception):
    pass


class ClosureOverflowError(Exception):
    """The bounded pseudogroup closure exceeded the configured family cap."""
