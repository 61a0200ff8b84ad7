"""Uniform pass/fail reporting for verification checks.

Every verifier returns a Report: named lines with the two compared values.
Reports serialize to the same JSON shape everywhere so the CLI can print any
of them as json, csv or text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportLine:
    check: str
    degree: object
    lhs: object
    rhs: object
    passed: bool

    def to_json(self) -> dict:
        degree = self.degree
        if isinstance(degree, tuple):
            degree = ",".join(str(x) for x in degree)
        return {
            "check": self.check,
            "degree": degree,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


@dataclass
class Report:
    name: str
    lines: list = field(default_factory=list)

    def add(self, check: str, degree, lhs, rhs) -> None:
        self.lines.append(ReportLine(check, degree, lhs, rhs, bool(lhs == rhs)))

    @property
    def ok(self) -> bool:
        return all(line.passed for line in self.lines)

    def failures(self) -> list:
        return [line for line in self.lines if not line.passed]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": len(self.lines),
            "lines": [line.to_json() for line in self.lines],
        }

    def summary(self) -> str:
        n = len(self.lines)
        bad = len(self.failures())
        head = f"{self.name}: {n - bad}/{n} checks passed"
        if bad == 0:
            return head + " [ok]"
        lines = [head + " [FAIL]"]
        for line in self.failures()[:20]:
            j = line.to_json()
            lines.append(
                f"  FAIL {j['check']} @ {j['degree']}: {j['lhs']} != {j['rhs']}"
            )
        if bad > 20:
            lines.append(f"  ... and {bad - 20} more")
        return "\n".join(lines)
