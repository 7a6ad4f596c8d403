"""Structured pass/fail reports shared by the check suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

TOOL_VERSION = "0.1.0"

__all__ = ["TOOL_VERSION", "CheckResult", "CheckReport", "jsonable"]


def jsonable(value):
    """Recursively convert to JSON-ready types; complex becomes [re, im]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    residual: float = 0.0
    witness: str | None = None

    def to_dict(self):
        out = {"name": self.name, "status": self.status, "residual": self.residual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    params: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    tool_version: str = TOOL_VERSION

    def add(self, name, ok, residual=0.0, witness=None):
        self.checks.append(CheckResult(name, "pass" if ok else "fail",
                                       float(residual), witness))

    def skip(self, name, witness=None):
        self.checks.append(CheckResult(name, "skipped", 0.0, witness))

    def extend(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.status, c.residual, c.witness))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def overall(self):
        return "pass" if self.passed else "fail"

    def max_residual(self):
        return max((c.residual for c in self.checks if c.status != "skipped"), default=0.0)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self):
        return {
            "tool_version": self.tool_version,
            "params": jsonable(self.params),
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c.status]
            line = f"[{mark}] {c.name}  residual={c.residual:.17g}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
        lines.append(f"overall: {self.overall}")
        return lines
