"""Suite reports: line-oriented text plus a structured (JSON-ready) form.

Every verification suite emits one record per member and check.  A record
with ``passed = None`` is informational (measured data with nothing
asserted).  Aggregation is order-independent: records are sorted by term and
check name before rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    term: str
    check: str
    passed: bool | None
    detail: str = ""
    data: dict = field(default_factory=dict)

    def status(self) -> str:
        if self.passed is None:
            return "info"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        parts = [self.status(), self.check, self.term]
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)

    def as_dict(self) -> dict:
        return {
            "term": self.term,
            "check": self.check,
            "passed": self.passed,
            "detail": self.detail,
            "data": self.data,
        }


@dataclass
class SuiteReport:
    suite: str
    params: dict = field(default_factory=dict)
    records: list[CheckRecord] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def add(self, term: str, check: str, passed: bool | None, detail: str = "", **data):
        self.records.append(CheckRecord(term, check, passed, detail, data))

    def bump(self, counter: str, by: int = 1):
        self.counters[counter] = self.counters.get(counter, 0) + by

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.passed is False]

    @property
    def ok(self) -> bool:
        return not self.failures

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: (r.term, r.check))

    def counts(self) -> tuple[int, int, int]:
        """The numbers of passed, failed and informational records."""
        passed = sum(1 for r in self.records if r.passed is True)
        info = sum(1 for r in self.records if r.passed is None)
        return passed, len(self.failures), info

    def summary(self) -> str:
        passed, failed, info = self.counts()
        bits = [f"suite {self.suite}"]
        if self.params:
            bits.append("(" + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())) + ")")
        bits.append(f"{passed} passed, {failed} failed" + (f", {info} informational" if info else ""))
        if self.counters:
            bits.append("[" + ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items())) + "]")
        return " ".join(bits)

    def to_text(self, verbose: bool = True) -> str:
        lines = [self.summary()]
        records = self.sorted_records() if verbose else self.failures
        lines.extend(r.line() for r in records)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        passed, failed, info = self.counts()
        return {
            "suite": self.suite,
            "params": self.params,
            "ok": self.ok,
            "passed": passed,
            "failed": failed,
            "info": info,
            "counters": self.counters,
            "records": [r.as_dict() for r in self.sorted_records()],
        }
