"""Suite reports: line-oriented text plus a structured (JSON-ready) form.

Every verification suite emits one record per member and check.  A record
with ``passed = None`` is informational (measured data with nothing
asserted).  Aggregation is order-independent: records are sorted by term and
check name before rendering.  The text has one renderer, :func:`report_text`,
which reads only the structured form, so both forms hold the same facts.
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

    def line(self) -> str:
        return _record_line(self.as_dict())

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
        if by:  # a counter appears only once it counts something
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
        return report_text(self.as_dict(), verbose=False).partition("\n")[0]

    def to_text(self, verbose: bool = True) -> str:
        return report_text(self.as_dict(), verbose)

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


def _record_line(record: dict) -> str:
    passed = record["passed"]
    parts = ["info" if passed is None else "PASS" if passed else "FAIL",
             record["check"], record["term"]]
    if record["detail"]:
        parts.append(record["detail"])
    return " ".join(parts)


def report_text(report: dict, verbose: bool = True) -> str:
    """The text of a suite report from its :meth:`SuiteReport.as_dict` form:
    a summary line, then every record, or only the failures unless
    ``verbose``, in term/check order."""
    bits = [f"suite {report['suite']}"]
    if report["params"]:
        bits.append("(" + ", ".join(f"{k}={v}" for k, v in sorted(report["params"].items())) + ")")
    bits.append(f"{report['passed']} passed, {report['failed']} failed"
                + (f", {report['info']} informational" if report["info"] else ""))
    if report["counters"]:
        bits.append("[" + ", ".join(f"{k}={v}" for k, v in sorted(report["counters"].items())) + "]")
    records = [r for r in report["records"] if verbose or r["passed"] is False]
    return "\n".join([" ".join(bits), *map(_record_line, records)])
