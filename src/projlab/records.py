"""Named scalar results with parameter provenance, JSON/CSV emission.

Every sweep or verification run produces an `ExperimentRecord`: a name, the
flat parameter map, the flat result map, and a list of assertions.  Hard
assertions (status pass/fail) decide process exit codes; soft-report entries
carry measured constants for bounds whose absolute constants are not pinned.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class Assertion:
    name: str
    status: str  # "pass" | "fail" | "soft-report"
    measured: float
    threshold: float


@dataclass
class ExperimentRecord:
    name: str
    params: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    assertions: list[Assertion] = field(default_factory=list)

    def check(self, name: str, ok: bool, measured: float, threshold: float) -> None:
        """Record a hard assertion; the caller decides whether to raise."""
        self.assertions.append(
            Assertion(name, "pass" if ok else "fail", float(measured), float(threshold))
        )

    def soft(self, name: str, measured: float, threshold: float) -> None:
        self.assertions.append(
            Assertion(name, "soft-report", float(measured), float(threshold))
        )

    @property
    def failed(self) -> bool:
        return any(a.status == "fail" for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "results": self.results,
            "assertions": [asdict(a) for a in self.assertions],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def flat(self) -> dict:
        """One flat row: params and results prefixed, assertion statuses."""
        row: dict = {"name": self.name}
        for k, v in self.params.items():
            row[f"param.{k}"] = v
        for k, v in self.results.items():
            row[f"result.{k}"] = v
        for a in self.assertions:
            row[f"assert.{a.name}"] = a.status
            row[f"assert.{a.name}.measured"] = a.measured
        return row


_ASSERTION_FIELDS = ("name", "status", "measured", "threshold")


def record_from_dict(d) -> ExperimentRecord:
    """The record whose `as_dict` is `d`.  Raises ValueError unless `d` is a
    dict with a string name, dicts of params and results, and a list of
    dicts that each hold every `Assertion` field."""
    if not isinstance(d, dict) or not isinstance(d.get("name"), str):
        raise ValueError("not an experiment record: no string 'name'")
    params, results = d.get("params", {}), d.get("results", {})
    if not isinstance(params, dict) or not isinstance(results, dict):
        raise ValueError("not an experiment record: 'params' or 'results' is not an object")
    assertions = d.get("assertions", [])
    if not isinstance(assertions, list) or not all(
        isinstance(a, dict) and set(_ASSERTION_FIELDS) <= a.keys() for a in assertions
    ):
        raise ValueError("not an experiment record: an assertion lacks a field")
    rec = ExperimentRecord(d["name"], dict(params), dict(results))
    rec.assertions = [Assertion(*(a[k] for k in _ASSERTION_FIELDS)) for a in assertions]
    return rec


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    s = str(v)
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def records_to_csv(records: list[ExperimentRecord], stream) -> None:
    """Flatten records to CSV with a stable (sorted) column order; cells for
    keys a record lacks are left blank."""
    rows = [r.flat() for r in records]
    cols = sorted({k for row in rows for k in row})
    stream.write(",".join(map(_csv_cell, cols)) + "\n")
    for row in rows:
        stream.write(",".join(_csv_cell(row.get(c)) for c in cols) + "\n")
