"""Check results, run reports, and deterministic serialization.

Reports are written so that re-running the same configuration produces a
byte-identical run_report.json: the wall-clock time is only echoed to the
terminal, never kept on the report.
"""

import json
import math
from pathlib import Path

from .values import REQUIRED, Record


class CheckResult(Record):
    """One named pass/fail measurement against its threshold.

    ``margin`` says how close the value came to its bound, 1 or less being
    inside it (nan when there is none); it is printed on the check's line
    but not serialized.
    """

    FIELDS = {
        **dict.fromkeys(("name", "passed", "value", "tolerance"), REQUIRED),
        "detail": "",
        "margin": math.nan,
    }
    __slots__ = tuple(FIELDS)

    @property
    def status(self):
        return "pass" if self.passed else "fail"

    def as_dict(self):
        d = {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "tolerance": self.tolerance,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def margin_ratio(num, den):
    """``num / den`` as a margin: a positive bound over a value at or below 0 is inf."""
    return float(num) / float(den) if not den <= 0 else math.inf


def threshold_check(name, value, tolerance, detail=""):
    """CheckResult that passes when value <= tolerance; its margin is value/tolerance."""
    return CheckResult(
        name=name, passed=bool(value <= tolerance), value=float(value),
        tolerance=float(tolerance), detail=detail, margin=margin_ratio(value, tolerance),
    )


def floor_check(name, value, floor, detail=""):
    """CheckResult that passes when value >= floor (e.g. orders); its margin is floor/value."""
    return CheckResult(
        name=name, passed=bool(value >= floor), value=float(value),
        tolerance=float(floor), detail=detail or "passes at or above the threshold",
        margin=margin_ratio(floor, value),
    )


def window_check(name, value, lo, hi, detail=""):
    """CheckResult that passes when lo <= value <= hi; margin the larger of lo/value, value/hi."""
    return CheckResult(
        name=name, passed=bool(lo <= value <= hi), value=float(value),
        tolerance=float(hi), detail=detail or f"expected within [{lo:g}, {hi:g}]",
        margin=max(margin_ratio(lo, value), margin_ratio(value, hi)),
    )


def failed_check(name, exc):
    """CheckResult recording that a check raised instead of measuring."""
    return CheckResult(
        name=name, passed=False, value=float("nan"), tolerance=float("nan"),
        detail=f"{type(exc).__name__}: {exc}",
    )


class RunReport(Record):
    FIELDS = dict.fromkeys(("command", "config", "checks"), REQUIRED)
    __slots__ = tuple(FIELDS)

    @property
    def overall(self):
        return "pass" if all(c.passed for c in self.checks) else "fail"

    def as_json_dict(self):
        return {
            "command": self.command,
            "overall": self.overall,
            "checks": [c.as_dict() for c in self.checks],
            "config": self.config,
        }


def format_check_line(check):
    tol = "" if check.tolerance != check.tolerance else f"  tol={check.tolerance:.6g}"
    val = "nan" if check.value != check.value else f"{check.value:.6g}"
    line = f"[{check.status.upper():4s}] {check.name}  value={val}{tol}"
    if check.margin == check.margin:
        line += f"  margin={check.margin:.3g}"
    if check.detail:
        line += f"  ({check.detail})"
    return line


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def write_csv(path, header, rows):
    """CSV of numbers with full float round-trip precision via repr.

    Every cell is a Python ``int`` or ``float`` (a numpy scalar's repr is
    ``np.float64(...)``, so payloads hold Python scalars), and each row is
    one ``repr`` join ending in CRLF.  Header names are plain identifiers,
    so no field needs quoting.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
