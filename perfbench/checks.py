"""Output checkers, one per operation kind.

Each checker takes the expected answer (from ``gen``) and what the library
returned, and gives ``None`` when the output is correct or a one-line
reason when it is not.  Every reason counts the operation as failed.
"""

from __future__ import annotations


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def equal(expected, got, what: str) -> str | None:
    if expected == got:
        return None
    return f"{what}: expected {_short(expected)}, got {_short(got)}"


def category(report) -> str | None:
    """fuzzy-category: every law holds and every law was checked at least once."""
    if not report.all_pass:
        return f"laws fail: {[law.law for law in report.laws if not law.holds]}"
    unchecked = [law.law for law in report.laws if law.checked <= 0]
    return f"laws never checked: {unchecked}" if unchecked else None


def axioms(expected_checks: int, report) -> str | None:
    """verify_axioms: all laws hold over every element tuple."""
    if not report.all_pass:
        return "axiom report does not pass"
    return equal(expected_checks, sum(c.checked for c in report.checks), "law checks")


def isos(expected, mappings) -> str | None:
    """find_isos: the known isomorphism is found, every reported map
    preserves every relation kind (by the reference tables), none repeats,
    and high-symmetry fragments yield exactly their known count."""
    known, t1, t2, count = expected
    mappings = [tuple(m) for m in mappings]
    if known not in mappings:
        return f"known isomorphism {known} missing from {len(mappings)} found"
    if len(set(mappings)) != len(mappings):
        return "an isomorphism is reported twice"
    n = len(known)
    for m in mappings:
        if sorted(m) != list(range(n)) or any(
            t1[i][j] != t2[m[i]][m[j]] for i in range(n) for j in range(n)
        ):
            return f"{m} does not preserve the relation table"
    if count is not None and len(mappings) != count:
        return f"expected {count} isomorphisms, got {len(mappings)}"
    return None


def cli(expected_code: int, code: int, stdout: str, stderr: str,
        previous: str | None, reference: str | None) -> str | None:
    """One CLI run: exit code, no traceback, stdout stable across repeats
    and, where given, equal to the documented output."""
    if "Traceback" in stderr:
        return f"traceback on stderr (exit {code}): {stderr.strip().splitlines()[-1]}"
    if code != expected_code:
        return f"exit {code}, expected {expected_code}: {stderr.strip()[-200:]}"
    if previous is not None and stdout != previous:
        return "stdout differs from an earlier run of the same operation"
    if reference is not None and stdout.rstrip("\n").splitlines() != reference.splitlines():
        return "stdout differs from the README"
    return None
