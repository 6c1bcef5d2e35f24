"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` (or through
`besselhr verify <suite>`, which runs the same checks one suite at a time).
The inputs and tolerances live in the registry `besselhr.invariants` and
nowhere else; each numbered entry there is one criterion here, under the
test name `test_criterion_NN_<entry name>`.  The registry's unnumbered
entries, which only `besselhr verify` reports, run in `test_verify_only`.
"""

import pytest

from besselhr import invariants

_RESULTS = []


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name} {detail}")
    _RESULTS.append((num, ok))
    assert ok, f"criterion {num} ({name}): {detail}"


def _criterion_test(inv):
    def test():
        ok, _, detail = inv.check()
        _report(inv.number, inv.title, ok, detail)

    test.__name__ = f"test_criterion_{inv.number:02d}_{inv.name.replace('-', '_')}"
    return test


for _inv in sorted((inv for inv in invariants.REGISTRY if inv.number), key=lambda inv: inv.number):
    _test = _criterion_test(_inv)
    globals()[_test.__name__] = _test
del _inv, _test


@pytest.mark.parametrize(
    "inv",
    [inv for inv in invariants.REGISTRY if inv.number is None],
    ids=lambda inv: inv.name,
)
def test_verify_only(inv):
    ok, _, detail = inv.check()
    print(f"VERIFY {inv.suite}/{inv.name} [{'PASS' if ok else 'FAIL'}] {inv.title} {detail}")
    assert ok, f"{inv.name}: {detail}"


def test_zz_summary():
    done = {num for num, _ in _RESULTS}
    print()
    for num in sorted(done):
        oks = [ok for n2, ok in _RESULTS if n2 == num]
        print(f"criterion {num:02d}: {'PASS' if all(oks) else 'FAIL'}")
    assert done == set(range(1, 13))
