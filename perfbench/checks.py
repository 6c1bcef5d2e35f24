"""Correctness checks and the bookkeeping of failed operations.

Every check reduces to a ratio |difference| / budget; a ratio above 1 (or
not a number) fails.  The worst ratio of each family is printed next to the
timings as accuracy information.  Budgets:

* closed form  max(1e-9 * scale, 2 * err): scale is |reference|, or for a
  kernel the summed magnitude of its sign-vector terms (the sum cancels);
  err is the error the evaluator reported.
* pairwise     max(1e-7 * max(|a|, |b|), 2 * (err_a + err_b)) for two routes
  at one point (the acceptance suite's criterion 6 budget).
* summed       err_a + err_b: the kernel against mb_kernel_est, the direct
  kernel contour integral.
* bound        tail_bound / (tol * |value|): a series result must certify
  the relative tolerance it was asked for.
* vanishing    |value| / err: where the kernel vanishes identically the
  value must lie inside its own error bar.
* fe           max_rel_error / fe_tol of a functional-equation report, which
  must also say passed.
* exit         0 for exit code 0, infinite otherwise.
* repeat       0 when a fixed subset of items, evaluated once more after the
  timed round, returns the first round's values bit for bit, infinite
  otherwise (summation orders are fixed).
* raised       infinite for an operation that raised, unless it is one of
  the known faults the benchmark keeps (workloads.KNOWN_FAULTS).
"""

from __future__ import annotations

import math

CLOSED_REL = 1e-9
PAIR_REL = 1e-7


def closed_form(got: complex, err: float, want: complex, scale: float | None = None) -> float:
    s = abs(want) if scale is None else scale
    return abs(got - want) / max(CLOSED_REL * s, 2.0 * err, 1e-300)


def pairwise(a: complex, err_a: float, b: complex, err_b: float) -> float:
    budget = max(PAIR_REL * max(abs(a), abs(b)), 2.0 * (err_a + err_b), 1e-300)
    return abs(a - b) / budget


def summed_errors(a: complex, err_a: float, b: complex, err_b: float) -> float:
    return abs(a - b) / max(err_a + err_b, 1e-300)


def bound(tail: float, value: complex, tol: float) -> float:
    return tail / max(tol * abs(value), 1e-300)


def vanishing(value: complex, err: float) -> float:
    return abs(value) / max(err, 1e-300)


def fe_report(passed: bool, max_rel: float, fe_tol: float) -> float:
    return max_rel / fe_tol if passed else math.inf


def exit_code(code: int) -> float:
    return 0.0 if code == 0 else math.inf


def repeat(first: complex, later: complex) -> float:
    return 0.0 if first == later else math.inf


class Checker:
    """Collects check ratios by family and the operations they fail."""

    def __init__(self):
        self.worst = {}
        self.counts = {}
        self.failures = []  # (family, operation label, ratio)

    def record(self, family: str, ratio: float, label: str) -> bool:
        ok = ratio <= 1.0  # False for nan
        self.counts[family] = self.counts.get(family, 0) + 1
        shown = math.inf if math.isnan(ratio) else ratio
        self.worst[family] = max(self.worst.get(family, 0.0), shown)
        if not ok:
            self.failures.append((family, label, ratio))
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            fam: {"checks": self.counts[fam], "worst_ratio": self.worst[fam]}
            for fam in sorted(self.counts)
        }
