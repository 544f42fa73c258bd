"""Bookkeeping for the benchmark that needs no training: epoch-time
statistics, time to target, failure accounting, trace fingerprints and the
count-repeat check.

Nothing here imports numpy or admmnet, so the self-tests in
``test_harness.py`` run on synthetic records in well under a second.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# The package asserts its majorization certificates to this tolerance.
CERT_TOL = 1e-10
# Largest Lagrangian rise tolerated on workloads whose theory makes it monotone.
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Epoch:
    """The non-timing facts about one completed epoch that the checks use.

    ``lagrangian`` is the loss for the backprop baselines, which have no
    Lagrangian; ``cert_violation`` is 0 for them, since they certify nothing.
    ``residual`` is the constraint residual the ADMM targets test.
    """

    lagrangian: float
    cert_violation: float
    residual: float
    train_acc: float
    test_acc: float


@dataclass(frozen=True)
class Target:
    """First epoch whose ``field`` reaches ``level``.

    With ``relative`` set, the level is a multiple of the epoch-1 value and
    the field must fall to it; otherwise it is absolute and must be reached
    from below.
    """

    field: str
    level: float
    relative: bool

    def describe(self) -> str:
        if self.relative:
            return f"{self.field} <= {self.level:g} x epoch 1"
        return f"{self.field} >= {self.level:g}"


class CountMismatch(AssertionError):
    """Per-epoch counts of a traced run differ from a repeat of it."""


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, sample count) of the highest nearest-rank
    percentile with at least ``beyond`` samples above it.

    With ``beyond`` samples or fewer no such percentile exists; the maximum
    is returned as the 100th percentile so that the record says so.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


def epoch_durations(call_start: float, stamps) -> list:
    """Wall time of each epoch from the trace-sink timestamps; the first
    epoch runs from the start of the training call, so it includes the
    trainer's initialization."""
    out, prev = [], call_start
    for s in stamps:
        out.append(s - prev)
        prev = s
    return out


def first_crossing(epochs, target: Target):
    """0-based index of the first epoch that meets the target, or None."""
    if not epochs:
        return None
    if target.relative:
        level = target.level * getattr(epochs[0], target.field)
        hit = lambda v: v <= level
    else:
        hit = lambda v: v >= target.level
    for i, e in enumerate(epochs):
        if hit(getattr(e, target.field)):
            return i
    return None


def failed_epochs(epochs, attempted: int, monotone: bool) -> list:
    """1-based numbers of the failed epochs among ``attempted``.

    ``epochs`` holds the epochs that completed, in order. An epoch that
    raised never completes, so it and every later epoch count as failed.
    A completed epoch fails on a non-finite Lagrangian, a certificate
    violation above CERT_TOL, or, when ``monotone``, a Lagrangian rise of
    more than MONOTONE_TOL over the previous epoch.
    """
    if len(epochs) > attempted:
        raise ValueError("more epochs completed than attempted")
    bad = []
    prev = None
    for i, e in enumerate(epochs, 1):
        if (
            not math.isfinite(e.lagrangian)
            or not e.cert_violation <= CERT_TOL
            or (monotone and prev is not None and e.lagrangian > prev + MONOTONE_TOL)
        ):
            bad.append(i)
        prev = e.lagrangian
    bad.extend(range(len(epochs) + 1, attempted + 1))
    return bad


def canonical(trace) -> tuple:
    """Every field of a trace record except its wall time, as reprs, so
    that equal tuples mean bit-identical values (NaN included)."""
    return tuple(
        (f.name, repr(getattr(trace, f.name)))
        for f in dataclasses.fields(trace)
        if f.name != "wall_time"
    )


def fingerprint(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        h.update(repr(canonical(t)).encode())
        h.update(b"\n")
    return h.hexdigest()


def first_difference(a, b):
    """1-based epoch of the first differing record over the common prefix,
    or None when the prefix agrees."""
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return i
    return None


def assert_counts_repeat(first, second) -> int:
    """Checks that two traced runs counted the same work in every epoch both
    ran; returns the number of epochs compared.

    Each argument is a list with one ``{metric: tuple of ints}`` per epoch.
    """
    n = min(len(first), len(second))
    if n == 0:
        raise CountMismatch("no epochs to compare")
    for i in range(n):
        if first[i] != second[i]:
            names = sorted(set(first[i]) | set(second[i]))
            diff = [
                f"{k}: {first[i].get(k)} vs {second[i].get(k)}"
                for k in names
                if first[i].get(k) != second[i].get(k)
            ]
            raise CountMismatch(f"epoch {i + 1}: " + "; ".join(diff))
    return n


def quartile_spread(values) -> dict:
    """Median, quartiles and (q3 - q1) / median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}
