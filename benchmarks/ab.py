"""In-process A/B timing of two callables.

:func:`alternate` runs two callables in turns, flipping which one runs first
on each repetition, so that drift in the machine's speed (another process, a
clock change, a cache warmed by the first call) falls on both sides alike.
Each repetition gives one sample per side, the mean time of ``number`` calls,
and the two samples of a repetition form a pair that the faster side wins.

Example, timing one step of two gradient estimators built on the same draws::

    import sys; sys.path.insert(0, "benchmarks")
    from ab import alternate

    grad_a(theta, rng_a); grad_b(theta, rng_b)  # warm both up first
    result = alternate(lambda: grad_a(theta, rng_a), lambda: grad_b(theta, rng_b),
                       reps=10, number=200)
    print(result["a"]["median"], result["b"]["median"], result["b"]["wins"])

Repetitions are in one process, so both sides share its memory and caches;
compare processes with perfbench instead.

:func:`load_checkout` loads another checkout's ``dualalp`` beside the one this
process imports, so that :func:`alternate` can time the two versions of a
function in one process::

    parent = load_checkout("/path/to/parent/src")
    step_a = parent["dualalp._sgd"].make_buffered_step(...)  # on parent objects
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

PACKAGE = "dualalp"


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def load_checkout(src_dir) -> dict:
    """Import every module of the ``dualalp`` package under ``src_dir`` (a
    checkout's ``src``) and return them by name (``"dualalp"``,
    ``"dualalp._sgd"``, ...). The caller's ``sys.modules`` entries of the
    package are put back afterwards, so its own imports resolve as before.
    The two copies do not mix: no module of the package imports from the
    package inside a function, so the loaded modules bind each other's names
    at import, and objects built from one copy go to that copy's functions.
    Only what is pickled (a forked pool's results, a producer's error) comes
    back as the caller's classes."""
    src = str(Path(src_dir).resolve())
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        for path in sorted(Path(src, PACKAGE).glob("*.py")):
            importlib.import_module(PACKAGE if path.stem == "__init__"
                                    else f"{PACKAGE}.{path.stem}")
        loaded = _package_modules()
    finally:
        sys.path.remove(src)
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return loaded


def _summary(samples: list[float], wins: int) -> dict:
    """Samples, median and quartiles (inclusive method), and pairs won."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"samples": samples, "median": median, "q1": q1, "q3": q3, "wins": wins}


def alternate(a: Callable[[], object], b: Callable[[], object], reps: int = 10,
              number: int = 1, timer: Callable[[], float] = time.perf_counter) -> dict:
    """Time ``a`` and ``b`` in ``reps`` alternating repetitions: a first on even
    repetitions, b first on odd ones. Each sample is the mean seconds per call
    over ``number`` calls in a row. Returns ``{"a": ..., "b": ...}``, each with
    its samples in repetition order, their median, q1 and q3, and ``wins``,
    the repetitions whose sample was strictly below the other side's (a tie
    counts for neither)."""
    if reps < 1 or number < 1:
        raise ValueError(f"reps and number must be positive, got {reps} and {number}")
    sides = {"a": a, "b": b}
    samples: dict[str, list[float]] = {"a": [], "b": []}
    for rep in range(reps):
        for name in ("a", "b") if rep % 2 == 0 else ("b", "a"):
            call = sides[name]
            start = timer()
            for _ in range(number):
                call()
            samples[name].append((timer() - start) / number)
    a_wins = sum(x < y for x, y in zip(samples["a"], samples["b"]))
    b_wins = sum(y < x for x, y in zip(samples["a"], samples["b"]))
    return {"a": _summary(samples["a"], a_wins), "b": _summary(samples["b"], b_wins)}
