import gc
import itertools
import math
import random

import pytest

from sparsehg import canonicalize


def random_edges(rng, n, m, r=3, multi=False):
    """m random r-edges on 1..n, duplicates allowed only when multi."""
    pool = list(itertools.combinations(range(1, n + 1), r))
    if multi:
        return [list(rng.choice(pool)) for _ in range(m)]
    return [list(e) for e in rng.sample(pool, m)]


def random_hypergraph(rng, n_max=12, m_max=8, r=3, multi=False):
    n = rng.randint(r, n_max)
    m = rng.randint(1, min(m_max, math.comb(n, r)))
    return canonicalize(random_edges(rng, n, m, r, multi), n, multi=multi, r=r)


def cyclic_garbage(call) -> int:
    """The objects call() leaves that only the cyclic garbage collector
    frees: reference cycles, such as a closure that refers to itself."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def rng():
    return random.Random(20240814)


# one line per acceptance criterion, echoed after the test summary; the
# tests append detailed PASS lines themselves, the hook records failures
ACCEPTANCE_LINES: list[str] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, title): acceptance criterion with a summary line"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    n, title = marker.args
    if rep.passed:
        if not any(line.startswith(f"PASS criterion {n}:") for line in ACCEPTANCE_LINES):
            ACCEPTANCE_LINES.append(f"PASS criterion {n}: {title}")
    else:
        ACCEPTANCE_LINES.append(f"FAIL criterion {n}: {title}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
