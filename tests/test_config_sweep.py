"""Correct code on a seeded sweep of regular configurations.

Twenty configurations are drawn once from ``default_rng(123)``, each in this
order: a from U(-1, 1)^4, b = a + (U(1, 3), U(-0.5, 0.5)^3), m = 10^U(-1, 1),
hbar_tilde = 10^U(-2, 1), sigma2_0 from {-0.1, 0.2, 0.5, 1.5} and N from
{4000, 10 000, 20 000}.  One whose D(C*) = 1 + 2 sigma2_0 C* falls under 0.2
is skipped.  Each of the others runs ``checks.verify_suite`` in-process, and
every check must pass except the pinned failures, each of which has an open
cause.  A mend or a new failure changes the set, and the test shows it.
"""

import numpy as np
import pytest

from waveline import checks
from waveline.config import RunConfig
from waveline.phase_flow import denominator


def draw(count=20, seed=123):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        a = rng.uniform(-1.0, 1.0, 4)
        b = a + np.concatenate([rng.uniform(1.0, 3.0, 1), rng.uniform(-0.5, 0.5, 3)])
        m = 10.0 ** rng.uniform(-1.0, 1.0)
        hbar_tilde = 10.0 ** rng.uniform(-2.0, 1.0)
        sigma2_0 = float(rng.choice([-0.1, 0.2, 0.5, 1.5]))
        n = int(rng.choice([4000, 10_000, 20_000]))
        configs.append(RunConfig(a=tuple(a.tolist()), b=tuple(b.tolist()), m=m,
                                 hbar_tilde=hbar_tilde, sigma2_0=sigma2_0, N=n).validate())
    return configs


CONFIGS = draw()
SKIPPED = [8]  # D(C*) under 0.2

# phase_trajectory_independence holds an O(dc^2) spread to a fixed 1e-8; at
# N = 4000 and C* from 3.6 to 7 the spread reads 4.8e-8 to 1.1e-7.
# lambda_worldline_independence_order's floor of 2.0 is the exact order it
# fits, and the fit reads 1.99 here, approaching 2 from below.
FAILING = {
    14: {"phase_trajectory_independence"},
    16: {"phase_trajectory_independence"},
    17: {"phase_trajectory_independence"},
    18: {"lambda_worldline_independence_order"},
}


def test_skipped_configs_sit_near_the_pole():
    near = [k for k, cfg in enumerate(CONFIGS) if denominator(cfg.sigma2_0, cfg.run_duration()) < 0.2]
    assert near == SKIPPED


@pytest.mark.parametrize("index", [k for k in range(len(CONFIGS)) if k not in SKIPPED])
def test_only_the_pinned_checks_fail(index):
    result = checks.verify_suite(CONFIGS[index])
    assert len(result.checks) == 20
    assert {c.name for c in result.checks if not c.passed} == FAILING.get(index, set())
