"""What importing the package costs: the modules it loads.

Each check runs in a fresh interpreter, since the tests in this process may
already have imported the scipy modules that the package loads only when an
oracle or a study needs them.
"""

import os
import subprocess
import sys
import textwrap

import conjlogit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(conjlogit.__file__)))

# scipy subpackages the commands that fit never load
LAZY = ("scipy.stats", "scipy.integrate", "scipy.special", "scipy.optimize")


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_oracle_and_stats_modules_unloaded():
    out = run_fresh(f"""
        import sys
        import conjlogit, conjlogit.cli
        print(sorted(m for m in {LAZY!r} if m in sys.modules))
    """)
    assert out.strip() == "[]"


def test_lazily_imported_routes_run_in_a_fresh_interpreter():
    out = run_fresh("""
        import math, sys
        from conjlogit import (CheriyanRamabhadran, GammaMixture, Household,
                               IndependentGamma, Observation, quadrature_h)
        from conjlogit.oracle import cr_density
        from conjlogit.sim import bonferroni_crit

        h1 = Household("a", (Observation(1, (2,)), Observation(0, (3,))))
        h2 = Household("b", (Observation(1, (1, 2)), Observation(0, (2, 1))))
        values = [
            quadrature_h(h1, IndependentGamma((5.0,), (14.0,)), x_scale=0.01),
            quadrature_h(h1, GammaMixture(((0.3, 0.7),), ((2.0, 5.0),), ((3.0, 14.0),)),
                         x_scale=0.01),
            quadrature_h(h2, CheriyanRamabhadran(1.0, 1.5, 2.0), x_scale=0.1),
            cr_density(1.0, 2.0, CheriyanRamabhadran(1.0, 1.5, 2.0)),
        ]
        assert all(0.0 < v < math.inf for v in values), values
        assert 3.16 < bonferroni_crit(0.05, 12, 24) < 3.17
        print("scipy.integrate" in sys.modules, "scipy.stats" in sys.modules)
    """)
    # the oracles loaded scipy.integrate; the critical value needed no scipy.stats
    assert out.split() == ["True", "False"]
