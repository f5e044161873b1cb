import csv

import numpy as np
import pytest

from conjlogit.data_model import Dataset, Household, IndependentGamma, Observation, validate_dataset
from conjlogit.optimizer import GridAxis, GridSpec
from conjlogit.series import SeriesConfig, h_naive
from conjlogit.sim import (
    SimDesign,
    bonferroni_crit,
    parity_study,
    run_study,
    simulate_dataset,
)


def design(**kw):
    spec = kw.pop("true_spec", IndependentGamma((5.0,), (14.0,)))
    P = spec.P
    axes = []
    for p in range(P):
        axes += [GridAxis(spec.b[p], 3, 0.1), GridAxis(spec.n[p], 3, 0.1)]
    base = dict(
        I=40, J=1, N=1, P=P, true_spec=spec, grid=GridSpec(tuple(axes)),
        R=50, c=0.01, replicates=3, seed=0,
    )
    base.update(kw)
    return SimDesign(**base)


class TestSimulateDataset:
    def test_deterministic(self):
        d1 = simulate_dataset(design(), 0)
        d2 = simulate_dataset(design(), 0)
        assert [h.observations for h in d1.households] == [
            h.observations for h in d2.households
        ]

    def test_replicate_changes_data(self):
        d1 = simulate_dataset(design(I=200), 0)
        d2 = simulate_dataset(design(I=200), 1)
        assert [h.observations for h in d1.households] != [
            h.observations for h in d2.households
        ]

    def test_seed_changes_data(self):
        d1 = simulate_dataset(design(I=200, seed=1), 0)
        d2 = simulate_dataset(design(I=200, seed=2), 0)
        assert [h.observations for h in d1.households] != [
            h.observations for h in d2.households
        ]

    def test_output_is_valid_and_on_support(self):
        d = simulate_dataset(design(I=100, J=2, N=3), 0)
        assert validate_dataset(d) == []
        assert d.x_scale == 0.01
        for h in d.households:
            assert h.n_obs == 6
            for obs in h.observations:
                assert all(v in (1, 2, 3) for v in obs.x)
                assert obs.y in (0, 1)

    def test_purchase_rate_in_design_band(self):
        # with the chosen scale realized P(y=1) stays well inside (0.05, 0.45)
        d = simulate_dataset(design(I=2000), 0)
        ys = [o.y for h in d.households for o in h.observations]
        rate = sum(ys) / len(ys)
        assert 0.05 < rate < 0.45

    def test_design_validation(self):
        with pytest.raises(ValueError):
            design(I=0)
        with pytest.raises(ValueError):
            design(c=0.0)
        with pytest.raises(ValueError):
            design(true_spec=IndependentGamma((1.0, 1.0), (1.0, 1.0)), P=1)


class TestBonferroniCrit:
    def test_study_critical_values(self):
        # 12 two-sided tests at family level 0.05
        assert bonferroni_crit(0.05, 12, df=24) == pytest.approx(3.167, abs=1e-3)
        assert bonferroni_crit(0.05, 12, df=9) == pytest.approx(3.81, abs=5e-3)

    def test_monotone_in_tests(self):
        assert bonferroni_crit(0.05, 12, 24) > bonferroni_crit(0.05, 2, 24)


class TestRunStudy:
    def test_smoke_and_report_shape(self, tmp_path):
        rep = run_study(design(I=60, replicates=3))
        assert [r.param for r in rep.rows] == ["b1", "n1"]
        assert rep.estimates.shape == (3, 2)
        for r in rep.rows:
            assert np.isfinite(r.mean) and np.isfinite(r.sd)
            assert r.crit > 0
        p = tmp_path / "rep.csv"
        with open(p, "w", newline="") as f:
            rep.write_csv(f)
        with open(p) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["param", "truth", "mean", "sd", "t", "crit", "pass"]
        assert len(rows) == 3

    def test_family_size_raises_crit(self):
        a = run_study(design(replicates=3), n_tests=2)
        b = run_study(design(replicates=3), n_tests=12)
        assert b.rows[0].crit > a.rows[0].crit
        # estimates are identical; only the test threshold changes
        assert np.array_equal(a.estimates, b.estimates)


class TestParityStudy:
    def test_spread_contracts(self):
        spec = IndependentGamma((5.0,), (14.0,))
        d = simulate_dataset(design(I=300, c=0.001, true_spec=spec), 0)
        rows = parity_study(d, spec, [40, 80, 160])
        spreads = [r.max_spread for r in rows]
        assert spreads[0] > spreads[1] > spreads[2]
        assert all(r.mean_spread <= r.max_spread for r in rows)

    def test_mean_is_over_households(self):
        # households 0 and 1 differ only in row order and make one group,
        # and households 2 and 4 are equal; the mean must count every household
        rows = [
            [(1, (1,)), (0, (3,))],
            [(0, (3,)), (1, (1,))],
            [(1, (2,)), (0, (2,)), (0, (1,))],
            [(0, (2,))],
            [(1, (2,)), (0, (2,)), (0, (1,))],
        ]
        hs = [Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
              for i, obs in enumerate(rows)]
        spec = IndependentGamma((5.0,), (14.0,))
        d = Dataset(tuple(hs), P=1, x_scale=0.1)
        (row,) = parity_study(d, spec, [12])
        cfg = SeriesConfig(R=12)
        per_household = [h_naive(h, spec, cfg, d.x_scale).parity_spread for h in hs]
        assert row.mean_spread == pytest.approx(np.mean(per_household), rel=1e-9)
        assert row.max_spread == pytest.approx(max(per_household), rel=1e-9)
