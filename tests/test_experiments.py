from dataclasses import replace

import numpy as np
import pytest

from mblchain import experiments, xy
from mblchain.disorder import DisorderSpec, SeedPlan
from mblchain.errors import ConfigurationError, DegeneracyError, NumericalError


def _config(**kwargs):
    base = dict(kind="eigencorrelator", chain_length=30,
                disorder=DisorderSpec(coupling=4.0), seeds=SeedPlan(5),
                realizations=3, distances=(1, 3, 5, 8), probe_site=4)
    base.update(kwargs)
    return experiments.ExperimentConfig(**base)


def test_fit_exponential_decay_exact():
    d = np.arange(1, 9)
    means = 3.0 * np.exp(-0.7 * d)
    fit = experiments.fit_exponential_decay(d, means)
    assert fit.available
    assert fit.rate == pytest.approx(0.7, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)


def test_fit_constant_data():
    fit = experiments.fit_exponential_decay(np.arange(1, 7), np.full(6, 0.4))
    assert fit.available
    assert abs(fit.rate) < 1e-10
    assert fit.ci_contains_zero()


def test_t_quantile_matches_scipy():
    from scipy.special import stdtrit
    for dof in range(1, 201):
        assert experiments._t_quantile(dof, 0.975) == pytest.approx(
            stdtrit(dof, 0.975), rel=1e-12, abs=0.0), dof


def test_fit_unavailable_on_floored_data():
    fit = experiments.fit_exponential_decay([1, 2, 3, 4],
                                            [1e-16, 0.0, 1e-15, 1e-16])
    assert not fit.available
    assert fit.points_used == 0


def test_fit_log_slope():
    ells = np.array([8, 16, 32, 64, 128])
    values = 0.25 * np.log(ells) + 1.0
    fit = experiments.fit_log_slope(ells, values)
    assert fit.rate == pytest.approx(0.25, abs=1e-10)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        experiments.ExperimentConfig(kind="unknown", chain_length=10)
    with pytest.raises(ConfigurationError):
        _config(realizations=0)
    with pytest.raises(ConfigurationError):
        experiments.ExperimentConfig(kind="droplet_localization", half_length=0)
    with pytest.raises(ConfigurationError):
        experiments.ExperimentConfig(kind="droplet_localization", half_length=2,
                                     anisotropy=0.5)


def test_config_rejects_probed_sites_outside_chain():
    # chain sites 0..29; probe_site 4
    for distances in ((1, 26), (-5,), (1, 30)):
        with pytest.raises(ConfigurationError, match="outside the chain"):
            _config(distances=distances)
    with pytest.raises(ConfigurationError):
        _config(probe_site=30, distances=())
    with pytest.raises(ConfigurationError):
        _config(kind="xy_commutator", chain_length=6, probe_site=0,
                distances=(2, -1))
    # XXZ chains are indexed over [-L, L]
    base = dict(kind="xxz_commutator", half_length=4, probe_site=-4)
    experiments.ExperimentConfig(distances=(1, 8), **base)
    with pytest.raises(ConfigurationError):
        experiments.ExperimentConfig(distances=(9,), **base)
    _config(distances=(-4, 25))  # sites 0 and 29 are in range


def test_solver_failure_becomes_numerical_error(monkeypatch):
    failure = np.linalg.LinAlgError("Eigenvalues did not converge")

    def stalls(config, index):
        raise failure

    monkeypatch.setitem(experiments.METRICS, "eigencorrelator", stalls)
    with pytest.raises(NumericalError, match="realization 0") as info:
        experiments.run_ensemble(_config())
    assert info.value.__cause__ is failure

    def broken(config, index):
        raise KeyError("not a solver failure")

    monkeypatch.setitem(experiments.METRICS, "eigencorrelator", broken)
    with pytest.raises(KeyError, match="not a solver failure"):
        experiments.run_ensemble(_config())


def test_non_finite_value_is_a_numerical_error(monkeypatch):
    # a metric's NaN or inf is a numerical failure of that realization
    for bad in (np.nan, np.inf, -np.inf):
        monkeypatch.setitem(experiments.METRICS, "eigencorrelator",
                            lambda config, index: {1: 1.0, 2: bad if index else 0.5})
        with pytest.raises(NumericalError, match=f"realization 1: key 2 has value {bad}"):
            experiments.run_ensemble(_config(realizations=2))


def test_run_ensemble_single_realization_matches_direct():
    config = _config(realizations=1)
    summary = experiments.run_ensemble(config)
    direct = experiments.METRICS["eigencorrelator"](config, 0)
    for key, mean, stderr, mx in summary.as_rows():
        assert mean == pytest.approx(direct[int(key)])
        assert mx == pytest.approx(direct[int(key)])


def test_run_ensemble_deterministic():
    a = experiments.run_ensemble(_config())
    b = experiments.run_ensemble(_config())
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.stderr.tobytes() == b.stderr.tobytes()
    assert a.max_value.tobytes() == b.max_value.tobytes()


def test_degeneracy_resample_policy(monkeypatch):
    calls = []

    def flaky(config, index):
        calls.append(index)
        if index < experiments.SUBSTITUTE_OFFSET:
            raise DegeneracyError("forced")
        return {1: float(index)}

    monkeypatch.setitem(experiments.METRICS, "eigencorrelator", flaky)
    summary = experiments.run_ensemble(_config(realizations=2))
    assert len(summary.substituted) == 2
    assert all(sub >= experiments.SUBSTITUTE_OFFSET
               for _, sub in summary.substituted)
    # original indices tried first
    assert calls[0] == 0


def test_eigencorrelator_decays_under_strong_disorder():
    summary = experiments.run_ensemble(_config(
        realizations=8, distances=(1, 2, 4, 6, 9, 12)))
    fit = experiments.fit_exponential_decay(summary.keys, summary.mean)
    assert fit.available
    assert fit.rate > 0.0 and not fit.ci_contains_zero()


def test_entropy_scan_smoke():
    config = _config(kind="entropy_sup", chain_length=24,
                     block_sizes=(4, 8, 12), distances=(), sup_samples=40,
                     realizations=2)
    summary = experiments.run_ensemble(config)
    fit = experiments.fit_log_slope(summary.keys, summary.mean)
    assert summary.mean.shape == (3,)
    assert (summary.mean >= 0).all()
    assert fit.available


def test_clean_ground_state_entropy_log_growth():
    out = experiments.clean_ground_state_entropy(400, 0.0, (20, 40, 80, 160))
    sizes = sorted(out)
    values = [out[s] for s in sizes]
    assert values == sorted(values)
    fit = experiments.fit_log_slope(sizes, values)
    assert 0.2 < fit.rate < 0.5


@pytest.mark.parametrize("ell", [0, 17])
def test_clean_ground_state_entropy_rejects_block_outside_chain(ell):
    with pytest.raises(ValueError, match="outside 1..16"):
        experiments.clean_ground_state_entropy(16, 0.0, (4, ell))


def test_ct_sample_holds_bound():
    config = experiments.ExperimentConfig(
        kind="ct_pass", half_length=5, n_particles=2, anisotropy=2.0,
        seeds=SeedPlan(11), realizations=1)
    for index in range(5):
        d, measured, bound = experiments.ct_sample(config, index)
        assert measured <= bound
        assert d >= 0


def test_quench_entropy_metric_bounded():
    config = _config(kind="quench_entropy", chain_length=16,
                     block_sizes=(4, 8), distances=(),
                     time_grid=(0.5, 2.0), realizations=1)
    out = experiments.METRICS["quench_entropy"](config, 0)
    for ell, value in out.items():
        assert 0.0 <= value <= ell * np.log(2) + 1e-9


def test_xy_commutator_arrival_monotone_clean():
    config = experiments.ExperimentConfig(
        kind="xy_commutator", chain_length=8,
        disorder=DisorderSpec(kind="constant", support_min=0.0,
                              support_max=0.0),
        seeds=SeedPlan(1), realizations=1, distances=(2, 5), probe_site=1,
        time_grid=tuple(np.linspace(0.05, 3.0, 30)))
    arrivals = experiments.xy_commutator_arrival(config)
    assert arrivals[2] <= arrivals[5]


# one small value for every field a kind may read, and a different valid
# one (chain_length above 14, so entropy_sup samples patterns)
_READ_VALUES = dict(chain_length=16, half_length=2, distances=(1, 2),
                    block_sizes=(1, 2), time_grid=(0.5, 2.0), probe_site=0,
                    anisotropy=6.0, boundary_weight=None, window_kind="I_delta",
                    safety=0.5, n_particles=2, sup_samples=5, realizations=1)
_OTHER_VALUES = dict(chain_length=17, half_length=3, distances=(1,),
                     block_sizes=(1,), time_grid=(1.0,), probe_site=1,
                     anisotropy=3.0, boundary_weight=0.9,
                     window_kind="I", safety=0.25, n_particles=1,
                     sup_samples=9, realizations=2)


@pytest.mark.parametrize("kind", sorted(experiments.READS))
def test_unread_fields_do_not_change_metrics(kind):
    """A field outside READS[kind] leaves the realization unchanged, so the
    CLI, which passes only READS[kind], reaches every field a kind reads.
    Every ensemble metric returns the same keys in every realization, the
    one rectangular table run_ensemble aggregates; ct_pass has no ensemble
    metric and is compared through ct_sample."""
    assert set(experiments.READS) - set(experiments.METRICS) == {"ct_pass"}
    assert set(experiments.METRICS) <= set(experiments.READS)
    assert experiments.READS[kind] <= set(_READ_VALUES)
    base = experiments.ExperimentConfig(
        kind=kind, disorder=DisorderSpec(coupling=0.5), seeds=SeedPlan(3),
        **_READ_VALUES)
    realization = experiments.ct_sample if kind == "ct_pass" else experiments.METRICS[kind]
    expected = realization(base, 0)
    assert expected
    if kind != "ct_pass":
        assert set(realization(base, 1)) == set(expected)
    for name, value in _OTHER_VALUES.items():
        if name in experiments.READS[kind]:
            continue
        assert realization(replace(base, **{name: value}), 0) == expected, name
