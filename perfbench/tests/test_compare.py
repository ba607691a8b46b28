import pytest

from perfbench.compare import load_spec, verdict
from perfbench.environment import EnvironmentMismatch, check_comparable, record

PARENT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.7, 100.1, 100.4, 99.9, 100.3]


def test_clear_gain_is_reported():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1)["verdict"] == "gain"


def test_worse_beyond_bound_is_a_regression():
    change = [v * 1.3 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1)["verdict"] == "regression"
    assert verdict(PARENT, change, "higher", 0.1)["verdict"] == "gain"


def test_small_difference_is_the_same():
    change = [v * 1.01 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1)["verdict"] == "same"


def test_noisy_parent_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    change = [v * 1.05 for v in noisy]
    assert verdict(noisy, change, "lower", 0.1)["verdict"] == "unresolved"


def test_environment_record_names_the_substrate():
    env = record()
    assert {"substrate", "columnar", "numpy_kernels", "numpy", "python", "nproc"} <= set(env)
    check_comparable(env, dict(env))


def test_different_substrates_are_refused():
    env = record()
    other = dict(env, columnar=not env["columnar"], substrate="columnar substrate: off")
    with pytest.raises(EnvironmentMismatch):
        check_comparable(env, other)


def test_spec_gives_every_end_to_end_metric_a_bound():
    spec = load_spec()
    bounded = [m for m in spec.values() if "bound" in m]
    assert bounded and all(0 < m["bound"] <= 0.25 for m in bounded)
    assert spec["setup_s"]["better"] == "lower"
