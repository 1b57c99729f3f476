import csv

import pytest

from conftest import conv_chain, tiny_dataset
from prunekit.capacity import capacity_profile
from prunekit.errors import NumericalError, ValidationError
from prunekit.sweep import CSV_COLUMNS, SweepSpec, run_sweep


@pytest.fixture
def setup(tmp_path):
    g = conv_chain(seed=0)
    d = tiny_dataset(n=60)
    profile = capacity_profile(g, d)
    return g, d, profile, tmp_path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_grid_cardinality_with_finetune(setup):
    g, d, profile, tmp = setup
    spec = SweepSpec(grid=[round(0.1 * k, 1) for k in range(1, 10)],
                     methods=("weight-magnitude",), finetune=True,
                     ft_epochs=1, floor_multiplier=0)
    rows = run_sweep(g, profile, d, spec, tmp / "s.csv")
    p_rows = [r for r in rows if r["phase"] == "p"]
    ft_rows = [r for r in rows if r["phase"] == "p+ft"]
    assert len(p_rows) == 18  # 9 sparsities x {uniform, layerwise}
    assert len(ft_rows) == 18
    assert all(r["status"] == "ok" for r in rows)


def test_failed_cell_recorded_and_sweep_continues(setup):
    g, d, profile, tmp = setup
    # floors of 3 channels are infeasible at 0.95 on this small chain
    spec = SweepSpec(grid=[0.2, 0.95], methods=("channel-l1",),
                     baseline="layerwise", floor_multiplier=3)
    rows = run_sweep(g, profile, d, spec, tmp / "s.csv")
    ok = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] != "ok"]
    assert ok and failed
    assert "infeasible" in failed[0]["status"]


def test_failed_finetune_row_has_its_own_phase(setup, monkeypatch):
    g, d, profile, tmp = setup

    def diverge(*args, **kwargs):
        raise NumericalError("training diverged")

    monkeypatch.setattr("prunekit.sweep.finetune", diverge)
    spec = SweepSpec(grid=[0.5], methods=("weight-magnitude",), baseline="uniform",
                     finetune=True, ft_epochs=1, floor_multiplier=0)
    run_sweep(g, profile, d, spec, tmp / "s.csv")
    p_row, ft_row = read_rows(tmp / "s.csv")
    assert (p_row["phase"], p_row["status"]) == ("p", "ok")
    assert p_row["accuracy_median"] == p_row["accuracy"]
    assert (ft_row["phase"], ft_row["status"]) == ("p+ft", "error: training diverged")
    assert ft_row["accuracy"] == ft_row["accuracy_median"] == ""


def test_csv_columns_stable(setup):
    g, d, profile, tmp = setup
    spec = SweepSpec(grid=[0.5], methods=("weight-magnitude",), floor_multiplier=0)
    run_sweep(g, profile, d, spec, tmp / "s.csv")
    with open(tmp / "s.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == CSV_COLUMNS


def test_spec_validation():
    with pytest.raises(ValidationError):
        SweepSpec(grid=[0.5, 0.3]).validate()
    with pytest.raises(ValidationError):
        SweepSpec(grid=[0.5], trials=0).validate()
    with pytest.raises(ValidationError):
        SweepSpec(grid=[0.5], methods=("confetti",)).validate()
    with pytest.raises(ValidationError):
        SweepSpec(grid=[1.0]).validate()
    SweepSpec(grid=[0.1, 0.9]).validate()


def test_uniform_sweep_needs_no_profile(setup):
    g, d, profile, tmp = setup
    spec = SweepSpec(grid=[0.3, 0.5], baseline="uniform", floor_multiplier=0)
    run_sweep(g, profile, d, spec, tmp / "with.csv")
    run_sweep(g, None, d, spec, tmp / "without.csv")
    assert (tmp / "with.csv").read_bytes() == (tmp / "without.csv").read_bytes()
    with pytest.raises(ValidationError, match="needs a capacity profile"):
        run_sweep(g, None, d, SweepSpec(grid=[0.3], baseline="both"), tmp / "both.csv")
    assert not (tmp / "both.csv").exists()
