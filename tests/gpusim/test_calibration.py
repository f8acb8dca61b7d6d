"""Calibrations are validated once, when they are built."""

import dataclasses

import pytest

from repro.bench import serve_bench
from repro.core import create_strategy, registered_strategies
from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.cost import GpuCostModel

#: (field, out-of-range value): efficiencies and utilizations must lie
#: in (0, 1], every other constant must be positive.
BAD_FIELDS = [
    ("gpu_scan_efficiency", 0.0),
    ("gpu_partition_efficiency", 1.5),
    ("pcie_stream_utilization", -0.1),
    ("lane_ops_insert", 0.0),
    ("kernel_launch_seconds", -1e-6),
    ("cogadb_max_tuples", 0),
]


@pytest.mark.parametrize("name,value", BAD_FIELDS)
def test_out_of_range_field_raises_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        Calibration(**{name: value})


@pytest.mark.parametrize("name,value", BAD_FIELDS)
def test_out_of_range_field_raises_through_replace(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(DEFAULT_CALIBRATION, **{name: value})


def test_boundary_values_are_accepted():
    calib = Calibration(gpu_scan_efficiency=1.0, pcie_stream_utilization=1.0)
    assert calib.gpu_scan_efficiency == 1.0


def test_gpu_scaled_results_are_validated_at_construction(monkeypatch):
    calls = []
    original = Calibration.validate
    monkeypatch.setattr(
        Calibration, "validate", lambda self: calls.append(1) or original(self)
    )
    fast = DEFAULT_CALIBRATION.gpu_scaled(4.0)
    assert len(calls) == 1
    assert fast.gpu_scan_efficiency == 1.0  # scaled toward the ideal, capped


def test_cost_models_and_strategies_do_not_revalidate(monkeypatch):
    calib = DEFAULT_CALIBRATION.gpu_scaled(2.0)
    calls = []
    monkeypatch.setattr(Calibration, "validate", lambda self: calls.append(1))
    GpuCostModel(calibration=calib)
    for key in registered_strategies():
        create_strategy(key, calibration=calib)
    assert calls == []


def test_malformed_device_calib_fails_before_the_run(monkeypatch, capsys):
    """A preset that builds an out-of-range calibration stops the CLI at
    flag parsing, naming the flag and the field; no run starts."""

    def malformed(name):
        return dataclasses.replace(DEFAULT_CALIBRATION, gpu_scan_efficiency=2.0)

    def no_run(*args, **kwargs):
        raise AssertionError("the run must not start")

    monkeypatch.setattr(serve_bench, "calibration_preset", malformed)
    monkeypatch.setattr(serve_bench, "_serve_dispatch", no_run)
    with pytest.raises(SystemExit) as exc:
        serve_bench.serve_main(
            ["--clients", "4", "--devices", "2", "--device-calib", "fast,slow"]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--device-calib" in err
    assert "gpu_scan_efficiency" in err
