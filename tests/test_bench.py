"""bench/'s scripts share one harness and build their cases from package
bindings by name; a harness fault or a renamed binding would only show up
when a script is next run."""
import functools
import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


@pytest.fixture
def harness(monkeypatch):
    """bench/harness.py; the modules that it and the test load are dropped
    afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield importlib.import_module("harness")
    for name in set(sys.modules) - before:
        if name.split(".")[0] in ("harness", "io_layer", "engine_layer", "magcurves_bench_a",
                                  "magcurves_bench_b"):
            del sys.modules[name]


def test_measure_runs_every_case_of_every_package_round_robin(harness):
    packages = {label: harness.load_package(SRC, f"magcurves_bench_{label}")
                for label in ("a", "b")}
    assert packages["a"].dynamics is not packages["b"].dynamics
    calls = []

    def cases(mc, tmp):
        return [({"layer": f"toy.{case}", "unit": "us/call"}, 1,
                 functools.partial(calls.append, (case, mc.__name__)))
                for case in ("first", "second")]

    timed = harness.measure(packages, cases, repeats=2)
    assert list(timed) == ["a", "b"]
    assert [[(case["layer"], case["repeats"]) for case in timed[label]] for label in timed] == \
        [[("toy.first", 2), ("toy.second", 2)]] * 2
    # the warm-up round, then the two timed rounds; the package run first
    # alternates from round to round
    assert calls == [(case, f"magcurves_bench_{label}") for labels in ("ba", "ab", "ba")
                     for case in ("first", "second") for label in labels]


@pytest.mark.parametrize("script", ["io_layer", "engine_layer"])
def test_every_case_of_each_script_builds(harness, tmp_path, script):
    mc = harness.load_package(SRC, "magcurves_bench_a")
    table = importlib.import_module(script).cases(mc, tmp_path)
    assert table
    for desc, work, fn in table:
        assert desc["layer"] and desc["unit"].split("/")[0] in ("us", "ms")
        assert work > 0 and callable(fn)


def test_paired_ratios_of_known_rounds(harness):
    # ratios 0.5, 1, 1.5, 2: one round won, quartiles by linear interpolation
    assert harness._paired([1.0, 2.0, 3.0, 4.0], [2.0] * 4) == {
        "median_ratio": 1.25, "quartiles": [0.875, 1.625], "rounds_won": 1}


def test_measure_pairs_each_label_after_the_first(harness, monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    # seconds per call, the warm-up round first
    durations = {"a": iter([9.0, 2.0, 2.0, 2.0]), "b": iter([9.0, 1.0, 3.0, 1.0])}

    def cases(mc, tmp):
        def run():
            clock[0] += next(durations[mc])
        return [({"layer": "toy.case", "unit": "us/call"}, 1, run)]

    timed = harness.measure({"a": "a", "b": "b"}, cases, repeats=3)
    assert "paired" not in timed["a"][0]
    # ratios 0.5, 1.5, 0.5 to the first label's round
    assert timed["b"][0]["paired"] == {"to": "a", "median_ratio": 0.5,
                                       "quartiles": [0.5, 1.0], "rounds_won": 2}
    assert timed["b"][0]["per_unit"] == pytest.approx(1e6)
