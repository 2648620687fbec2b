"""The benchmark's tracer and output checks must hold on the package.

bench/tracing.py wraps library functions by name, and bench/workloads.py
checks every invocation against bench/reference.json; a rename, a dropped
output key or a numerical drift would otherwise surface only when the
benchmark runs.
"""

import inspect
from pathlib import Path

import pytest

from nonlocal_pme import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    return tracing


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    return workloads


def _holders(tracing, owner, attribute, original):
    if inspect.isclass(owner):
        return [owner]
    return [m for m in tracing._MODULES if m.__dict__.get(attribute) is original]


def test_tracer_wraps_every_target_and_restores_it(tracing):
    originals = []
    for owner, attribute, *_ in tracing._TARGETS:
        assert hasattr(owner, attribute), f"{owner.__name__}.{attribute} is gone"
        original = getattr(owner, attribute)
        assert callable(original)
        originals.append((owner, attribute, original, _holders(tracing, owner, attribute, original)))
    runners = dict(tracing.cli._SUITE_RUNNERS)

    with tracing.Tracer().installed():
        for owner, attribute, original, holders in originals:
            for holder in holders:
                assert getattr(holder, attribute) is not original, f"{attribute} not wrapped"
        assert all(tracing.cli._SUITE_RUNNERS[s] is not r for s, r in runners.items())

    for owner, attribute, original, holders in originals:
        for holder in holders:
            assert getattr(holder, attribute) is original, f"{attribute} not restored"
    assert tracing.cli._SUITE_RUNNERS == runners


def test_every_workload_passes_its_reference_check(workloads, tmp_path):
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        config = tmp_path / f"{name}.json"
        outdir = tmp_path / name
        workloads.write_config(name, 0, config)
        code = cli.main(workloads.cli_argv(name, 0, config, outdir))
        assert workloads.check(name, 0, outdir, code, reference) == [], name
