"""The package's public surface: the README example, the root exports, the
module attributes the benchmark's span tracer wraps by name, and the
`EstimatorConfig` keywords the benchmark's workloads pass."""

import importlib
import importlib.resources
import importlib.util
import re
from pathlib import Path

import hamsim

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from hamsim import *", namespace)
    assert set(hamsim.__all__) <= set(namespace)
    assert len(hamsim.__all__) == len(set(hamsim.__all__))


def test_span_boundaries_resolve():
    # the traced benchmark run looks up every boundary by name and fails on
    # the first one missing
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for module, attr, _, _ in spans.BOUNDARIES:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_benchmark_config_keywords_construct():
    # benchmarks/workloads.py builds its configs with these keywords;
    # threads is accepted and has no effect, so a report with threads=2
    # is == to the one without it
    model = hamsim.load_hamiltonian(
        str(importlib.resources.files("hamsim").joinpath("data/chain_4q.txt")))
    base = dict(n_segments=5, order=3, n_sample_0=40, n_shot_0=10, seed=9,
                bucket_samples={(2,): 12, (2, 2): 3})
    want = hamsim.estimate_qswift(model, 1.1, hamsim.EstimatorConfig(**base))
    got = hamsim.estimate_qswift(model, 1.1, hamsim.EstimatorConfig(threads=2, **base))
    assert got == want
