"""The package's public surface: the README example, the root exports, the
module attributes the benchmark's span tracer wraps by name, the
`EstimatorConfig` keywords the benchmark's workloads pass, and a caller
outside the tests for every public function and class."""

import importlib
import importlib.resources
import importlib.util
import inspect
import pkgutil
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


def test_every_public_name_has_a_caller_outside_tests():
    # a public function or class that only tests use belongs in
    # tests/oracle_helpers.py: each must be named in src/hamsim/*.py or
    # benchmarks/*.py other than on its own def or class line, and an
    # export from __init__.py does not count as a use
    sources = [*(ROOT / "src" / "hamsim").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    lines = [line for path in sources if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    unused = []
    for info in pkgutil.iter_modules(hamsim.__path__):
        module = importlib.import_module(f"hamsim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            named = re.compile(rf"\b{name}\b")
            own = re.compile(rf"\s*(def|class) {name}\b")
            if not any(named.search(line) and not own.match(line) for line in lines):
                unused.append(f"{module.__name__}.{name}")
    assert unused == []
