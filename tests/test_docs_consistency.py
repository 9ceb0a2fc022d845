"""Documentation consistency: the docs reference things that exist.

Keeps DESIGN.md / EXPERIMENTS.md / README.md honest as the code moves:
referenced modules import, referenced benchmark files exist, referenced
result artifacts are produced by some bench, and the zoo/scheme lists
in prose match the registries.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_design_module_references_import():
    text = _read("DESIGN.md")
    for dotted in sorted(set(re.findall(r"`(repro\.[a-z_.]+)`", text))):
        candidate = dotted
        # references may point at module members (repro.core.joint.jps_line)
        while candidate:
            try:
                importlib.import_module(candidate)
                break
            except ModuleNotFoundError:
                candidate = candidate.rpartition(".")[0]
        assert candidate, f"DESIGN.md references unimportable {dotted}"


def test_design_bench_references_exist():
    text = _read("DESIGN.md")
    for bench in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
        assert (ROOT / "benchmarks" / bench).exists(), f"DESIGN.md: missing {bench}"


def test_experiments_artifact_references_are_produced():
    """Every result file EXPERIMENTS.md cites is written by some bench."""
    text = _read("EXPERIMENTS.md")
    cited = set(re.findall(r"`([a-z0-9_]+\.txt)`", text))
    assert cited
    bench_sources = "".join(
        p.read_text() for p in (ROOT / "benchmarks").glob("bench_*.py")
    )
    for artifact in sorted(cited):
        stem = artifact[: -len(".txt")]
        assert f'"{stem}"' in bench_sources, (
            f"EXPERIMENTS.md cites {artifact} but no bench saves it"
        )


def test_readme_models_exist():
    from repro.nn.zoo import MODELS

    text = _read("README.md")
    for name in ("AlexNet", "GoogLeNet", "MobileNet-v2", "ResNet-18", "Inception-v4",
                 "SqueezeNet"):
        assert name in text
    # the registry names the README's headline models
    for key in ("alexnet", "googlenet", "mobilenet-v2", "resnet18",
                "inception-v4", "squeezenet"):
        assert key in MODELS


def test_examples_listed_in_examples_readme():
    text = _read("examples/README.md")
    scripts = {p.name for p in (ROOT / "examples").glob("*.py")}
    for script in scripts:
        assert script in text, f"examples/README.md does not mention {script}"


def test_docs_theory_references_tests_that_exist():
    text = _read("docs/theory.md")
    for ref in set(re.findall(r"`tests/(test_\w+\.py)", text)):
        assert (ROOT / "tests" / ref).exists(), f"docs/theory.md: missing {ref}"


def test_cli_docstring_lists_all_commands():
    from repro.cli import build_parser
    import repro.cli

    parser = build_parser()
    sub = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    for command in sub.choices:
        assert command in (repro.cli.__doc__ or ""), (
            f"cli docstring misses command {command!r}"
        )


def test_api_facade_names_are_documented():
    """Every name `repro.api` exports is mentioned in docs/api.md."""
    import repro.api

    text = _read("docs/api.md")
    missing = [name for name in repro.api.__all__ if name not in text]
    assert not missing, f"docs/api.md misses facade exports: {missing}"


def test_facade_lazy_exports_resolve_and_match_api():
    """`repro.<name>` and `repro.api.<name>` hand out the same objects."""
    import repro
    import repro.api

    for name in sorted(repro._API_EXPORTS):
        assert getattr(repro, name) is getattr(repro.api, name), name
    assert repro._API_EXPORTS <= set(repro.api.__all__)


def test_cloud_names_reach_the_facade():
    """The batching subsystem's public names ride every export path."""
    import repro
    import repro.api

    names = (
        "BATCHING_POLICIES",
        "BatchingServer",
        "CloudConfig",
        "CloudGpuModel",
        "contended_cloud_scenario",
    )
    for name in names:
        assert name in repro.api.__all__, name
        assert name in repro._API_EXPORTS, name
    # the policy registry the CLI/docs quote is the real one
    assert repro.api.BATCHING_POLICIES == ("serve_now", "batch", "adaptive")


def test_costmodel_doc_constants_match_code():
    """docs/costmodel.md quotes the shipped device constants."""
    from repro.profiling.device import gtx1080_server, raspberry_pi_4

    text = _read("docs/costmodel.md")
    pi = raspberry_pi_4()
    assert pi.kind_throughput["conv2d"] == 5e9 and "5 GFLOP/s" in text
    assert pi.layer_overhead == pytest.approx(250e-6) and "250 µs" in text
    srv = gtx1080_server()
    assert srv.kind_throughput["conv2d"] == 2.5e12 and "2.5 TFLOP/s" in text
