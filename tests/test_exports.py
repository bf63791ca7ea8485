"""Every exported name resolves, so ``from bilgamma import *`` and
``from bilgamma.<module> import *`` cannot break on a stale export; no
module keeps an import it does not use, nor a private name that nothing
reads; and every function the benchmark tracer wraps is still where it
looks, and still called there."""

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import bilgamma
import bilgamma.cli
from bilgamma import PricingInputs, RandomStream
from bilgamma.models import MARTINGALE, MODEL_GRID
from bilgamma.stein import SIN_W3

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bilgamma.__path__))

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_package_exports_resolve():
    missing = [name for name in bilgamma.__all__ if not hasattr(bilgamma, name)]
    assert not missing
    assert len(set(bilgamma.__all__)) == len(bilgamma.__all__)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"bilgamma.{module}")
    exported = getattr(mod, "__all__", [])
    assert not [name for name in exported if not hasattr(mod, name)]


def _imported_and_read(tree: ast.Module) -> tuple[set, set]:
    """The names a module's imports bind, and the names it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported, {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", SUBMODULES)
def test_no_unused_imports(module):
    # no linter is installed; this stops a deletion leaving imports behind
    mod = importlib.import_module(f"bilgamma.{module}")
    imported, read = _imported_and_read(
        ast.parse(Path(mod.__file__).read_text(encoding="utf-8")))
    assert sorted(imported - read - set(getattr(mod, "__all__", ()))) == []


def _private_definitions(tree: ast.Module) -> set:
    """The module-level ``_name``s a module defines: functions, classes
    and constants (dunder names aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_dead_private_names():
    # every private module-level name is read somewhere in the package, so
    # a deletion cannot leave a helper or a constant behind
    trees = {module: ast.parse(Path(importlib.import_module(
        f"bilgamma.{module}").__file__).read_text(encoding="utf-8"))
        for module in SUBMODULES}
    read = set()
    for tree in trees.values():
        read.update(n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    defined = {(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)}
    assert len(defined) >= 30
    assert sorted((m, n) for m, n in defined if n not in read) == []


@pytest.mark.parametrize("path, attr", [t[:2] for t in spans.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in spans.TARGETS])
def test_trace_targets_resolve(path, attr):
    # perfbench/run.py --trace 1 wraps each (object path, attribute) here;
    # a deleted or renamed function would break the traced run
    assert callable(getattr(spans._resolve(path), attr, None))


def test_trace_counts_density_path(tmp_path):
    # a call moved to a module where the tracer does not wrap it would read
    # 0 here: every layer of one pdf point must be counted
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_GRID["five_mixed"].to_json_obj()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert bilgamma.cli.main(
            ["pdf", "--model", str(model), "--xmin", "1", "--xmax", "1",
             "--points", "1", "--out", str(tmp_path / "pdf.csv")]) == 0
    finally:
        tracer.restore()
    summary = tracer.summary()
    for name in ("cli.main", "combo.build_mixture", "combo.pdf_series",
                 "combo.pdf_fourier", "quadrature.fourier_density",
                 "quadrature.log_hyperint"):
        assert summary.get(name, {"calls": 0})["calls"] >= 1, name
    # the term counter reads the pmf lengths of the one mixture built, at
    # the pdf command's default tail_tol
    rep = bilgamma.build_mixture(MODEL_GRID["five_mixed"], tail_tol=1e-10)
    assert tracer.counts["combo.build_mixture.terms"] == (
        len(rep.pos.pmf) + len(rep.neg.pmf))


def test_trace_counts_monte_carlo_draws():
    # both estimators draw chunk by chunk through the sample_direct that
    # pricing and stein import, so the tracer sees every draw there
    n = 2 ** 16 + 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        bilgamma.pricing.price_call_monte_carlo(
            MARTINGALE, PricingInputs(s0=1.0, strike=1.0, rate=0.05,
                                      maturity=1.0), n, RandomStream(1))
        bilgamma.stein.stein_identity_check(
            MODEL_GRID["five_mixed"], SIN_W3, 10_000, RandomStream(2))
    finally:
        tracer.restore()
    assert tracer.counts["sampling.draws"] == n + 10_000
    assert tracer.summary()["sampling.sample_direct"]["calls"] == 3
