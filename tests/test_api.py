"""Public API surface: imports, namespacing, re-exports."""

import importlib
import inspect

import pytest


class TestNamespacing:
    def test_submodules_not_shadowed(self):
        # Regression: re-exporting the simulate() *function* at top level
        # shadowed the repro.simulate submodule and broke
        # `import repro.simulate.calibrate`.
        import repro

        for name in ("polyhedra", "spec", "generator", "runtime",
                     "simulate", "problems"):
            module = importlib.import_module(f"repro.{name}")
            assert inspect.ismodule(getattr(repro, name)), name
            assert getattr(repro, name) is module

    def test_deep_imports_work(self):
        import repro.generator.cgen.program
        import repro.generator.cugen.program
        import repro.generator.pygen.program
        import repro.runtime.recover
        import repro.simulate.calibrate
        import repro.simulate.trace

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_names_resolve(self):
        for mod_name in (
            "repro.polyhedra",
            "repro.spec",
            "repro.generator",
            "repro.runtime",
            "repro.simulate",
            "repro.problems",
        ):
            mod = importlib.import_module(mod_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod_name}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestConsoleScripts:
    def test_entry_points_importable(self):
        from repro.cli import main_generate, main_run, main_simulate

        for fn in (main_generate, main_run, main_simulate):
            assert callable(fn)

    def test_entry_points_declared(self):
        import tomllib
        from pathlib import Path

        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        )
        data = tomllib.loads(pyproject.read_text())
        scripts = data["project"]["scripts"]
        assert scripts["repro-generate"] == "repro.cli:main_generate"
        assert scripts["repro-run"] == "repro.cli:main_run"
        assert scripts["repro-simulate"] == "repro.cli:main_simulate"
