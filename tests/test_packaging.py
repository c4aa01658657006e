"""Packaging metadata and public names point at code that exists."""
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gkdirac
from gkdirac.report import Report

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_script_targets_import():
    scripts = _pyproject().get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"script {name}: {target} is missing"
            obj = getattr(obj, part)


def test_package_data_globs_match():
    setuptools = _pyproject().get("tool", {}).get("setuptools", {})
    wheres = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in setuptools.get("package-data", {}).items():
        dirs = [ROOT / w / package.replace(".", "/") for w in wheres]
        for pattern in globs:
            assert any(any(d.glob(pattern)) for d in dirs), (
                f"package data {package}: {pattern} matches no file")


def test_all_names_exist():
    modules = [m.name for m in pkgutil.iter_modules(gkdirac.__path__)]
    assert modules
    for name in modules:
        mod = importlib.import_module(f"gkdirac.{name}")
        for export in getattr(mod, "__all__", ()):
            assert hasattr(mod, export), f"gkdirac.{name}.{export} is missing"


def test_only_report_defines_ok():
    # every verdict comes back as a gkdirac.report.Report; a class of its
    # own with an ``ok`` is a second result type
    offenders = []
    for info in pkgutil.iter_modules(gkdirac.__path__):
        mod = importlib.import_module(f"gkdirac.{info.name}")
        for obj in vars(mod).values():
            if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                    and obj is not Report and "ok" in vars(obj)):
                offenders.append(f"{mod.__name__}.{obj.__qualname__}")
    assert not offenders, offenders
