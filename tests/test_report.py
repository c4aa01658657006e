import pytest

from gkdirac.poly import Poly
from gkdirac.report import Report


@pytest.mark.parametrize("checks", [
    {"a": True},
    {"a": True, "b": True},
    {"a": True, "b": False},
    {"a": False, "b": False},
])
def test_ok_is_the_conjunction_of_checks(checks):
    r = Report("demo", checks)
    assert r.ok == bool(r) == all(checks.values())


def test_results_witnesses_and_stats_are_kept():
    r = Report("demo", {"a": True}, witnesses={"points": [1]},
               stats={"rank": 3}, pair="p", series=None)
    assert r.name == "demo"
    assert r.pair == "p" and r.series is None
    assert r.witnesses == {"points": [1]} and r.stats == {"rank": 3}
    assert Report("demo", {"a": True}).witnesses == {}
    assert Report("demo", {"a": True}).stats == {}


def test_checks_are_copied():
    checks = {"a": True}
    r = Report("demo", checks)
    checks["a"] = False
    assert r.ok


def test_empty_checks_rejected():
    with pytest.raises(ValueError):
        Report("demo", {})


@pytest.mark.parametrize("value", [1, 0, None, [], [False], "yes",
                                   Poly.const(1, 1)])
def test_non_bool_check_rejected(value):
    with pytest.raises(TypeError):
        Report("demo", {"good": True, "bad": value})


@pytest.mark.parametrize("name", ["name", "checks", "ok"])
def test_result_name_clash_rejected(name):
    with pytest.raises(ValueError):
        Report("demo", {"a": True}, **{name: 1})


def test_repr_names_the_report_and_its_failing_checks():
    r = Report("certs", {"mc_phi": True, "type_20": False, "closure": False})
    text = repr(r)
    assert "certs" in text
    assert "type_20" in text and "closure" in text
    assert "mc_phi" not in text
    good = repr(Report("certs", {"mc_phi": True}))
    assert "certs" in good and "mc_phi" not in good
