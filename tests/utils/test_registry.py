"""Tests for the one registry mechanism behind every recipe table."""

import sys

import pytest

from repro.nasbench.skeleton import CIFAR100_SKELETON
from repro.utils.registry import (
    Registry,
    check_params,
    check_positive,
    init_param_names,
    params_token,
)


class WidgetError(ValueError):
    pass


@pytest.fixture
def widgets():
    table = Registry("widget", WidgetError)
    table.register("gear", "a gear")
    table.register("cog", "a cog")
    return table


class TestRegistry:
    def test_unknown_name_lists_registered_sorted(self, widgets):
        with pytest.raises(WidgetError, match=r"unknown widget 'bolt'; registered: cog, gear$"):
            widgets.get("bolt")

    def test_names_and_items_sorted(self, widgets):
        assert widgets.names() == ["cog", "gear"]
        assert widgets.items() == [("cog", "a cog"), ("gear", "a gear")]
        assert "cog" in widgets and "bolt" not in widgets

    def test_same_entry_again_is_a_noop(self, widgets):
        entry = object()
        assert widgets.register("nut", entry) is entry
        assert widgets.register("nut", entry) is entry
        assert widgets.get("nut") is entry

    def test_different_entry_refused(self, widgets):
        with pytest.raises(WidgetError, match="widget 'gear' is already registered"):
            widgets.register("gear", "another gear")
        assert widgets.get("gear") == "a gear"

    def test_overwrite_replaces(self, widgets):
        assert widgets.register("gear", "another gear", overwrite=True) == "another gear"
        assert widgets.get("gear") == "another gear"

    def test_unregister(self, widgets):
        widgets.unregister("gear")
        widgets.unregister("gear")  # absent: no-op
        assert widgets.names() == ["cog"]

    def test_nameless_entry_refused(self, widgets):
        with pytest.raises(WidgetError, match="no name"):
            widgets.register("", "anonymous")

    def test_builtins_load_on_first_lookup(self, tmp_path, monkeypatch):
        (tmp_path / "widget_table.py").write_text(
            "from repro.utils.registry import Registry\n"
            "TABLE = Registry('widget', builtins=('widget_builtins',))\n"
        )
        (tmp_path / "widget_builtins.py").write_text(
            "from widget_table import TABLE\n"
            "TABLE.register('shipped', 'the shipped widget')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        for module in ("widget_table", "widget_builtins"):
            monkeypatch.delitem(sys.modules, module, raising=False)
        from widget_table import TABLE

        assert "widget_builtins" not in sys.modules
        assert TABLE.get("shipped") == "the shipped widget"
        assert "widget_builtins" in sys.modules
        assert TABLE.names() == ["shipped"]


class TestParamHelpers:
    def test_check_params_copies_known_names(self):
        params = {"a": 1}
        checked = check_params("widget 'gear'", params, ("a", "b"))
        assert checked == params and checked is not params
        assert check_params("widget 'gear'", None, ()) == {}

    def test_check_params_names_unknown_and_allowed(self):
        with pytest.raises(
            WidgetError,
            match=r"widget 'gear' got unknown parameter\(s\) \['c'\]; allowed: \['a', 'b'\]",
        ):
            check_params("widget 'gear'", {"c": 1}, ("b", "a"), WidgetError)
        with pytest.raises(ValueError, match="takes no parameters"):
            check_params("widget 'gear'", {"c": 1}, ())

    def test_check_params_requires_a_mapping(self):
        with pytest.raises(WidgetError, match="params must be a mapping, got list"):
            check_params("widget 'gear'", [1], ("a",), WidgetError)

    def test_any_name_when_allowed_is_none(self):
        assert check_params("widget 'gear'", {"z": 1}, None) == {"z": 1}

    def test_check_positive(self):
        assert check_positive("widget 'gear'", "teeth", "12") == 12.0
        for bad in (0, -1.0, "many", None, float("nan")):
            with pytest.raises(WidgetError, match="teeth must be a positive number"):
                check_positive("widget 'gear'", "teeth", bad, WidgetError)

    def test_init_param_names(self):
        class Plain:
            pass

        class Keywords:
            def __init__(self, a, b=1):
                pass

        class Open:
            def __init__(self, a, **rest):
                pass

        assert init_param_names(Plain) == []
        assert init_param_names(Keywords) == ["a", "b"]
        assert init_param_names(Open) is None

    def test_params_token_is_pinned(self):
        # Cache namespaces append this digest; rows written by earlier
        # runs stay addressable only while it is byte-identical.
        assert params_token(None) == params_token({}) == ""
        assert params_token({"clock_mhz": 300.0, "max_pixel_par": 32}) == "/p71a7b468ba"
        assert params_token({"skeleton": CIFAR100_SKELETON}) == "/ped4d12439b"
