"""Rule 5 of ``scripts/check_api.py``: no unused grouping surface."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_api.py"
_spec = importlib.util.spec_from_file_location("check_api", _SCRIPT)
check_api = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_api)


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_rule5_flags_a_grouping_only_storm_and_tests_call(tmp_path):
    _write(tmp_path, "src/repro/storm/topology.py", (
        "class ComponentSpec:\n"
        "    def shuffle_grouping(self, source):\n"
        "        pass\n"
        "\n"
        "    def foo_grouping(self, source):\n"
        "        pass\n"
    ))
    _write(tmp_path, "src/repro/apps/app.py", "spec.shuffle_grouping('a')\n")
    # callers inside storm/ and under tests/ keep nothing alive
    _write(tmp_path, "src/repro/storm/wiring.py", "spec.foo_grouping('a')\n")
    _write(tmp_path, "tests/test_foo.py", "spec.foo_grouping('a')\n")
    violations = check_api.check_grouping_surface(tmp_path)
    assert len(violations) == 1
    (rel, lineno, rule, message) = violations[0]
    assert rel == Path("src/repro/storm/topology.py") and lineno == 5
    assert rule == "unused-grouping-surface"
    assert "foo_grouping" in message

