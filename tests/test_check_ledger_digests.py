"""``scripts/check_ledger_digests.py``: the CI guard on ledger digests."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "check_ledger_digests.py"
)
_spec = importlib.util.spec_from_file_location("check_ledger_digests", _SCRIPT)
check_ledger_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_ledger_digests)


def _records(tmp_path, digests, seed=7):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([
        {"workload": name, "seed": seed, "digest": d}
        for name, d in digests.items()
    ]))
    return str(path)


def _pinned():
    return json.loads(check_ledger_digests.GOLDEN.read_text())


def test_golden_pins_all_five_workloads_at_seed_7():
    golden = _pinned()
    assert golden["seed"] == 7
    assert sorted(golden["digests"]) == sorted([
        "url_count_slow_worker", "cq_slow_worker", "chaos_crash_loss",
        "url_count_observed", "control_plane_replay",
    ])
    assert all(len(d) == 64 for d in golden["digests"].values())


def test_matching_records_pass(tmp_path, capsys):
    path = _records(tmp_path, _pinned()["digests"])
    assert check_ledger_digests.main([path]) == 0
    assert "match" in capsys.readouterr().out


def test_mismatch_fails(tmp_path, capsys):
    digests = dict(_pinned()["digests"])
    digests["cq_slow_worker"] = "0" * 64
    assert check_ledger_digests.main([_records(tmp_path, digests)]) == 1
    assert "cq_slow_worker: digest" in capsys.readouterr().err


def test_missing_workload_or_other_seed_fails(tmp_path, capsys):
    digests = dict(_pinned()["digests"])
    del digests["chaos_crash_loss"]
    assert check_ledger_digests.main([_records(tmp_path, digests)]) == 1
    assert "chaos_crash_loss: missing" in capsys.readouterr().err
    other_seed = _records(tmp_path, _pinned()["digests"], seed=8)
    assert check_ledger_digests.main([other_seed]) == 1
