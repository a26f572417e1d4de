"""tools/bench_record.py writes what perfbench's compare decides, as JSON."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(directory, seed, wall, commit, trace=0, counts=None):
    rec = {"workload": "algebra", "seed": seed, "trace": trace, "attempted": 18, "failed": 0,
           "env": {"numpy": "2.4", "seed": seed, "git_commit": commit},
           "metrics": {"wall_s": {"value": wall, "unit": "s"},
                       "peak_rss_mb": {"value": 100.0, "unit": "MB"},
                       "setup_s": {"value": 0.5, "unit": "s"}},
           "workload_metrics": {"star_ms_p50.n512": {"value": 10 * wall, "unit": "ms"}}}
    if counts is not None:
        rec["counts"] = counts
    directory.mkdir(exist_ok=True)
    (directory / f"algebra-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def test_record_matches_the_compare_verdicts(tmp_path, capsys):
    tool = _load_tool()
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    for seed in range(1, 11):
        _write(parent, seed, 2.0 + 0.01 * seed, "p")
        _write(change, seed, 1.0 + 0.01 * seed, "c")
    _write(parent, 31, 2.0, "p", trace=1, counts={"star_algebra.star.calls": 45})
    _write(change, 31, 1.0, "c", trace=1, counts={"star_algebra.star.calls": 46})
    assert tool.main([str(parent), str(change), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    rows = {(r["workload"], r["metric"]): r for r in rec["metrics"]}
    wall = rows[("algebra", "wall_s")]
    assert wall["pairs"] == 10 and wall["verdict"] == "improved" and wall["bound"] == 0.25
    assert wall["parent_q1_med_q3"][1] == tool.quartiles([2.0 + 0.01 * s for s in range(1, 11)])[1]
    assert rows[("algebra", "peak_rss_mb")]["verdict"] == "unchanged"
    assert rows[("algebra", "star_ms_p50.n512")]["verdict"] == "improved"
    assert rec["parent"]["environments"] == [{"numpy": "2.4", "git_commit": "p"}]
    assert rec["change"]["attempted/failed"]["algebra"]["3"] == "18/0"
    assert rec["count_differences"] == [{"workload": "algebra", "seed": 31, "count": "star_algebra.star.calls",
                                         "parent": 45, "change": 46}]
    assert capsys.readouterr().err == ""


def test_record_warns_when_a_side_has_no_commit(tmp_path, capsys):
    tool = _load_tool()
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    _write(parent, 1, 2.0, "p")
    _write(change, 1, 1.0, None)
    assert tool.main([str(parent), str(change), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: change runs record no git commit\n"
