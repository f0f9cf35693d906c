"""Smoke runs of the examples: each ``main()`` runs to the end in a fresh
working directory and prints what it promises."""

import hashlib
import importlib.util
import json
import os

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _run_example(name, monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(EXAMPLES, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    module.main()
    return capsys.readouterr().out


def test_chaos_recovery_invariant_holds(monkeypatch, tmp_path, capsys):
    out = _run_example("chaos_recovery", monkeypatch, tmp_path, capsys)
    assert "committed 6/6 transactions, 1 daemon incarnation" in out
    assert "scheduled kills" in out
    assert "byte-identical to the uncrashed run: True" in out


def test_timeline_export_writes_both_artifacts(
    monkeypatch, tmp_path, capsys, portable_timeline
):
    """Both artifacts are pinned by sha1 (the timeline less its
    interpreter-gauge track); the digests predate the tracer's ring."""
    out = _run_example("timeline_export", monkeypatch, tmp_path, capsys)
    assert "chaos: 3 kills, 3 respawns" in out
    assert "pool-0#1" in out
    results = tmp_path / "bench-results"
    timeline = portable_timeline(
        json.loads((results / "TRACE_chaos_crash_respawn.json").read_text())
    )
    events = (results / "EVENTS_chaos_crash_respawn.jsonl").read_bytes()
    assert hashlib.sha1(timeline.encode()).hexdigest() == (
        "e7f8d805c677b9b22a413433fdccb11f35d9bdea"
    )
    assert hashlib.sha1(events).hexdigest() == (
        "cf7bbaa119196658601b5808e9d56f36eaeeb192"
    )



# The four examples that replay a collected trace through PA-S3fs: each
# test pins one line of the example's deterministic output.


def test_quickstart(monkeypatch, tmp_path, capsys):
    out = _run_example("quickstart", monkeypatch, tmp_path, capsys)
    assert "files directly output by 'sort': ['f-000004_0']" in out


def test_faulty_data_propagation(monkeypatch, tmp_path, capsys):
    out = _run_example("faulty_data_propagation", monkeypatch, tmp_path, capsys)
    assert "  f-000028_0  ->  /mnt/s3/pipeline/report.pdf" in out


def test_sdss_debugging(monkeypatch, tmp_path, capsys):
    out = _run_example("sdss_debugging", monkeypatch, tmp_path, capsys)
    assert "    + java -jar reduce.jar --run=2" in out


def test_search_ranking(monkeypatch, tmp_path, capsys):
    out = _run_example("search_ranking", monkeypatch, tmp_path, capsys)
    assert "   2.620  /mnt/s3/proj/kinetics.ipynb" in out
