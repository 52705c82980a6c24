"""The experiment entry point: one named run per results/*.csv, for every
paper table and figure."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.experiments import harness as H

ROOT = Path(__file__).resolve().parent.parent


def test_every_paper_table_and_figure_has_a_run():
    assert {name.split("_")[0] for name in H.RUNS} == {
        "table1", "table3", "table4",
        *(f"fig{i}" for i in range(4, 12)),
    }


def test_runs_results_and_manifest_agree():
    results = ROOT / "results"
    manifest = json.loads((results / "MANIFEST.json").read_text())
    stems = {p.stem for p in results.glob("*.csv")}
    assert stems == set(H.RUNS) == set(manifest)
    # every CSV was written by committed code
    dirty = [n for n, e in manifest.items() if e["commit"].endswith("-dirty")]
    assert dirty == []


def test_cli_help_lists_every_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--help"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    for name in [*H.RUNS, "all"]:
        assert name in out.stdout


def test_cli_times_sessionless_runs_before_building_the_session(
    monkeypatch,
):
    """`all` runs every run that takes no SparkSession first, then builds
    one session for the first run that takes it, so a timed run never
    shares its process with a live session."""
    import repro.experiments.__main__ as cli

    events = []
    session = SimpleNamespace(stop=lambda: events.append("stop"))

    def build_session(app):
        events.append("session")
        return session

    monkeypatch.setattr(cli, "build_session", build_session)
    monkeypatch.setattr(
        cli, "run", lambda name, spark: events.append((name, spark))
    )
    monkeypatch.setattr(sys, "argv", ["repro.experiments", "all"])
    cli.main()
    assert events == [
        *((n, None) for n, r in H.RUNS.items() if not r.spark),
        "session",
        *((n, session) for n, r in H.RUNS.items() if r.spark),
        "stop",
    ]


def test_run_writes_csv_and_manifest_entry(tmp_path, monkeypatch):
    monkeypatch.setattr(H, "RESULTS_DIR", tmp_path)
    df = H.run("table4_evolving_datasets")
    csv = (tmp_path / "table4_evolving_datasets.csv").read_text()
    assert csv == H.evolving_datasets_table().to_csv(index=False)
    assert csv == df.to_csv(index=False)
    entry = json.loads((tmp_path / "MANIFEST.json").read_text())
    assert set(entry) == {"table4_evolving_datasets"}
    assert set(entry["table4_evolving_datasets"]) == {
        "commit", "nproc", "mem_gb", "seconds",
    }
