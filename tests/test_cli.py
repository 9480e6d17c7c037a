import json

import numpy as np
import pytest

from physkey.channel import family_config, simulate_run
from physkey.cli import main
from physkey.traces import trace_to_file


@pytest.fixture()
def run_dir(tmp_path):
    cfg = family_config(levels=9, decay=1.0, spread=0.4, band=2, q=0.02,
                        n=4000, seed=3)
    run = simulate_run(cfg)
    for trace in (run.alice, run.bob, run.eve):
        trace_to_file(trace).save(tmp_path / f"{trace.node_id}.csv")
    (tmp_path / "ch.json").write_text(json.dumps(cfg.to_dict()))
    return tmp_path


def invoke(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestSimulate:
    def test_writes_three_csvs(self, run_dir, capsys):
        code, out = invoke(capsys, "simulate", "--config", run_dir / "ch.json",
                           "--n", "500", "--seed", "7", "--out", run_dir / "sim")
        assert code == 0
        for name in ("alice", "bob", "eve"):
            assert (run_dir / "sim" / f"{name}.csv").exists()

    def test_seed_reproducible(self, run_dir, capsys):
        for d in ("s1", "s2"):
            code, _ = invoke(capsys, "simulate", "--config", run_dir / "ch.json",
                             "--n", "200", "--seed", "9", "--out", run_dir / d)
            assert code == 0
        a = (run_dir / "s1" / "alice.csv").read_text()
        b = (run_dir / "s2" / "alice.csv").read_text()
        assert a == b


class TestIngest:
    def test_report(self, run_dir, capsys):
        code, out = invoke(capsys, "ingest", "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv", "--eve", run_dir / "eve.csv",
                           "--eve-filter", "--out", run_dir / "aligned")
        assert code == 0
        doc = json.loads(out)
        assert doc["kept"] == 4000
        assert (run_dir / "aligned" / "alice.csv").exists()

    def test_domain_error_exit_1(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("seq,node_id,frame_type,rssi\n1,alice,PING,-3\n")
        (tmp_path / "b.csv").write_text("seq,node_id,frame_type,rssi\n9,bob,PONG,-3\n")
        code = main(["ingest", "--alice", str(tmp_path / "a.csv"),
                     "--bob", str(tmp_path / "b.csv")])
        assert code == 1

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--alice", "x.csv"])  # --bob missing
        assert exc.value.code == 2


class TestEstimateEntropy:
    def test_pipeline(self, run_dir, capsys):
        code, out = invoke(capsys, "estimate-entropy",
                           "--alice", run_dir / "alice.csv",
                           "--eve", run_dir / "eve.csv",
                           "--levels", "9", "--slice", "100")
        assert code == 0
        doc = json.loads(out)
        est = doc["estimate"]
        assert est["n_experiments"] == 40
        assert est["n_samples_per_experiment"] == 100
        assert 0 < est["mean_bits"] < 100 * np.log2(9)


class TestFitGrowth:
    def test_fits_and_series(self, run_dir, capsys):
        code, out = invoke(capsys, "fit-growth",
                           "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv",
                           "--eve", run_dir / "eve.csv",
                           "--levels", "9", "--slice-samples", "200", "--step", "20",
                           "--out-csv", run_dir / "series.csv")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"]["slope"] > 0
        assert doc["e"]["slope"] > 0
        lines = (run_dir / "series.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,entropy_mean")
        assert len(lines) == 11
        (run_dir / "fits.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("command, extra, reason", [
    ("estimate-entropy", ["--slice", "0"], "at least 1"),
    ("estimate-entropy", ["--slice", "-5"], "at least 1"),
    ("fit-growth", ["--slice-samples", "0"], "at least 1"),
    ("fit-growth", ["--step", "500"], "checkpoint"),
    ("fit-growth", ["--step", "-10"], "checkpoint"),
    ("validate-assumptions", ["--slice", "0"], "at least 1"),
    ("fit-growth", ["--step", "0"], "--step must be at least 1"),
    ("validate-assumptions", ["--trials", "0"], "trials must be at least 1"),
])
def test_bad_slice_or_step_fails_closed(run_dir, capsys, command, extra, reason):
    traces = {"alice": run_dir / "alice.csv", "eve": run_dir / "eve.csv"}
    if command == "fit-growth":
        traces["bob"] = run_dir / "bob.csv"
    args = [a for role, path in traces.items() for a in (f"--{role}", path)]
    code = main([command, *map(str, args), "--levels", "9", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and reason in captured.err
    assert captured.out == ""


class TestPlanAndExtract:
    def test_plan_reference(self, capsys):
        code, out = invoke(capsys, "plan", "--l", "128", "--lambda", "80", "--c", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2325
        assert doc["published_formula_n"] == 2325.0
        assert doc["margin_constant_recomputed"] == pytest.approx(545.4)

    def test_plan_with_fits_file(self, tmp_path, capsys):
        fits = {"g": {"slope": 1.0, "intercept": 0.0},
                "e": {"slope": 0.04, "intercept": 0.0}}
        (tmp_path / "fits.json").write_text(json.dumps(fits))
        code, out = invoke(capsys, "plan", "--l", "64", "--lambda", "40", "--c", "0.5",
                           "--fits", tmp_path / "fits.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] >= doc["entropy_bound_n"]

    def test_extract_key_round_trip(self, run_dir, capsys):
        code, out = invoke(capsys, "extract-key",
                           "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv",
                           "--l", "16", "--lambda", "2", "--c", "0.05",
                           "--seed", "21", "--n", "400",
                           "--transcript", run_dir / "t.bin")
        assert code == 0
        doc = json.loads(out)
        assert doc["ledger"]["sketch_loss_bits"] > 0
        assert (run_dir / "t.bin").exists()
        if doc["success"]:
            assert doc["alice_key"] == doc["bob_key"]

    def test_extract_key_seed_reproducible(self, run_dir, capsys):
        outs = []
        for _ in range(2):
            code, out = invoke(capsys, "extract-key",
                               "--alice", run_dir / "alice.csv",
                               "--bob", run_dir / "bob.csv",
                               "--l", "16", "--lambda", "2", "--c", "0.05",
                               "--seed", "33", "--n", "400")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestValidateAssumptions:
    def test_report_and_lag_csv(self, run_dir, capsys):
        code, out = invoke(capsys, "validate-assumptions",
                           "--alice", run_dir / "alice.csv",
                           "--eve", run_dir / "eve.csv",
                           "--trials", "30", "--max-lag", "3",
                           "--levels", "9", "--seed", "4",
                           "--lag-csv", run_dir / "lag.csv")
        assert code == 0
        doc = json.loads(out)
        assert doc["identical_distribution_rejection_rate"] <= 0.10
        lag_lines = (run_dir / "lag.csv").read_text().strip().splitlines()
        assert lag_lines[0] == "lag,r,significant"
        assert len(lag_lines) == 5


class TestReport:
    def test_renders_json(self, tmp_path, capsys):
        (tmp_path / "r.json").write_text(json.dumps(
            {"success": True, "ledger": {"key_bits": 128},
             "per_experiment_bits": list(range(40))}))
        code, out = invoke(capsys, "report", "--input", tmp_path / "r.json")
        assert code == 0
        assert "key_bits: 128" in out
        assert "[40 values]" in out
