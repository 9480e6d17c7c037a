import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.channel import ChannelConfig, family_config, simulate_run
from physkey.cli import _load_config, main
from physkey.errors import PhyskeyError
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

    @pytest.mark.parametrize("magnitude", ["-1", "0"])
    def test_magnitude_below_one_fails_closed(self, run_dir, capsys, magnitude):
        code = main(["ingest", "--alice", str(run_dir / "alice.csv"),
                     "--bob", str(run_dir / "bob.csv"), "--magnitude", magnitude])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: magnitude must be at least 1")
        assert captured.out == ""


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
    ("validate-assumptions", ["--max-lag", "0"], "max_lag must be at least 1"),
    ("validate-assumptions", ["--max-lag", "-2"], "max_lag must be at least 1"),
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


SMALL_CONFIG = family_config(levels=3, n=100).to_dict()
DELETE = object()


def config_with(path, value):
    """A copy of SMALL_CONFIG with the field at path set to value, or
    deleted when value is DELETE."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("command, flag, doc, reason", [
    ("plan", "--fits", {}, "missing field 'g'"),
    ("plan", "--fits", {"g": {"slope": 1.0, "intercept": 0.0}, "e": {}},
     "missing field 'slope'"),
    ("plan", "--fits", [1, 2], "expected a JSON object"),
    ("simulate", "--config", {}, "missing field 'model'"),
    ("simulate", "--config", {"calibrate": {}}, "missing field 'entropy_rate'"),
    ("simulate", "--config", {"calibrate": 5}, "not subscriptable"),
    ("simulate", "--config", [1, 2], "expected a JSON object"),
    ("simulate", "--config", {"calibrate": 5}, "field 'calibrate' has the wrong type"),
    ("plan", "--fits", {"g": [1.0], "e": {}}, "field 'g' has the wrong type"),
    ("simulate", "--config", config_with(("n",), True), "field 'n' has the wrong type"),
    ("simulate", "--config", config_with(("seed",), False), "field 'seed' has the wrong type"),
    ("simulate", "--config", config_with(("model", "k"), True),
     "field 'model.k' has the wrong type"),
    ("simulate", "--config", config_with(("model", "k"), None),
     "field 'model.k' has the wrong type"),
    ("simulate", "--config", config_with(("model", "m"), None),
     "field 'model.m' has the wrong type"),
    ("simulate", "--config", config_with(("model", "states"), "012"),
     "field 'model.states' has the wrong type"),
    ("simulate", "--config", config_with(("model", "symbols"), {"0": 1, "1": 2, "2": 3}),
     "field 'model.symbols' has the wrong type"),
    ("simulate", "--config", {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054,
                                            "levels": True}},
     "field 'calibrate.levels' has the wrong type"),
])
def test_bad_config_or_fits_fails_closed(tmp_path, capsys, command, flag, doc, reason):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    required = {"plan": ["--l", "64", "--lambda", "40", "--c", "0.5"],
                "simulate": ["--out", str(tmp_path / "sim")]}[command]
    code = main([command, *required, flag, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {path}: ") and reason in captured.err
    assert captured.out == ""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
OBJECTS = st.integers() | st.lists(st.integers(), min_size=1, max_size=3)
NUMBERS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
WRONG_TYPES = {  # a value of the wrong type for each field
    ("model",): OBJECTS, ("bob_error",): OBJECTS, ("calibration",): OBJECTS,
    ("n",): NUMBERS | st.booleans(), ("seed",): NUMBERS | st.booleans(),
    ("model", "k"): NUMBERS | st.booleans() | st.none(),
    ("model", "m"): NUMBERS | st.booleans() | st.none(), ("model", "pi"): NUMBERS,
    ("model", "trans"): NUMBERS, ("model", "emit"): NUMBERS,
    ("model", "states"): st.none() | st.integers() | st.text() | NUMBERS,
    ("model", "symbols"): st.none() | st.integers() | st.text() | NUMBERS,
}


def field_paths(doc, prefix=()):
    # the key or index path of every value nested in a JSON document
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


class TestDamagedConfig:
    """Channel configs, model included, damaged one field at a time and
    loaded as simulate --config loads them."""

    @staticmethod
    def load(tmp_path_factory, path, value):
        file = tmp_path_factory.getbasetemp() / "damaged.json"
        file.write_text(json.dumps(config_with(path, value)))
        return file, lambda: _load_config(str(file))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(field_paths(SMALL_CONFIG), key=str)),
           st.just(DELETE) | JSON_VALUES)
    def test_any_damage_loads_or_names_the_file(self, tmp_path_factory, path, value):
        file, load = self.load(tmp_path_factory, path, value)
        try:
            config = load()
        except PhyskeyError as exc:
            assert str(exc).startswith(f"{file}: ")
        else:
            assert isinstance(config, ChannelConfig)

    @pytest.mark.parametrize("path", [("n",), ("seed",), ("model", "k")])
    def test_infinite_count_fails_closed(self, tmp_path_factory, path):
        # JSON's Infinity parses as a float that no int() accepts
        file, load = self.load(tmp_path_factory, path, float("inf"))
        with pytest.raises(PhyskeyError, match="infinity"):
            load()

    @pytest.mark.parametrize("path, reason", [
        (("model", "pi", 0), "pi has a NaN probability"),
        (("model", "emit", 1, 2), "emit has a NaN probability"),
        (("bob_error", "0"), "bob_error sums to nan")])
    def test_nan_probability_fails_closed(self, tmp_path_factory, path, reason):
        # every range check compares, and NaN fails each comparison silently
        file, load = self.load(tmp_path_factory, path, float("nan"))
        with pytest.raises(PhyskeyError, match=reason):
            load()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(WRONG_TYPES)).flatmap(
        lambda path: st.tuples(st.just(path), WRONG_TYPES[path])))
    def test_wrong_type_names_the_field(self, tmp_path_factory, case):
        path, value = case
        file, load = self.load(tmp_path_factory, path, value)
        with pytest.raises(PhyskeyError) as info:
            load()
        field = ".".join(path)
        assert str(info.value).startswith(f"{file}: field {field!r} has the wrong type: ")


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


class TestSeededOutputs:
    """JSON stdout of the analysis commands on the run_dir traces, pinned to
    fixed digests: speedups of the parser or the assumption suite must
    reproduce every byte, the suite's random draws included."""

    COMMANDS = {  # name: (argv after the trace flags, sha256 of stdout)
        "estimate-entropy": (["--levels", "9"],
                             "ba006353a1836248bf03353ccec2caf41790ca94f92b73008141cb49ff8a1f28"),
        "fit-growth": (["--levels", "9", "--slice-samples", "200", "--step", "20"],
                       "193608afea0f637f40aa24850fc89b02e3d5372b73478a4e3f1d55bb35648823"),
        "validate-assumptions": (
            [], "bad9666e8e59835bad3ffe7067cf1b01b93cf12150a6b7b94d59f6a838ed8738"),
        "validate-assumptions --trials 37 --seed 9": (
            ["--trials", "37", "--seed", "9"],
            "438f12144e8450fbd06ec829ac92938302833681da02875e2ec3802cce706774"),
        "ingest --eve-filter": (
            ["--eve-filter"], "5a8a805646dc7e5d2a91e46b14fee517bfe6e71818b44945a29fc3897996f7d3"),
        "extract-key": (
            ["--l", "16", "--lambda", "2", "--c", "0.05", "--seed", "21"],
            "e4c5ac26d53216a7afb68aa62a2b61fec8ae5e1e7c40ac6fb118d128cb0ebaeb"),
    }
    ROLES = {"estimate-entropy": ("alice", "eve"), "fit-growth": ("alice", "bob", "eve"),
             "validate-assumptions": ("alice", "eve"), "ingest": ("alice", "bob", "eve"),
             "extract-key": ("alice", "bob")}

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_analysis_golden(self, run_dir, capsys, name):
        extra, digest = self.COMMANDS[name]
        command = name.split()[0]
        traces = [a for role in self.ROLES[command]
                  for a in (f"--{role}", run_dir / f"{role}.csv")]
        code, out = invoke(capsys, command, *traces, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plan_on_fitted_growth(self, run_dir, capsys):
        traces = [a for role in self.ROLES["fit-growth"]
                  for a in (f"--{role}", run_dir / f"{role}.csv")]
        code, fits = invoke(capsys, "fit-growth", *traces, *self.COMMANDS["fit-growth"][0])
        assert code == 0
        (run_dir / "fits.json").write_text(fits)
        code, out = invoke(capsys, "plan", "--l", "128", "--lambda", "80", "--c", "1",
                           "--fits", run_dir / "fits.json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "18f3a8eec68c05bf351b792914c09ec328e07f882ebafb9bd9140bc1f3547115"
