import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.channel import ChannelConfig, family_config, simulate_run
from physkey.cli import _load_config, main
from physkey.errors import PhyskeyError
from physkey.traces import (CSV_HEADER, MeasurementTrace, load_trace, make_trace,
                            trace_to_file)


@pytest.fixture()
def run_dir(tmp_path):
    cfg = family_config(levels=9, decay=1.0, spread=0.4, band=2, q=0.02,
                        n=4000, seed=3)
    run = simulate_run(cfg)
    for trace in (run.alice, run.bob, run.eve):
        trace_to_file(trace).save(tmp_path / f"{trace.node_id}.csv")
    (tmp_path / "ch.json").write_text(json.dumps(cfg.to_dict()))
    return tmp_path


def save_without(run_dir, role, seqs, name):
    """Save run_dir's trace of role, less the samples at seqs, as name.csv."""
    trace = load_trace(run_dir / f"{role}.csv", role)
    keep = ~np.isin(trace.seqs, list(seqs))
    path = run_dir / f"{name}.csv"
    trace_to_file(MeasurementTrace(trace.seqs[keep], trace.levels[keep], role,
                                   trace.frame_type)).save(path)
    return path


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
                           "--out", run_dir / "aligned")
        assert code == 0
        doc = json.loads(out)
        assert doc["kept"] == 4000
        assert (run_dir / "aligned" / "alice.csv").exists()

    def test_writes_what_every_trace_holds(self, run_dir, capsys):
        eve = save_without(run_dir, "eve", range(100, 110), "eve_gaps")
        code, out = invoke(capsys, "ingest", "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv", "--eve", eve,
                           "--out", run_dir / "aligned")
        assert code == 0
        doc = json.loads(out)
        assert doc["kept"] == 4000 - 10
        assert doc["dropped"] == {"alice": 10, "bob": 10, "eve": 0}
        seqs = [load_trace(run_dir / "aligned" / f"{role}.csv", role).seqs
                for role in ("alice", "bob", "eve")]
        assert seqs[0].size == 4000 - 10 and not np.isin(range(100, 110), seqs[0]).any()
        assert all(np.array_equal(s, seqs[0]) for s in seqs[1:])

    def test_eve_filter_drops_what_any_eve_missed(self, run_dir, capsys):
        eves = [save_without(run_dir, "eve", range(10, 15), "eve_a"),   # has 15..19
                save_without(run_dir, "eve", range(12, 20), "eve_b")]   # has 10, 11
        code, out = invoke(capsys, "ingest", "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv", "--eve", eves[0], "--eve", eves[1])
        assert code == 0
        doc = json.loads(out)
        assert doc["kept"] == 4000 - 10
        assert doc["dropped"] == {"alice": 10, "bob": 10, "eve0": 5, "eve1": 2}
        assert doc["eve_ids"] == ["eve0", "eve1"]

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


@pytest.mark.parametrize("command", ["estimate-entropy", "validate-assumptions"])
def test_eve_view_reported_as_eve(run_dir, capsys, command):
    # Alice missed 10..14, which Eve saw; Eve missed 100..102, which Alice saw
    alice = save_without(run_dir, "alice", range(10, 15), "alice_gaps")
    eve = save_without(run_dir, "eve", range(100, 103), "eve_gaps")
    code, out = invoke(capsys, command, "--alice", alice, "--eve", eve)
    assert code == 0
    ingest = json.loads(out)["ingest"]
    assert ingest["kept"] == 4000 - 8
    assert ingest["dropped"] == {"alice": 3, "eve": 5}
    assert ingest["eve_ids"] == ["eve"]


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
        assert doc["max_level_offset"] == 1  # Bob's levels err by one at most
        lines = (run_dir / "series.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,entropy_mean")
        assert len(lines) == 11
        (run_dir / "fits.json").write_text(json.dumps(doc))


def case(label, *values):
    """pytest.param of values whose id joins its string values, with label in
    place of the one that is not a string.  A case's id is fixed where it is
    written, so adding a case renames none."""
    return pytest.param(*values, id="-".join(v if isinstance(v, str) else label
                                             for v in values))


@pytest.mark.parametrize("command, extra, reason", [
    case("extra0", "estimate-entropy", ["--slice", "0"], "at least 1"),
    case("extra1", "estimate-entropy", ["--slice", "-5"], "at least 1"),
    case("extra2", "fit-growth", ["--slice-samples", "0"], "at least 1"),
    case("extra3", "fit-growth", ["--step", "500"], "checkpoint"),
    case("extra4", "fit-growth", ["--step", "-10"], "checkpoint"),
    case("extra5", "validate-assumptions", ["--slice", "0"], "at least 1"),
    case("extra6", "fit-growth", ["--step", "0"], "--step must be at least 1"),
    case("extra10", "estimate-entropy", ["--levels", "0"], "--levels must be at least 2"),
    case("extra11", "estimate-entropy", ["--levels", "1"], "--levels must be at least 2"),
    case("extra12", "fit-growth", ["--levels", "0"], "--levels must be at least 2"),
    case("extra13", "fit-growth", ["--levels", "1"], "--levels must be at least 2"),
    case("extra14", "validate-assumptions", ["--levels", "0"], "--levels must be at least 2"),
    case("extra15", "validate-assumptions", ["--levels", "1"], "--levels must be at least 2"),
    case("extra22", "fit-growth", ["--step", "101"],
         "--step must be at least 1 and at most --slice-samples // 2 = 100"),
    case("extra23", "fit-growth", ["--slice-samples", "30", "--step", "16"],
         "at most --slice-samples // 2 = 15 to place two checkpoints, got 16"),
    case("extra24", "simulate", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    case("extra25", "extract-key", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    case("extra27", "estimate-entropy", ["--levels", "257"],
         "--levels must be at most 256, got 257"),
    case("extra28", "fit-growth", ["--levels", "257"], "--levels must be at most 256, got 257"),
    case("extra29", "validate-assumptions", ["--levels", "257"],
         "--levels must be at most 256, got 257"),
    case("extra30", "estimate-entropy", ["--slice", str(10 ** 20)],
         f"need at least {10 ** 20} aligned samples"),
    case("extra31", "estimate-entropy", ["--slice", "0"],
         "slice length must be at least 1, got 0"),
    # the run holds 4000 aligned samples, fewer than two slices of 2001
    case("extra32", "fit-growth", ["--slice-samples", "2001"],
         "need at least 4002 aligned samples"),
    case("levels0", "ingest", ["--levels", "0"], "--levels must be at least 2"),
    case("levels1", "ingest", ["--levels", "1"], "--levels must be at least 2"),
    case("levels257", "ingest", ["--levels", "257"], "--levels must be at most 256, got 257"),
])
def test_bad_slice_or_step_fails_closed(run_dir, capsys, command, extra, reason):
    roles = {"fit-growth": ["alice", "bob", "eve"], "ingest": ["alice", "bob", "eve"],
             "extract-key": ["alice", "bob"]}.get(command, ["alice", "eve"])
    args = [a for role in roles for a in (f"--{role}", run_dir / f"{role}.csv")]
    if command == "simulate":
        args = ["--config", run_dir / "ch.json", "--out", run_dir / "sim"]
    elif command != "extract-key":
        args += ["--levels", "9"]
    code = main([command, *map(str, args), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and reason in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("row", [
    "2,bob,PING,-1",  # a second node id
    "1,alice,PING,-1",  # a repeated seq
    "2,alice,OBS,-1",  # a second frame type
])
def test_second_node_frame_or_repeated_seq_fails_closed(run_dir, capsys, row):
    # alice.csv holds node alice, frame type PING, seqs 0, 1, 2, ...
    path = run_dir / "alice.csv"
    lines = path.read_text().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    code = main(["estimate-entropy", "--alice", str(path), "--eve", str(run_dir / "eve.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {path}:4: row {row!r} is not ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["estimate-entropy", "ingest"])
@pytest.mark.parametrize("body", ["", "\n\n"])
def test_file_without_rows_fails_closed(run_dir, capsys, command, body):
    path = run_dir / "empty.csv"
    path.write_text(f"{CSV_HEADER}\n{body}")
    other = {"estimate-entropy": "--eve", "ingest": "--bob"}[command]
    code = main([command, "--alice", str(path), other, str(run_dir / "eve.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {path}: no data rows\n" and captured.out == ""


def test_file_not_utf8_fails_closed(run_dir, capsys):
    # line 3's rssi becomes the byte 0xff, which opens no UTF-8 character
    path = run_dir / "alice.csv"
    raw = path.read_bytes()
    start = raw.index(b"\n1,alice,PING,") + len(b"\n1,alice,PING,")
    path.write_bytes(raw[:start] + b"\xff" + raw[raw.index(b"\n", start):])
    code = main(["estimate-entropy", "--alice", str(path), "--eve", str(run_dir / "eve.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {path}:3: byte 0xff at offset {start} is not UTF-8\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, target, message", [
    ("simulate", "physkey.channel.simulate_run", ""),
    ("validate-assumptions", "physkey.stats.validate_assumptions",
     "Unable to allocate 671. GiB for an array with shape (10000000000, 9)"),
])
def test_out_of_memory_fails_closed(run_dir, capsys, monkeypatch, command, target, message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, allocate)
    args = {"simulate": ["--config", run_dir / "ch.json", "--out", run_dir / "sim",
                         "--n", 10 ** 12],
            "validate-assumptions": ["--alice", run_dir / "alice.csv",
                                     "--eve", run_dir / "eve.csv"]}
    code = main([command, *map(str, args[command])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: out of memory" + (f": {message}" if message else "") + "\n")
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
    case("doc0", "plan", "--fits", {}, "missing field 'g'"),
    case("doc1", "plan", "--fits", {"g": {"slope": 1.0, "intercept": 0.0}, "e": {}},
         "missing field 'slope'"),
    case("doc2", "plan", "--fits", [1, 2], "expected a JSON object"),
    case("doc3", "simulate", "--config", {}, "missing field 'model'"),
    case("doc4", "simulate", "--config", {"calibrate": {}}, "missing field 'entropy_rate'"),
    case("doc5", "simulate", "--config", {"calibrate": 5}, "not subscriptable"),
    case("doc6", "simulate", "--config", [1, 2], "expected a JSON object"),
    case("doc7", "simulate", "--config", {"calibrate": 5},
         "field 'calibrate' has the wrong type"),
    case("doc8", "plan", "--fits", {"g": [1.0], "e": {}}, "field 'g' has the wrong type"),
    case("doc9", "simulate", "--config", config_with(("n",), True),
         "field 'n' has the wrong type"),
    case("doc10", "simulate", "--config", config_with(("seed",), False),
         "field 'seed' has the wrong type"),
    case("doc11", "simulate", "--config", config_with(("model", "k"), True),
         "field 'model.k' has the wrong type"),
    case("doc12", "simulate", "--config", config_with(("model", "k"), None),
         "field 'model.k' has the wrong type"),
    case("doc13", "simulate", "--config", config_with(("model", "m"), None),
         "field 'model.m' has the wrong type"),
    case("doc14", "simulate", "--config", config_with(("model", "states"), "012"),
         "field 'model.states' has the wrong type"),
    case("doc15", "simulate", "--config",
         config_with(("model", "symbols"), {"0": 1, "1": 2, "2": 3}),
         "field 'model.symbols' has the wrong type"),
    case("doc16", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "levels": True}},
         "field 'calibrate.levels' has the wrong type"),
    case("doc17", "simulate", "--config", config_with(("model", "states"), [0.5, 1.5, 2.5]),
         "field 'model.states' has the wrong type: expected an integer, got 0.5"),
    case("doc18", "simulate", "--config", config_with(("model", "symbols"), [-2, -1, 0.7]),
         "field 'model.symbols' has the wrong type: expected an integer, got 0.7"),
    case("doc19", "simulate", "--config", config_with(("model", "states"), ["-2", "-1", "0"]),
         "field 'model.states' has the wrong type"),
    case("doc20", "plan", "--fits", {"g": {"slope": 1.0, "intercept": float("inf")}, "e": {}},
         "field 'g.intercept' has the wrong type: expected a finite number, got inf"),
    case("doc21", "plan", "--fits", {"g": {"slope": 1.0, "intercept": float("nan")}, "e": {}},
         "field 'g.intercept' has the wrong type: expected a finite number, got nan"),
    case("doc22", "plan", "--fits", {"g": {"slope": True, "intercept": 0.0}, "e": {}},
         "field 'g.slope' has the wrong type: expected a finite number, got True"),
    case("doc23", "plan", "--fits", {"g": {"slope": 1.0, "intercept": 0.0},
                                     "e": {"slope": "0.04", "intercept": 0.0}},
         "field 'e.slope' has the wrong type: expected a finite number, got '0.04'"),
    case("doc24", "simulate", "--config", config_with(("bob_error", "0"), True),
         "field 'bob_error' has the wrong type: expected a number, got True"),
    case("doc25", "simulate", "--config",
         {"calibrate": {"entropy_rate": "0.1248", "word_error_rate": 0.0054}},
         "field 'calibrate.entropy_rate' has the wrong type: expected a finite number, "
         "got '0.1248'"),
    case("doc26", "simulate", "--config", config_with(("model", "pi"), [True, False, False]),
         "field 'model.pi' has the wrong type: expected a number, got True"),
    case("doc27", "simulate", "--config",
         config_with(("model", "trans"), [[True, False, False]] * 3),
         "field 'model.trans' has the wrong type: expected a number, got True"),
    case("doc28", "simulate", "--config",
         config_with(("model", "emit", 0), [str(p) for p in SMALL_CONFIG["model"]["emit"][0]]),
         "field 'model.emit' has the wrong type: expected a number, got '"),
    case("doc29", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "levels": 0}},
         "calibration failed: levels must be at least 2, got 0"),
    case("doc30", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "levels": -3}},
         "calibration failed: levels must be at least 2, got -3"),
    case("doc31", "simulate", "--config", config_with(("seed",), -1),
         "seed must be >= 0, got -1"),
    case("doc32", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "seed": -1}},
         "calibration failed: seed must be >= 0, got -1"),
    case("doc33", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "levels": 257}},
         "calibration failed: levels must be at most 256, got 257"),
    case("doc34", "plan", "--fits", {"g": {"slope": 1.0, "intercept": 0.0},
                                     "e": {"slope": 0.04, "intercept": 0.0},
                                     "max_level_offset": 1.5},
         "field 'max_level_offset' has the wrong type: expected an integer, got 1.5"),
    case("doc35", "plan", "--fits", {"g": {"slope": 1.0, "intercept": 0.0},
                                     "e": {"slope": 0.04, "intercept": 0.0},
                                     "max_level_offset": -1},
         "max_level_offset must be >= 0, got -1"),
    case("doc36", "simulate", "--config", config_with(("bob_error",), {"-1": -0.1, "0": 1.1}),
         "bob_error has a negative probability"),
    case("doc37", "simulate", "--config", config_with(("n",), 0), "n must be >= 1"),
    # bob_error keys in the one form to_dict writes; int() reads each of these
    case("doc38", "simulate", "--config",
         config_with(("bob_error",), {"1": 0.3, "01": 0.3, "0": 0.7}),
         "bob_error key '01' is not an integer offset"),
    case("doc39", "simulate", "--config",
         config_with(("bob_error",), {"-1": 0.02, "0": 0.96, "+1": 0.02}),
         "bob_error key '+1' is not an integer offset"),
    case("doc40", "simulate", "--config",
         config_with(("bob_error",), {"-1": 0.02, "0": 0.96, " 1": 0.02}),
         "bob_error key ' 1' is not an integer offset"),
    case("doc41", "simulate", "--config", config_with(("bob_error",), {"0": 0.98, "1_0": 0.02}),
         "bob_error key '1_0' is not an integer offset"),
    case("doc42", "simulate", "--config",
         config_with(("bob_error",), {"-1": 0.02, "-0": 0.96, "1": 0.02}),
         "bob_error key '-0' is not an integer offset"),
    # calibration targets no channel of the family reaches
    case("doc43", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.2}},
         "calibration failed: word error target >= 1 per word"),
    case("doc44", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.11}},
         "calibration failed: word error target out of reach"),
    case("doc45", "simulate", "--config",
         {"calibrate": {"entropy_rate": 0.39, "word_error_rate": 0.0054}},
         "calibration failed: no emission spread reaches the entropy target"),
    # raw text, not a document: nesting too deep for the JSON decoder
    *[pytest.param(command, flag, "[" * 100_000, "maximum recursion depth exceeded",
                   id=f"{command}-{flag}-deeply-nested")
      for command, flag in (("simulate", "--config"), ("plan", "--fits"))],
])
def test_bad_config_or_fits_fails_closed(tmp_path, capsys, command, flag, doc, reason):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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

    @pytest.mark.parametrize("offset", ["missing", None, 0, 3, 4])
    def test_level_offset_guard(self, run_dir, capsys, offset):
        # the fits file's max_level_offset is copied into the plan; above 3 it
        # makes the plan infeasible, and missing or null it checks nothing.
        # From 3 on the code and the entropy condition budget 3 bits per
        # erring sample, which this error line leaves room for
        fits = {"g": {"slope": 0.985, "intercept": 1.467},
                "e": {"slope": 0.016, "intercept": 0.0}}
        if offset != "missing":
            fits["max_level_offset"] = offset
        (run_dir / "fits.json").write_text(json.dumps(fits))
        exponents = ["--l", "16", "--lambda", "2", "--c", "0.05", "--fits", run_dir / "fits.json"]
        code, out = invoke(capsys, "plan", *exponents)
        assert code == 0
        plan = json.loads(out)
        code, out = invoke(capsys, "extract-key", "--alice", run_dir / "alice.csv",
                           "--bob", run_dir / "bob.csv", "--seed", "21", "--n", "400",
                           *exponents)
        assert code == 0
        o = 3 if offset in (3, 4) else 1
        for report in (plan, json.loads(out)["plan"]):
            assert report["max_level_offset"] == (None if offset == "missing" else offset)
            assert report["code"]["t"] == math.ceil(1.2 * o * 0.016 * report["n"])
            assert report["residual_certified"] is True
            assert report["feasible"] is (offset != 4)
            assert len(report["infeasible_reasons"]) == (offset == 4)
        # on the reference error line 57.6 e(n) outgrows g(n) at every n
        fits["e"] = {"slope": 0.043, "intercept": 0.048}
        (run_dir / "fits.json").write_text(json.dumps(fits))
        assert main(["plan", *map(str, exponents)]) == (1 if o == 3 else 0)
        if o == 3:
            assert "net entropy slope -" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["plan", "extract-key"])
@pytest.mark.parametrize("flag, value", [
    ("--lambda", "inf"), ("--lambda", "nan"), ("--c", "inf"), ("--c", "nan")])
def test_non_finite_exponent_fails_closed(run_dir, capsys, command, flag, value):
    # checked before the planner sizes anything
    extra = {"plan": ["--l", "128"],
             "extract-key": ["--alice", run_dir / "alice.csv", "--bob", run_dir / "bob.csv",
                             "--seed", "21"]}[command]
    exponents = {"--lambda": "80", "--c": "1", flag: value}
    code = main([command, *map(str, extra),
                 *(a for item in exponents.items() for a in item)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {flag[2:]} must be finite and >= 0, got {value}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["plan", "extract-key"])
@pytest.mark.parametrize("l", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
def test_oversized_key_length_fails_closed(run_dir, capsys, command, l):
    # an l no float holds, checked before the planner sizes anything
    extra = {"plan": [],
             "extract-key": ["--alice", run_dir / "alice.csv", "--bob", run_dir / "bob.csv",
                             "--seed", "21"]}[command]
    code = main([command, *map(str, extra), "--l", str(l), "--lambda", "80", "--c", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: l of 1329 bits does not fit a float\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["plan", "extract-key"])
@pytest.mark.parametrize("l", ["0", "-5"])
def test_key_length_below_one_fails_closed(run_dir, capsys, command, l):
    extra = {"plan": [],
             "extract-key": ["--alice", run_dir / "alice.csv", "--bob", run_dir / "bob.csv",
                             "--seed", "21"]}[command]
    code = main([command, *map(str, extra), "--l", l, "--lambda", "80", "--c", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: l must be >= 1, got {l}\n"
    assert captured.out == ""


@pytest.mark.parametrize("fits, reason", [
    case("fits0", {"g": {"slope": 0, "intercept": 0}, "e": {"slope": 0.04, "intercept": 0}},
         "entropy fit must have positive slope")])
def test_infeasible_fitted_line_fails_closed(tmp_path, capsys, fits, reason):
    (tmp_path / "f.json").write_text(json.dumps(fits))
    code = main(["plan", "--l", "64", "--lambda", "40", "--c", "0.5",
                 "--fits", str(tmp_path / "f.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {reason}\n" and captured.out == ""


@pytest.mark.parametrize("fits", [
    {"g": {"slope": 1, "intercept": 0}, "e": {"slope": 0.01, "intercept": 1e308}},
    {"g": {"slope": 1e-320, "intercept": 0}, "e": {"slope": 0, "intercept": 0}}])
def test_extreme_fitted_line_fails_closed(tmp_path, capsys, fits):
    # finite fits whose sample count overflows to infinity
    (tmp_path / "f.json").write_text(json.dumps(fits))
    code = main(["plan", "--l", "16", "--lambda", "2", "--c", "0.05",
                 "--fits", str(tmp_path / "f.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "no finite n has " in captured.err and captured.out == ""


class TestValidateAssumptions:
    def test_report_and_lag_csv(self, run_dir, capsys):
        code, out = invoke(capsys, "validate-assumptions",
                           "--alice", run_dir / "alice.csv",
                           "--eve", run_dir / "eve.csv", "--levels", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 0.05
        assert doc["identical_distribution_rejection_rate"] <= 0.10
        assert doc["markov_lag_profile"]["lags"] == list(range(7))
        assert list(doc["details"]["cross_lag"]["nonzero_lags"]) == [str(k) for k in range(1, 7)]

    def test_stable_entropy_is_the_estimate(self, run_dir, capsys):
        # the suite's stage (e) fits the model estimate-entropy fits
        traces = ["--alice", run_dir / "alice.csv", "--eve", run_dir / "eve.csv",
                  "--slice", "100"]
        code, estimate = invoke(capsys, "estimate-entropy", *traces)
        assert code == 0
        code, report = invoke(capsys, "validate-assumptions", *traces)
        assert code == 0
        assert json.loads(report)["stable_entropy"] == json.loads(estimate)["estimate"]

    @pytest.mark.parametrize("role", ["alice", "eve"])
    def test_single_level_trace_fails_closed(self, run_dir, capsys, role):
        # Alice's lag profile probes her at lag 0, the cross-lag probe Eve from lag 1
        trace_to_file(make_trace(np.full(4000, -2), role)).save(run_dir / f"{role}.csv")
        code = main(["validate-assumptions", "--alice", str(run_dir / "alice.csv"),
                     "--eve", str(run_dir / "eve.csv")])
        captured = capsys.readouterr()
        assert code == 1
        lag = {"alice": 0, "eve": 1}[role]
        assert captured.err == (f"error: zero-variance input: the {role} samples of the "
                                f"lag-{lag} probe hold a single level (-2); the correlation "
                                "probes need two\n")
        assert captured.out == ""

    def test_rare_level_trace_fails_closed(self, run_dir, capsys):
        # one -1 among 4,000 zeros: the lag profile's random anchors miss it
        alice = np.zeros(4000, dtype=np.int64)
        alice[10] = -1
        trace_to_file(make_trace(alice, "alice")).save(run_dir / "alice.csv")
        code = main(["validate-assumptions", "--alice", str(run_dir / "alice.csv"),
                     "--eve", str(run_dir / "eve.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: zero-variance input: the alice samples of the lag-0 "
                                "probe hold a single level (0); the correlation probes need "
                                "two\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, option", [
        ("estimate-entropy", ["--smoothing", "0"]), ("fit-growth", ["--smoothing", "0"]),
        ("validate-assumptions", ["--lag-csv", "x"]), ("validate-assumptions", ["--alpha", "0.05"]),
        ("validate-assumptions", ["--trials", "200"]), ("validate-assumptions", ["--max-lag", "6"]),
        ("validate-assumptions", ["--seed", "0"])])
    def test_removed_option_is_a_usage_error(self, run_dir, command, option):
        roles = ["alice", "bob", "eve"] if command == "fit-growth" else ["alice", "eve"]
        traces = [a for role in roles for a in (f"--{role}", run_dir / f"{role}.csv")]
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, traces), *option])
        assert exc.value.code == 2


class TestReport:
    def test_renders_json(self, tmp_path, capsys):
        (tmp_path / "r.json").write_text(json.dumps(
            {"success": True, "ledger": {"key_bits": 128},
             "per_experiment_bits": list(range(40))}))
        code, out = invoke(capsys, "report", "--input", tmp_path / "r.json")
        assert code == 0
        assert "key_bits: 128" in out
        assert "[40 values]" in out

    @pytest.mark.parametrize("text, reason", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('"abc"', "expected a JSON object, got str"),
        ("5", "expected a JSON object, got int"),
        ('{"success": tru', "Expecting value"),
        pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deeply-nested")])
    def test_non_object_fails_closed(self, tmp_path, capsys, text, reason):
        path = tmp_path / "r.json"
        path.write_text(text)
        code = main(["report", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {path}: ") and reason in captured.err
        assert captured.out == ""


class TestSeededOutputs:
    """JSON stdout of the analysis commands on the run_dir traces, pinned to
    fixed digests: speedups of the parser or the assumption suite must
    reproduce every byte.  The suite's digests pin its random draws too,
    which are count draws of each half (not index permutations); a change
    to how the suite draws re-records them with a field-level diff."""

    COMMANDS = {  # name: (argv after the trace flags, sha256 of stdout)
        "estimate-entropy": (["--levels", "9"],
                             "50aa7df1a85ba6afcfc8036e80d8f583c0179d1789c5c80a5472a5521ba77f11"),
        "fit-growth": (["--levels", "9", "--slice-samples", "200", "--step", "20"],
                       "e9ec3bb844b2e4dfcfca0f4f0ab6d1ff0da4248e13c43e9061678aa6f29c4e8b"),
        "validate-assumptions": (
            [], "93a3a5c0e90095e229978a99ac442922397bb04ac18235e336428ba93146ee09"),
        "ingest": ([], "c7ba80cbb61e398f32e1b2468fbde2e4f4036ca3f6293aa6d0c13615534da30b"),
        "extract-key": (
            ["--l", "16", "--lambda", "2", "--c", "0.05", "--seed", "21"],
            "c857f9a3019e5ca6b10cb13204cf28757003991dc4ea05e384ffb1aba52d8f9d"),
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
            "234fee8e6a0f00ee06e231d77766ae8b092e2af4bf1f92a69b13e4e21e03d33d"


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; SciPy is a test oracle, and importing
    # scipy.special alone took about 0.33 s of a 0.55 s command
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import physkey.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_commands_run_without_scipy(tmp_path):
    # the walkthrough's commands in one process where importing scipy fails
    src = Path(__file__).resolve().parent.parent / "src"
    (tmp_path / "ch.json").write_text(json.dumps(
        {"calibrate": {"entropy_rate": 0.1248, "word_error_rate": 0.0054, "levels": 9}}))
    alice, bob, eve = (str(tmp_path / "sim" / f"{role}.csv") for role in ("alice", "bob", "eve"))
    commands = [
        ["plan", "--l", "128", "--lambda", "80", "--c", "1"],
        ["simulate", "--config", str(tmp_path / "ch.json"), "--n", "4000", "--seed", "7",
         "--out", str(tmp_path / "sim")],
        ["estimate-entropy", "--alice", alice, "--eve", eve, "--levels", "9", "--slice", "100"],
        ["fit-growth", "--alice", alice, "--bob", bob, "--eve", eve, "--levels", "9",
         "--slice-samples", "200", "--step", "10"],
        ["validate-assumptions", "--alice", alice, "--eve", eve, "--levels", "9"],
        ["extract-key", "--alice", alice, "--bob", bob, "--l", "16", "--lambda", "2",
         "--c", "0.05", "--seed", "21"],
        ["report", "--input", str(tmp_path / "extract-key.json")],
    ]
    # each command's standard output goes to <command>.json in tmp_path
    code = (f"import contextlib, json, sys; sys.modules['scipy'] = None; "
            f"sys.path.insert(0, {str(src)!r}); from physkey.cli import main\n"
            "codes = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            f"    with open({str(tmp_path)!r} + '/' + args[0] + '.json', 'w') as out, \\\n"
            "            contextlib.redirect_stdout(out):\n"
            "        codes.append(main(args))\n"
            "print(codes)\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(commands)}\n", proc.stderr
