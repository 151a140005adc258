import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import crystalflow.cli as cli
import crystalflow.curve as curve_module
from crystalflow import (FlowParams, IntegratorOptions, SchemaError,
                         TimeOutOfRange, WindowTooSmall,
                         build_curve, evolve,
                         make_nontranslating_two_rectangles,
                         make_translating_square_aniso, reconstruct_parallel,
                         regular_polygon_anisotropy, square_anisotropy,
                         windowed_lengths)
from crystalflow.cli import (_MANIFEST, _dump_json, _read, emit_snapshots,
                             load_scenario, main, run_scenario, snapshot_at,
                             validate_scenario)
from conftest import octagon_curve

Q = 2 * np.sqrt(2.0)

WULFF_SHRINK = {
    "schema_version": 1,
    "name": "wulff-shrink",
    "anisotropy": {"preset": "square"},
    "params": {"alpha": 1.0},
    "curve": {"generator": {"family": "wulff", "scale": 2.0}},
    "integrator": {"max_time": 5.0, "rel_tol": 1e-8, "abs_tol": 1e-10,
                   "max_step": 0.5, "substeps": 4},
    "outputs": {"series": True, "snapshots": [0.0, 1.0, 5.0],
                "manifest": True},
    "checks": [
        {"type": "status", "expect": "MaxTime"},
        {"type": "dissipation", "max_residual": 1e-6},
        {"type": "restart-count", "expect": 0},
        {"type": "final-energy", "expect": 16.000014845562287, "tol": 1e-9},
        {"type": "segment-count", "expect": 4},
        {"type": "index", "expect": 1},
    ],
}

# a closed zigzag with one short connector engineered to pinch off
PINCH = {
    "schema_version": 1,
    "name": "pinch",
    "anisotropy": {"preset": "square"},
    "params": {"alpha": 1.0},
    "curve": {
        "vertices": [
            [0.0, 0.0], [2 * Q, 0.0], [2 * Q, -Q], [Q, -Q], [Q, -Q + 0.3],
            [0.0, -Q + 0.3], [0.0, -2 * Q + 0.3], [2 * Q, -2 * Q + 0.3],
            [2 * Q, -3 * Q + 0.3], [Q, -3 * Q + 0.3], [Q, Q], [0.0, Q],
        ],
        "topology": "closed",
    },
    "integrator": {"max_time": 2.0, "substeps": 2},
    "outputs": {"series": True, "snapshots": [0.0, 0.5, 2.0],
                "manifest": True},
    "checks": [
        {"type": "restart-count", "expect": 1},
        {"type": "segment-count", "expect": 10},
        {"type": "index", "expect": 0},
        {"type": "status", "expect": "MaxTime"},
    ],
}

# the closed 8-gon of conftest on the regular hexagon anisotropy: at alpha = 1
# its connectors 4 and 5 vanish together, and the 6-gon left runs to max_time
OCTAGON = {
    "schema_version": 1,
    "name": "octagon",
    "anisotropy": {"preset": "regular", "sides": 6},
    "params": {"alpha": 1.0},
    "curve": {"vertices": [v.tolist() for v in octagon_curve(
                  regular_polygon_anisotropy(6)).vertices],
              "topology": "closed"},
    "integrator": {"max_time": 1.0},
    "outputs": {"series": True, "snapshots": [0.0, 0.5, 1.0],
                "manifest": True},
    "checks": [
        {"type": "restart-count", "expect": 1},
        {"type": "segment-count", "expect": 6},
        {"type": "index", "expect": 1},
        {"type": "status", "expect": "MaxTime"},
    ],
}

WINDOWED = {"alpha": 1.0, "window_radius": 20.0}


def put(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_simulate_green(tmp_path, capsys):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    rc = main(["simulate", sc, "--out-dir", str(tmp_path), "--check"])
    assert rc == 0
    assert "checks=6/6" in capsys.readouterr().out
    man = json.loads((tmp_path / "wulff-shrink_manifest.json").read_text())
    assert all(c["passed"] for c in man["checks"])
    assert man["status"] == "MaxTime" and man["t_final"] == 5.0
    series = (tmp_path / "wulff-shrink_series_epoch0.csv").read_text()
    lines = series.splitlines()
    assert lines[0] == ("t,energy,dissipation,dissipated,max_abs_rate,"
                        "min_bounded_length,total_bounded_length")
    assert lines[1].startswith("0.0,20.0,") and lines[1].split(",")[3] == "0.0"
    snaps = json.loads((tmp_path / "wulff-shrink_snapshots.json").read_text())
    # each snapshot is the row at its requested time
    assert [s["t"] for s in snaps["snapshots"]] == [0.0, 1.0, 5.0]
    assert set(snaps["snapshots"][0]) == {"t", "epoch", "heights", "points",
                                          "closed", "window_radius"}
    # the scenario gives no window, and no snapshot invents one
    assert [s["window_radius"] for s in snaps["snapshots"]] == [None] * 3


def test_simulate_deterministic(tmp_path):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    for d in ("r1", "r2"):
        (tmp_path / d).mkdir()
        assert main(["simulate", sc, "--out-dir", str(tmp_path / d)]) == 0
    for f in ("wulff-shrink_manifest.json", "wulff-shrink_series_epoch0.csv",
              "wulff-shrink_snapshots.json"):
        assert (tmp_path / "r1" / f).read_bytes() == \
            (tmp_path / "r2" / f).read_bytes()


def test_audit_roundtrip(tmp_path):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    man = str(tmp_path / "wulff-shrink_manifest.json")
    assert main(["audit", man]) == 0
    assert main(["audit", man, "--tol", "1e-12"]) == 1


def test_simulate_check_failure_exit_code(tmp_path):
    doc = dict(WULFF_SHRINK, checks=[{"type": "restart-count", "expect": 3}])
    sc = put(tmp_path, "w.json", doc)
    # without --check the run still completes and reports
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "wulff-shrink_manifest.json").read_text())
    assert not man["checks"][0]["passed"]
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 1


def test_final_energy_check_enforces_expect(tmp_path, capsys):
    doc = dict(WULFF_SHRINK, checks=[
        {"type": "final-energy", "expect": 999, "tol": 1e-9}])
    sc = put(tmp_path, "w.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 1
    assert "FAILED final-energy" in capsys.readouterr().err


@pytest.mark.parametrize("bound, passed", [
    ({"min": 15.0}, True), ({"min": 17.0}, False),
    ({"max": 17.0}, True), ({"max": 15.0}, False),
], ids=["min-pass", "min-fail", "max-pass", "max-fail"])
def test_final_energy_check_one_bound(tmp_path, bound, passed):
    # the final energy of WULFF_SHRINK is 16.000014845562287
    doc = dict(WULFF_SHRINK, checks=[dict(bound, type="final-energy")])
    sc = put(tmp_path, "w.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path),
                 "--check"]) == (0 if passed else 1)


def test_readme_scenario_is_valid():
    # the scenario example of the README is WULFF_SHRINK, and it fits the
    # schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert validate_scenario(doc) is None
    assert doc == WULFF_SHRINK


def test_check_keys_validated(tmp_path, capsys):
    for check in ({"type": "final-energy", "max": 30.0, "bogus": 1},
                  {"type": "final-energy", "expect": 16.0},
                  {"type": "final-energy"},
                  {"type": "status", "expect": "MaxTime", "tol": 1},
                  {"type": "final-energy", "expect": None, "tol": None},
                  {"type": "dissipation", "max_residual": "1e-6"}):
        doc = dict(WULFF_SHRINK, checks=[check])
        assert main(["simulate", put(tmp_path, "w.json", doc),
                     "--out-dir", str(tmp_path), "--check"]) == 2, check
    assert "unknown keys ['bogus']" in capsys.readouterr().err


def test_name_with_newline_rejected(tmp_path, capsys):
    # "$" also matches before a trailing newline; the name must match whole
    sc = put(tmp_path, "s.json", dict(WULFF_SHRINK, name="abc\n"))
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 2
    assert "'name' must be" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("t", [-1.0, 1e9], ids=["negative", "past-the-end"])
def test_bad_snapshot_time_writes_nothing(tmp_path, capsys, t):
    doc = dict(WULFF_SHRINK, outputs={"snapshots": [0.0, t]})
    sc = put(tmp_path, "s.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 2
    assert "snapshot time" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["s.json"]


def test_run_scenario_validates(tmp_path):
    # library callers get the same checks as the command line
    doc = dict(WULFF_SHRINK, outputs={"series": "no"})
    with pytest.raises(SchemaError, match="'series' must be true or false"):
        run_scenario(doc, str(tmp_path))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("changes", [
    {"anisotropy": {"preset": "hexagon"}},
    {"anisotropy": {"preset": "regular", "sides": 2}},
    {"anisotropy": {"vertices": [[1.0, 1.0], [1.0, "x"], [-1.0, -1.0]]}},
    {"anisotropy": {"preset": None, "vertices": [[1, 1]] * 3, "sides": 4}},
    {"curve": {"vertices": "abc"}},
    {"curve": {"vertices": [[0, 0], [1, 0], [1, 1]], "topology": "open"}},
    {"curve": {"vertices": [[0, 0]], "topology": "unbounded"}},
    {"curve": {"vertices": [[0, 0]], "topology": "unbounded",
               "rays": [[0, 1], [1, 0], [1, 1]]}},
    {"curve": {"generator": {"family": "stationary", "kind": "stair"}}},
    {"curve": {"generator": "wulff"}},
    {"perturb_heights": {"seed": -1, "scale": 0.1}},
    {"checks": [{"type": "status", "expect": 3}]},
    {"checks": [{"type": "status", "expect": "Running"}]},
    {"checks": [{"type": "stationary-limit", "kind": "wulf-square"}]},
    {"checks": [{"type": "index", "expect": True}]},
    {"checks": [{"type": "restart-count", "expect": False}]},
    {"checks": [{"type": "segment-count", "expect": 4.0}]},
    {"checks": [{"expect": 4}]},
    {"checks": ["status"]},
    {"checks": [{"type": "final-energy", "expect": 16.0, "tol": -1.0}]},
    {"integrator": {"max_time": -1.0}},
    {"integrator": {"min_step": 1.0}},
    {"integrator": {"vanish_fraction": 2.0}},
], ids=["unknown-preset", "two-sides", "non-numeric-vertex",
        "vertices-with-sides", "curve-vertices-string", "open-topology",
        "unbounded-without-rays", "three-rays", "unknown-stationary-kind",
        "generator-string", "negative-seed", "status-number",
        "status-running", "misspelled-limit-kind", "index-bool",
        "restart-count-bool", "segment-count-float", "check-without-type",
        "check-string", "final-energy-negative-tol", "negative-max-time",
        "min-step-above-max-step", "vanish-fraction-above-one"])
def test_validate_scenario_rejects(changes):
    # each value is read by the schema before anything is built or run
    with pytest.raises(SchemaError):
        validate_scenario(dict(WULFF_SHRINK, **changes))


def test_typed_check_values_accepted():
    # null is the index of an unbounded curve, and a stationary limit may
    # be one that no family matches
    checks = [{"type": "index", "expect": None},
              {"type": "stationary-limit", "kind": "unclassified"},
              {"type": "status", "expect": "TranslatingDivergence"}]
    assert validate_scenario(dict(WULFF_SHRINK, checks=checks)) is None


@pytest.mark.parametrize("flags, message", [
    (["--max-time", "nan"], "integrator: 'max_time' must be a finite number"),
    (["--max-time", "-1"], "integrator: max_time must be positive"),
    (["--seed", "5"], "perturb_heights: missing required key 'scale'"),
], ids=["max-time-nan", "max-time-negative", "seed-without-block"])
def test_flags_checked_as_their_keys(tmp_path, capsys, flags, message):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)] + flags) == 2
    assert message in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["w.json"]


def test_bad_flag_leaves_no_out_dir(tmp_path):
    # the output directory is made at the run's first file, so a run
    # refused at its input leaves none behind
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path / "new"),
                 "--max-time", "nan"]) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["w.json"]


def _step_profile(tmp_path):
    c, _ = make_translating_square_aniso("single-step", 1.0, lam=0.5)
    return put(tmp_path, "step.json", {
        "anisotropy": {"preset": "square"}, "vertices": c.vertices.tolist(),
        "topology": "unbounded", "rays": c.rays.tolist()})


@pytest.mark.parametrize("args, message", [
    (["classify", "{chain}", "--alpha", "2", "--tol", "nan"],
     "classify: '--tol' must be a finite number >= 0"),
    (["classify", "{chain}", "--alpha", "-1"],
     "classify: '--alpha' must be a positive number"),
    (["verify-identity", "--tol", "nan"],
     "verify-identity: '--tol' must be a finite number >= 0"),
    (["verify-identity", "--preset", "regular", "--sides", "2"],
     "verify-identity: '--sides' must be an integer >= 3"),
    (["audit", "{manifest}", "--tol", "nan"],
     "audit: '--tol' must be a finite number >= 0"),
    (["audit", "{manifest}", "--tol", "-1"],
     "audit: '--tol' must be a finite number >= 0"),
    (["audit", "{manifest}", "--energy-tol", "nan"],
     "audit: '--energy-tol' must be a finite number >= 0"),
    (["translating-check", "{step}", "--eta", "nan,1"],
     "translating-check: '--eta' must be two finite numbers"),
    (["translating-check", "{step}", "--tol", "nan"],
     "translating-check: '--tol' must be a finite number >= 0"),
], ids=["classify-tol-nan", "classify-alpha-negative", "identity-tol-nan",
        "identity-two-sides", "audit-tol-nan", "audit-tol-negative",
        "audit-energy-tol-nan", "eta-nan", "translating-tol-nan"])
def test_bad_flag_exits_2(tmp_path, capsys, args, message):
    # each typed flag is read by its schema kind before the command runs
    files = {"chain": str(tmp_path / "chain.json"),
             "manifest": str(tmp_path / "wulff-shrink_manifest.json"),
             "step": _step_profile(tmp_path)}
    assert main(["catalog", "--kind", "right-angle-chain", "--closed",
                 "--m", "2", "--out", files["chain"]]) == 0
    assert main(["simulate", put(tmp_path, "w.json", WULFF_SHRINK),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main([a.format(**files) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


def test_negative_seed_flag_rejected(tmp_path, capsys):
    sc = put(tmp_path, "c.json", _quick())
    assert main(["simulate", sc, "--out-dir", str(tmp_path),
                 "--seed", "-1"]) == 2
    assert "'seed' must be a non-negative integer" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["c.json"]


def test_series_off_writes_no_csv(tmp_path, capsys):
    doc = dict(WULFF_SHRINK, outputs={"series": False})
    assert main(["simulate", put(tmp_path, "w.json", doc),
                 "--out-dir", str(tmp_path), "--check"]) == 0
    assert not list(tmp_path.glob("*.csv"))
    man_path = tmp_path / "wulff-shrink_manifest.json"
    man = json.loads(man_path.read_text())
    assert [ep["series"] for ep in man["epochs"]] == [None]
    capsys.readouterr()
    assert main(["audit", str(man_path)]) == 2
    assert "rerun with outputs.series enabled" in capsys.readouterr().err


def test_manifest_off_writes_no_manifest(tmp_path):
    doc = dict(WULFF_SHRINK, outputs={"manifest": False})
    assert main(["simulate", put(tmp_path, "w.json", doc),
                 "--out-dir", str(tmp_path), "--check"]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "w.json", "wulff-shrink_series_epoch0.csv"]


@pytest.mark.parametrize("doc, typo", [
    (dict(WULFF_SHRINK, outputs={"snapshot": [0.0, 1.0]}), "snapshot"),
    (dict(WULFF_SHRINK, params={"alpha": 1.0, "windw_radius": 5.0}),
     "windw_radius"),
    (dict(WULFF_SHRINK, perturb_heights={"seed": 1, "scale": 0.01,
                                         "sclae": 0.1}), "sclae"),
    (dict(PINCH, curve=dict(PINCH["curve"], topolgy="closed")), "topolgy"),
    (dict(WULFF_SHRINK, curve=dict(WULFF_SHRINK["curve"], vertices=[[0, 0]])),
     "vertices"),
    (dict(WULFF_SHRINK, integrator={"sample_stride": 2}), "sample_stride"),
    (dict(WULFF_SHRINK, curve={"generator": {"family": "wulff", "scale": 2.0,
                                             "scal": 3.0}}), "scal"),
    (dict(WULFF_SHRINK, curve={"generator": {
        "family": "stationary", "kind": "right-angle-chain", "closed": True,
        "m": 2, "conectors": [5.0, 1.0]}}), "conectors"),
    (dict(WULFF_SHRINK, params=WINDOWED, curve={"generator": {
        "family": "translating", "kind": "convex-chain", "m": 3, "a": 0.58,
        "b": 0.4}}), "b"),
    (dict(WULFF_SHRINK, params=WINDOWED, curve={"generator": {
        "family": "two-rectangles", "m": 2}}), "m"),
], ids=["outputs", "params", "perturb_heights", "curve-vertices",
        "curve-generator", "integrator", "generator-wulff",
        "generator-stationary", "generator-translating",
        "generator-two-rectangles"])
def test_unknown_keys_in_blocks_rejected(tmp_path, capsys, doc, typo):
    assert main(["simulate", put(tmp_path, "s.json", doc),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"unknown keys ['{typo}']" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize("doc", [WULFF_SHRINK, PINCH, OCTAGON],
                         ids=["readme", "restart", "octagon"])
def test_audit_residual_matches_manifest(tmp_path, capsys, doc):
    # the audit recomputes the residual from the series files alone; both
    # sides share one dissipation integrand, so the values agree exactly
    sc = put(tmp_path, "s.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    man_path = tmp_path / f"{doc['name']}_manifest.json"
    man = json.loads(man_path.read_text())
    capsys.readouterr()
    assert main(["audit", str(man_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dissipation_residual"] == man["dissipation_residual"]
    assert rep["times_match"] is True and rep["segments_match"] is True
    assert len(man["restarts"]) == (0 if doc is WULFF_SHRINK else 1)


def test_audit_rejects_short_series_row(tmp_path, capsys):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    series = tmp_path / "wulff-shrink_series_epoch0.csv"
    lines = series.read_text().splitlines()
    lines[5] = "1.0,2.0"
    series.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "wulff-shrink_manifest.json")]) == 2
    assert "malformed series file" in capsys.readouterr().err


def test_audit_of_missing_series_file_exits_2(tmp_path, capsys):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "wulff-shrink_series_epoch0.csv").unlink()
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "wulff-shrink_manifest.json")]) == 2
    assert "audit: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_audit_rejects_non_finite_series_value(tmp_path, capsys, value):
    # max(0.0, nan) is 0.0: a NaN residual would otherwise pass the audit
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    series = tmp_path / "wulff-shrink_series_epoch0.csv"
    lines = series.read_text().splitlines()
    header, row = lines[0].split(","), lines[5].split(",")
    for col in ("energy", "dissipation"):
        row[header.index(col)] = value
    lines[5] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "wulff-shrink_manifest.json")]) == 2
    assert "malformed series file" in capsys.readouterr().err


def test_series_file_is_csv_writer_text(tmp_path):
    sc = put(tmp_path, "p.json", PINCH)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("pinch_series_epoch*.csv"))
    assert len(paths) == 2
    for path in paths:
        raw = path.read_bytes()
        rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(rows[0])
        for row in rows[1:]:
            w.writerow([repr(float(v)) for v in row])
        assert raw == want.getvalue().encode()


def test_rerun_overwrites_longer_outputs(tmp_path):
    # output files are rewritten in place and cut to length, so a longer
    # file left at an output path leaves no tail behind
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    for name in ("pinch_manifest.json", "pinch_series_epoch0.csv",
                 "pinch_snapshots.json"):
        (reused / name).write_text("x" * 10**6)
    sc = put(tmp_path, "p.json", PINCH)
    for out in (fresh, reused):
        assert main(["simulate", sc, "--out-dir", str(out)]) == 0
    for path in fresh.iterdir():
        assert (reused / path.name).read_bytes() == path.read_bytes()


# numpy scalars and arrays, non-finite floats, empty containers, non-ASCII
# and control characters in keys and strings
_JSON_CASES = [
    [1, 2.0], [True, 1.0], [[1.0, 2.0], [3.0, math.nan]], [[1.0, 2.0], [3.0]],
    [1e308, 1e308], [-0.0, 5e-324, math.inf, -math.inf],
    {"a": [], "b": {}, "c": [[], {}], "\u00e9\x01\n": "\u2603\x7f"},
    {"": [None], "t": True},
    [np.float32(0.1), np.array(0.5), np.zeros((2, 0))],
    {"h": np.array([0.25, -1.5]), "n": np.int64(-3), "b": np.bool_(True)},
]


def test_dump_json_matches_json_module():
    # every indented document is json.dumps's text, numpy values included
    for obj in _JSON_CASES:
        assert _dump_json(obj) == json.dumps(
            obj, sort_keys=True, indent=2, default=lambda o: o.tolist()) + "\n"
    assert _dump_json({"b": np.array([0.5, math.nan]), "a": "\u00e9"}) == (
        '{\n  "a": "\\u00e9",\n  "b": [\n    0.5,\n    NaN\n  ]\n}\n')


def test_snapshot_file_is_one_compact_line(tmp_path):
    # the bulk output: one line that reads back to snapshot_at's documents,
    # across PINCH's restart
    p = FlowParams(alpha=1.0)
    curve = build_curve(square_anisotropy(), PINCH["curve"]["vertices"],
                        "closed")
    traj = evolve(curve, p, IntegratorOptions(max_time=2.0, substeps=2))
    times = PINCH["outputs"]["snapshots"]
    text = (tmp_path / emit_snapshots(traj, "pinch", str(tmp_path), times,
                                      p)).read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert doc == {"schema_version": 1, "name": "pinch",
                   "snapshots": [snapshot_at(traj, t, p) for t in times]}
    assert [s["epoch"] for s in doc["snapshots"]] == [0, 1, 1]
    # written one snapshot at a time, with the bytes of the whole document
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    empty = emit_snapshots(traj, "no-times", str(tmp_path), [], p)
    assert (tmp_path / empty).read_text() == json.dumps(
        {"name": "no-times", "schema_version": 1, "snapshots": []},
        sort_keys=True, separators=(",", ":")) + "\n"


def _audit_edited_manifest(tmp_path, capsys, edit, doc=WULFF_SHRINK) -> int:
    """Run the scenario ``doc`` (the README one by default), let ``edit``
    change its manifest document in place, and audit the result."""
    assert main(["simulate", put(tmp_path, "s.json", doc),
                 "--out-dir", str(tmp_path)]) == 0
    man_path = tmp_path / f"{doc['name']}_manifest.json"
    man = json.loads(man_path.read_text())
    edit(man)
    man_path.write_text(json.dumps(man))
    capsys.readouterr()
    return main(["audit", str(man_path)])


# a restart record as run_scenario writes it, at a time inside the README run
_RESTART_RECORD = {"t": 1.0, "epoch_before": 0, "vanished": [1],
                   "merge_map": [0, -1, 1, 2], "index_before": 1,
                   "index_after": 1}


@pytest.mark.parametrize("field, value, message", [
    ("epochs", [1], "'epochs' must be a list of objects"),
    ("epochs", "wulff-shrink_series_epoch0.csv",
     "'epochs' must be a list of objects"),
    ("epochs", [{"series": 5}], "epochs[0]: 'series' must be a string"),
    ("final", 3.0, "'final' must be an object"),
    ("final", {"energy": "16"}, "final: 'energy' must be a finite number"),
], ids=["epoch-number", "epochs-string", "series-number", "final-number",
        "energy-string"])
def test_audit_rejects_malformed_manifest(tmp_path, capsys, field, value,
                                          message):
    assert _audit_edited_manifest(
        tmp_path, capsys, lambda m: m.update({field: value})) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["final"].update(energy=True),
     "final: 'energy' must be a finite number"),
    (lambda m: m.update(name=5), "manifest: 'name' must be a string matching"),
    (lambda m: m.update(stats={}), "manifest: unknown keys ['stats']"),
    (lambda m: m.update(status="Done"), "manifest: 'status' must be one of"),
    (lambda m: m["epochs"][0].update(samples=0),
     "epochs[0]: 'samples' must be a positive integer"),
    (lambda m: m.pop("t_final"), "manifest: missing required key 't_final'"),
    (lambda m: m.update(epochs=[]),
     "manifest: 'epochs' must be a list of objects, at least one"),
    (lambda m: m.update(restarts=[{}]),
     "restarts[0]: missing required key 't'"),
    (lambda m: m.update(restarts=[dict(_RESTART_RECORD, vanished="1")]),
     "restarts[0]: 'vanished' must be a list of integers"),
    (lambda m: m.update(dissipation_residual=None),
     "manifest: 'dissipation_residual' must be a finite number"),
], ids=["energy-bool", "name-number", "unknown-key", "status-unknown",
        "samples-zero", "t-final-missing", "epochs-empty", "restart-empty",
        "restart-vanished-string", "residual-null"])
def test_audit_reads_manifest_by_schema(tmp_path, capsys, edit, message):
    assert _audit_edited_manifest(tmp_path, capsys, edit) == 2
    assert message in capsys.readouterr().err


def _set_epoch(k, **values):
    return lambda m: m["epochs"][k].update(values)


def _set_restart(**values):
    return lambda m: m["restarts"][0].update(values)


def _misplace_times(restarts):
    """The edit: t_final 99, epoch 0 from -3 to 42, and ``restarts``."""
    def edit(m):
        m.update(t_final=99.0, restarts=restarts)
        m["epochs"][0].update(t_start=-3.0, t_end=42.0)
    return edit


@pytest.mark.parametrize("doc, edit", [
    (WULFF_SHRINK, lambda m: m.update(t_final=99.0)),
    (WULFF_SHRINK, _set_epoch(0, t_start=-3.0)),
    (WULFF_SHRINK, _set_epoch(0, t_end=42.0)),
    (WULFF_SHRINK, lambda m: m.update(restarts=[_RESTART_RECORD])),
    (WULFF_SHRINK, _misplace_times([_RESTART_RECORD])),
    (PINCH, lambda m: m.update(t_final=99.0)),
    (PINCH, _set_epoch(0, t_start=-3.0)),
    (PINCH, _set_epoch(0, t_end=42.0)),
    (PINCH, _set_epoch(1, t_start=42.0)),
    (PINCH, lambda m: m.update(restarts=[])),
    (PINCH, lambda m: m.update(restarts=m["restarts"] * 2)),
    (PINCH, _set_restart(t=42.0)),
    (PINCH, _set_restart(epoch_before=1)),
    (PINCH, _misplace_times([])),
], ids=["readme-t-final", "readme-t-start", "readme-t-end", "readme-restart",
        "readme-all", "pinch-t-final", "pinch-t-start", "pinch-t-end", "pinch-next-t-start",
        "pinch-no-restart", "pinch-two-restarts", "pinch-restart-t",
        "pinch-restart-epoch", "pinch-all"])
def test_audit_compares_times_with_series(tmp_path, capsys, doc, edit):
    # each epoch spans its first and last row, the run ends at the last row,
    # and one restart sits at each epoch boundary
    assert _audit_edited_manifest(tmp_path, capsys, edit, doc) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["times_match"] is False and rep["passed"] is False
    assert rep["final_energy_matches"] is True


@pytest.mark.parametrize("edit", [
    _set_epoch(0, segments=99),
    _set_epoch(1, epoch=7),
    lambda m: m["final"].update(segments=3),
    _set_restart(vanished=[50]),
], ids=["epoch-segments", "epoch-number", "final-segments", "restart-vanished"])
def test_audit_compares_segments_with_restarts(tmp_path, capsys, edit):
    # epochs are numbered in order, the final curve has the last epoch's
    # segments, and a restart's merge_map takes epoch k's segments to epoch
    # k + 1's with -1 exactly at the vanished ones
    assert _audit_edited_manifest(tmp_path, capsys, edit, PINCH) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["segments_match"] is False and rep["passed"] is False
    assert rep["times_match"] is True


def test_audit_checks_series_row_count(tmp_path, capsys):
    # a series file cut short no longer holds its epoch's samples
    assert main(["simulate", put(tmp_path, "p.json", PINCH),
                 "--out-dir", str(tmp_path)]) == 0
    series = tmp_path / "pinch_series_epoch0.csv"
    lines = series.read_text().splitlines()
    assert len(lines) > 3
    series.write_text("\n".join(lines[:3]) + "\n")
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "pinch_manifest.json")]) == 2
    assert "malformed series file" in capsys.readouterr().err


# a perturbed closed right-angle chain relaxes back onto the chain family
CHAIN = {
    "schema_version": 1,
    "name": "chain",
    "anisotropy": {"preset": "square"},
    "params": {"alpha": 1.0},
    "curve": {"generator": {"family": "stationary", "kind": "right-angle-chain",
                            "closed": True, "m": 2}},
    "perturb_heights": {"scale": 0.1, "seed": 3},
    "integrator": {"max_time": 40.0},
    "outputs": {"snapshots": [0.0]},
    "checks": [{"type": "status", "expect": "Converged"},
               {"type": "stationary-limit", "kind": "right-angle-chain"}],
}


def test_perturbed_chain_reaches_stationary_limit(tmp_path):
    sc = put(tmp_path, "c.json", CHAIN)
    runs = []
    for seed in (None, 5):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        flags = [] if seed is None else ["--seed", str(seed)]
        assert main(["simulate", sc, "--out-dir", str(out), "--check"]
                    + flags) == 0
        man = json.loads((out / "chain_manifest.json").read_text())
        snap = json.loads((out / "chain_snapshots.json").read_text())
        # the t = 0 snapshot is the perturbed curve itself
        runs.append((man, snap["snapshots"][0]["points"]))
    (man, points), (man5, points5) = runs
    assert man["status"] == "Converged" and man["generator"]["kind"] == \
        "right-angle-chain"
    assert man["perturb"] == {"seed": 3, "scale": 0.1}
    assert man5["perturb"]["seed"] == 5
    assert points != points5


def test_stationary_limit_off_the_square_anisotropy(tmp_path):
    # the scaled Wulff hexagon settles stationary (Converged near t = 9.95),
    # but only the square anisotropy has a catalog to classify against: the
    # monitor's classification is None, so a check without 'kind' passes
    # and one naming a kind fails
    doc = {
        "schema_version": 1,
        "name": "hexagon",
        "anisotropy": {"preset": "regular", "sides": 6},
        "params": {"alpha": 1.0},
        "curve": {"generator": {"family": "wulff", "scale": 1.7}},
        "integrator": {"max_time": 20.0, "max_step": 0.5,
                       "stationarity_tol": 1e-6},
        "outputs": {"series": False, "manifest": False},
        "checks": [{"type": "status", "expect": "Converged"},
                   {"type": "stationary-limit"},
                   {"type": "stationary-limit", "kind": "wulff-square"}],
    }
    code, man = run_scenario(doc, str(tmp_path), check=True)
    assert code == 1 and man["t_final"] < 20.0
    assert [c["passed"] for c in man["checks"]] == [True, True, False]
    for c in man["checks"][1:]:
        assert c["detail"].startswith("stationary=True kind=None ")


def test_perturbing_a_curve_with_no_bounded_segment(tmp_path):
    # the corner of two half-lines has no height to perturb: the run goes on
    # from the curve as given, and the manifest records the perturbation
    doc = {
        "schema_version": 1,
        "name": "corner",
        "anisotropy": {"preset": "square"},
        "params": {"alpha": 1.0, "window_radius": 5.0},
        "curve": {"vertices": [[0.0, 0.0]], "topology": "unbounded",
                  "rays": [[-1.0, 0.0], [0.0, 1.0]]},
        "perturb_heights": {"seed": 0, "scale": 0.1},
        "integrator": {"max_time": 1.0},
        "outputs": {"snapshots": [0.0]},
        "checks": [{"type": "segment-count", "expect": 2}],
    }
    code, man = run_scenario(doc, str(tmp_path), check=True)
    assert code == 0 and man["perturb"] == {"seed": 0, "scale": 0.1}
    assert man["final"]["energy"] == 10.0  # two clips of 5
    snap = json.loads((tmp_path / "corner_snapshots.json").read_text())
    assert snap["snapshots"][0]["points"] == [[-5.0, 0.0], [0.0, 0.0],
                                              [0.0, 5.0]]


def test_chain_audits_clean_with_default_tol(tmp_path, capsys):
    # the default --tol is 1e-6 of the first energy, about 45 for CHAIN, and
    # a --tol given stays absolute: one below the residual fails the audit
    assert main(["simulate", put(tmp_path, "c.json", CHAIN),
                 "--out-dir", str(tmp_path)]) == 0
    man = str(tmp_path / "chain_manifest.json")
    first = (tmp_path / "chain_series_epoch0.csv").read_text().splitlines()[1]
    capsys.readouterr()
    assert main(["audit", man]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tol"] == 1e-6 * float(first.split(",")[1])
    resid = rep["dissipation_residual"]
    assert rep["passed"] and 0.0 < resid <= 1e-9 * float(first.split(",")[1])
    assert main(["audit", man, "--tol", repr(resid / 2)]) == 1
    assert json.loads(capsys.readouterr().out)["tol"] == resid / 2


def test_octagon_audits_clean_with_default_tol(tmp_path, capsys):
    # the octagon's first epoch ends where W climbs from 3 to about 2.7e3, an
    # integrable singularity: a quadrature of the rows' W drifted there by
    # 1.9e-4 against the default bound of 1.4e-5, while Q rides on the steps
    assert main(["simulate", put(tmp_path, "o.json", OCTAGON),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "octagon_manifest.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] and rep["dissipation_residual"] <= 1e-9 * 13.9


@pytest.mark.parametrize("doc", [
    WULFF_SHRINK, PINCH, CHAIN, OCTAGON,
    dict(WULFF_SHRINK, outputs={"series": False})],
    ids=["readme", "pinch", "chain", "octagon", "series-off"])
def test_manifest_reads_by_its_schema(tmp_path, doc):
    # every key run_scenario writes has a kind in _MANIFEST, and back
    assert main(["simulate", put(tmp_path, "s.json", doc),
                 "--out-dir", str(tmp_path)]) == 0
    man = json.loads((tmp_path / f"{doc['name']}_manifest.json").read_text())
    _read(man, _MANIFEST, "manifest")
    assert man.keys() == _MANIFEST.keys()


# the translating convex chain of the square, its half-lines clipped to a
# window of radius 60
CONVEX_CHAIN = {
    "schema_version": 1,
    "name": "convex-chain",
    "anisotropy": {"preset": "square"},
    "params": {"alpha": 1.0, "window_radius": 60.0},
    "curve": {"generator": {"family": "translating", "kind": "convex-chain",
                            "m": 3, "a": 0.58}},
    "integrator": {"max_time": 5.0},
    "outputs": {"snapshots": [0.0, 5.0]},
    "checks": [{"type": "segment-count", "expect": 15}],
}


def test_translating_profile_clipped_to_window(tmp_path):
    sc = put(tmp_path, "t.json", CONVEX_CHAIN)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 0
    man = json.loads((tmp_path / "convex-chain_manifest.json").read_text())
    assert man["generator"]["family"] == "translating"
    snaps = json.loads((tmp_path / "convex-chain_snapshots.json").read_text())
    for s in snaps["snapshots"]:
        assert not s["closed"] and s["window_radius"] == 60.0
        for end in (s["points"][0], s["points"][-1]):
            assert np.hypot(*end) == pytest.approx(60.0, rel=1e-12)


def test_window_left_by_a_half_line_exits_2_with_its_time(tmp_path, capsys):
    # in a window of radius 12 a half-line clip of the convex chain runs
    # out: simulate exits 2, writes nothing, and names the located time,
    # which lies between the rows 83.92 and 84.42 of a run in a wide window
    doc = {**CONVEX_CHAIN, "params": {"alpha": 1.0, "window_radius": 12.0},
           "integrator": {"max_time": 100.0, "max_step": 0.5}}
    out = tmp_path / "out"
    assert main(["simulate", put(tmp_path, "w.json", doc),
                 "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    t = float(re.search(r"left the window at t=([-+.e0-9]+)", err).group(1))
    assert 83.92 < t <= 84.42


def test_two_rectangles_generator(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "two-rect",
        "anisotropy": {"preset": "square"},
        "params": {"alpha": 1.0, "window_radius": 20.0},
        "curve": {"generator": {"family": "two-rectangles"}},
        "integrator": {"max_time": 1.0},
        "checks": [{"type": "status", "expect": "MaxTime"},
                   {"type": "segment-count", "expect": 11}],
    }
    sc = put(tmp_path, "r.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 0
    man = json.loads((tmp_path / "two-rect_manifest.json").read_text())
    assert man["generator"] == {"family": "two-rectangles"}
    assert man["restarts"] == []


def test_simulate_input_errors(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 2

    doc = dict(WULFF_SHRINK)
    doc["mystery"] = 1
    assert main(["simulate", put(tmp_path, "k.json", doc),
                 "--out-dir", str(tmp_path)]) == 2

    doc = dict(WULFF_SHRINK, checks=[{"type": "frobnicate"}])
    assert main(["simulate", put(tmp_path, "c.json", doc),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown type 'frobnicate'" in err

    # a requested snapshot past the simulated horizon is a hard error
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path),
                 "--max-time", "1.0"]) == 2

    # integrator values are typed before the run starts
    for key, value in (("substeps", 2.5), ("substeps", True),
                       ("max_step", "0.5"), ("rel_tol", None)):
        doc = dict(WULFF_SHRINK, integrator={"max_time": 1.0, key: value})
        capsys.readouterr()
        assert main(["simulate", put(tmp_path, "i.json", doc),
                     "--out-dir", str(tmp_path)]) == 2
        assert f"integrator: {key!r}" in capsys.readouterr().err


def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", put(tmp_path, "w.json", WULFF_SHRINK),
                 "--out-dir", str(taken)]) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err


def test_scenario_list_exits_2(tmp_path, capsys):
    assert main(["simulate", put(tmp_path, "l.json", [WULFF_SHRINK]),
                 "--out-dir", str(tmp_path)]) == 2
    assert "top-level JSON value must be an object" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


def test_load_scenario(tmp_path):
    assert load_scenario(put(tmp_path, "w.json", WULFF_SHRINK)) == WULFF_SHRINK
    with pytest.raises(SchemaError, match="unknown keys"):
        load_scenario(put(tmp_path, "x.json", dict(WULFF_SHRINK, extra=1)))


def test_regular_preset_scenario(tmp_path):
    sc = put(tmp_path, "o.json", OCTAGON)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 0
    man = json.loads((tmp_path / "octagon_manifest.json").read_text())
    (rec,) = man["restarts"]
    assert rec["vanished"] == [4, 5]


SQUARE_VERTICES = [[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]


@pytest.mark.parametrize("vertices", [SQUARE_VERTICES, SQUARE_VERTICES[::-1]],
                         ids=["clockwise", "counterclockwise"])
def test_vertex_anisotropy_matches_preset(tmp_path, vertices):
    docs = {"preset": WULFF_SHRINK,
            "vertices": dict(WULFF_SHRINK, anisotropy={"vertices": vertices})}
    for d, doc in docs.items():
        (tmp_path / d).mkdir()
        assert main(["simulate", put(tmp_path, f"{d}.json", doc),
                     "--out-dir", str(tmp_path / d), "--check"]) == 0
    names = sorted(f.name for f in (tmp_path / "preset").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "vertices").iterdir())
    for f in names:
        assert (tmp_path / "preset" / f).read_bytes() == \
            (tmp_path / "vertices" / f).read_bytes()


@pytest.mark.parametrize("aniso, message", [
    ({"preset": "regular", "sides": 2}, "'sides' must be an integer >= 3"),
    ({"preset": "hexagon"}, "unknown preset 'hexagon'"),
    ({"preset": "regular", "sides": 6, "circumradius": -1},
     "'circumradius' must be a positive number"),
    ({"vertices": [[1.0, 1.0], [0.0, 0.2], [1.0, -1.0], [-1.0, -1.0],
                   [-1.0, 1.0]]}, "vertices are not in convex position"),
    ({"vertices": [[1.0, 1.0], [1.0, 0.0], [1.0, -1.0], [-1.0, -1.0],
                   [-1.0, 1.0]]}, "consecutive facets are collinear"),
    ({"vertices": [[1.0, 1.0], [1.0, "x"], [-1.0, -1.0], [-1.0, 1.0]]},
     "'vertices' must be a list of 3 or more finite [x, y] pairs"),
], ids=["two-sides", "unknown-preset", "negative-circumradius", "non-convex",
        "collinear", "non-numeric"])
def test_anisotropy_input_errors(tmp_path, capsys, aniso, message):
    doc = dict(WULFF_SHRINK, anisotropy=aniso)
    assert main(["simulate", put(tmp_path, "a.json", doc),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"anisotropy: {message}" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["a.json"]


# CHAIN cut short, with another curve generator
def _quick(generator=None, **changes):
    doc = dict(CHAIN, params=WINDOWED, integrator={"max_time": 0.1},
               checks=[], **changes)
    if generator is not None:
        doc["curve"] = {"generator": generator}
    return doc


RIGHT = {"family": "stationary", "kind": "right-angle-chain", "m": 3}
DOUBLE = {"family": "stationary", "kind": "double-right-angle-chain", "m": 1}


@pytest.mark.parametrize("doc, key", [
    (_quick(outputs={"series": "no"}), "series"),
    (_quick(outputs={"manifest": "no"}), "manifest"),
    (_quick(dict(RIGHT, closed="no")), "closed"),
], ids=["series", "manifest", "closed"])
def test_scenario_flags_must_be_booleans(tmp_path, capsys, doc, key):
    sc = put(tmp_path, "s.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 2
    assert f"{key!r} must be true or false" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("doc, key", [
    (_quick(perturb_heights={"scale": 0.1, "seed": True}), "seed"),
    (_quick(dict(RIGHT, m=True)), "m"),
    (_quick(dict(RIGHT, m=2.5)), "m"),
    (_quick(dict(RIGHT, m="2")), "m"),
    (_quick({"family": "translating", "kind": "convex-chain", "m": True,
             "a": 0.58}), "m"),
    (_quick(dict(DOUBLE, a="1.5")), "a"),
    (_quick(dict(DOUBLE, b="2.5")), "b"),
    (_quick({"family": "translating", "kind": "single-step", "lam": "0.4"}),
     "lam"),
    (_quick(dict(RIGHT, connectors=5)), "connectors"),
    (_quick(dict(RIGHT, connectors=[1.0, True])), "connectors"),
    (_quick(dict(RIGHT, connectors=[1.0, "2"])), "connectors"),
], ids=["seed-bool", "m-bool", "m-float", "m-string", "translating-m-bool",
        "a-string", "b-string", "lam-string", "connectors-number",
        "connectors-bool", "connectors-string"])
def test_scenario_numbers_typed(tmp_path, capsys, doc, key):
    sc = put(tmp_path, "s.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 2
    assert f"{key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("changes, prefix", [
    ({"curve": {"vertices": [[0, 0], [1, 0], [0, 1]]}},
     "curve: segment 1 normal matches no Wulff facet"),
    ({"curve": {"generator": dict(DOUBLE, a=1.5, b=1.5)}},
     "curve generator: lengths a, b must satisfy"),
    ({"perturb_heights": {"seed": 0, "scale": 2.0}},
     "perturbation collapsed a segment: "),
], ids=["inadmissible-vertex-curve", "generator-out-of-range",
        "perturbation-collapse"])
def test_build_errors_exit_2(tmp_path, capsys, changes, prefix):
    sc = put(tmp_path, "s.json", dict(WULFF_SHRINK, **changes))
    assert main(["simulate", sc, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
    assert [f.name for f in tmp_path.iterdir()] == ["s.json"]


def test_simulate_restart_manifest(tmp_path):
    sc = put(tmp_path, "p.json", PINCH)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 0
    man = json.loads((tmp_path / "pinch_manifest.json").read_text())
    (rec,) = man["restarts"]
    assert rec["vanished"] == [3]
    assert rec["t"] == pytest.approx(0.2806, abs=5e-3)
    assert rec["index_before"] == rec["index_after"] == 0
    assert rec["merge_map"] == [0, 1, 2, -1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert [e["segments"] for e in man["epochs"]] == [12, 10]
    assert (tmp_path / "pinch_series_epoch1.csv").exists()
    snaps = json.loads((tmp_path / "pinch_snapshots.json").read_text())
    assert [s["epoch"] for s in snaps["snapshots"]] == [0, 1, 1]
    assert len(snaps["snapshots"][0]["heights"]) == 12
    assert len(snaps["snapshots"][2]["heights"]) == 10


# a Wulff square whose run, at t + (max_time - t), would end one ulp short
# of max_time (0.09728999999999999)
MAX_TIME_ULP = dict(WULFF_SHRINK, name="max-time-ulp",
                    curve={"generator": {"family": "wulff", "scale": 1.7}},
                    integrator={"max_time": 0.09729, "max_step": 0.1},
                    outputs={"snapshots": [0.0, 0.05, 0.09729]}, checks=[])


@pytest.mark.parametrize("doc,epochs", [
    (WULFF_SHRINK, [0, 0, 0]),  # 1.0 inside a step, 5.0 max_time
    (dict(CHAIN, outputs={"snapshots": [0.0, 0.05, 0.3]}), [0, 0, 0]),
    (MAX_TIME_ULP, [0, 0, 0]),
    (PINCH, [0, 1, 1]),  # across the restart
    (OCTAGON, [0, 1, 1]),
], ids=["wulff-long-step", "chain-short-step", "max-time-ulp", "pinch",
        "octagon"])
def test_snapshots_are_rows_at_their_times(tmp_path, doc, epochs):
    # each snapshot is the row at its requested time, which evolve records
    # from the extension of the step that spans it
    run_scenario(doc, str(tmp_path))
    snaps = json.loads(
        (tmp_path / f"{doc['name']}_snapshots.json").read_text())["snapshots"]
    assert [s["t"] for s in snaps] == doc["outputs"]["snapshots"]
    assert [s["epoch"] for s in snaps] == epochs
    assert {frozenset(s) for s in snaps} == {frozenset(
        ("t", "epoch", "closed", "points", "heights", "window_radius"))}


def test_snapshot_at_restart_time_reads_the_later_epoch(tmp_path):
    # both epochs hold a row at the restart time; the snapshot is the
    # post-restart curve.  A time that is no row raises.
    _, man = run_scenario(PINCH, str(tmp_path / "a"))
    t = man["restarts"][0]["t"]
    _, again = run_scenario(dict(PINCH, outputs={"snapshots": [t]}),
                            str(tmp_path / "b"))
    assert again == man  # no requested time adds a row in either run
    snap = json.loads((tmp_path / "b" / "pinch_snapshots.json").read_text())
    assert [(s["t"], s["epoch"], len(s["heights"]))
            for s in snap["snapshots"]] == [(t, 1, 10)]
    p = FlowParams(alpha=1.0)
    traj = evolve(build_curve(square_anisotropy(), PINCH["curve"]["vertices"],
                              "closed"), p, IntegratorOptions(max_time=2.0))
    with pytest.raises(TimeOutOfRange, match="snapshot time 0.123 "):
        snapshot_at(traj, 0.123, p)


def _all_rows(traj):
    """Every time at which ``traj`` holds a row."""
    return sorted({float(t) for s in traj.series for t in s.t})


@pytest.fixture(scope="module")
def convex_chain_run():
    # CONVEX_CHAIN's curve, params and integrator
    chain, _ = make_translating_square_aniso("convex-chain", 1.0, m=3, a=0.58)
    p = FlowParams(alpha=1.0, window_radius=60.0)
    return evolve(chain, p, IntegratorOptions(max_time=5.0)), p


@pytest.mark.parametrize("a,vertices,opts", [
    (square_anisotropy(), PINCH["curve"]["vertices"],
     IntegratorOptions(max_time=2.0, substeps=2)),
    (regular_polygon_anisotropy(6), OCTAGON["curve"]["vertices"],
     IntegratorOptions(max_time=1.0)),
], ids=["pinch", "octagon"])
def test_closed_snapshot_points_are_the_rebuilt_vertices(a, vertices, opts):
    # a snapshot's points are its row's line junctions: bit for bit the
    # vertices of the curve reconstruct_parallel rebuilds at its heights
    p = FlowParams(alpha=1.0)
    traj = evolve(build_curve(a, vertices, "closed"), p, opts)
    assert len(traj.epochs) == 2
    for t in _all_rows(traj):
        snap = snapshot_at(traj, t, p)
        rebuilt = reconstruct_parallel(traj.epochs[snap["epoch"]],
                                       snap["heights"])
        assert snap["closed"] and snap["window_radius"] is None
        assert snap["points"] == np.asarray(rebuilt.vertices).tolist()


def test_unbounded_snapshot_ends_are_the_energy_clips(convex_chain_run):
    # each end is its junction plus the clip the row's energy reads, L_w - S h
    traj, p = convex_chain_run
    (ref,) = traj.epochs
    for t in _all_rows(traj):
        snap = snapshot_at(traj, t, p)
        clip = windowed_lengths(ref, p, snap["heights"])
        pts = np.array(snap["points"])
        assert not snap["closed"] and snap["window_radius"] == 60.0
        assert snap["points"][0] == (pts[1] + clip[0] * ref.rays[0]).tolist()
        assert snap["points"][-1] == (pts[-2] + clip[-1] * ref.rays[1]).tolist()


def test_snapshot_builds_no_curve(monkeypatch, convex_chain_run):
    # a snapshot reads its row and the epoch's reference curve: neither
    # build_curve nor reconstruct_parallel runs
    closed_p = FlowParams(alpha=1.0)
    closed = evolve(build_curve(square_anisotropy(),
                                PINCH["curve"]["vertices"], "closed"),
                    closed_p, IntegratorOptions(max_time=2.0, substeps=2))
    calls = []

    def spy(mod, name):
        real = getattr(mod, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, call)

    for mod in (cli, curve_module):
        spy(mod, "build_curve")
        spy(mod, "reconstruct_parallel")
    for traj, p in (convex_chain_run, (closed, closed_p)):
        for t in _all_rows(traj):
            snapshot_at(traj, t, p)
    assert calls == []


def test_unbounded_snapshot_without_a_window_raises(convex_chain_run):
    # no window radius is invented for an unbounded curve
    traj, _ = convex_chain_run
    with pytest.raises(WindowTooSmall, match="window_radius is required"):
        snapshot_at(traj, 0.0, FlowParams(alpha=1.0))


def test_out_dir_resolution(tmp_path, monkeypatch):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    envd = tmp_path / "env_out"
    envd.mkdir()
    monkeypatch.setenv("CRYSTAL_FLOW_OUT", str(envd))
    assert main(["simulate", sc]) == 0
    assert (envd / "wulff-shrink_manifest.json").exists()
    # explicit flag wins over the environment
    flagd = tmp_path / "flag_out"
    flagd.mkdir()
    assert main(["simulate", sc, "--out-dir", str(flagd)]) == 0
    assert (flagd / "wulff-shrink_manifest.json").exists()


def test_catalog_and_classify(tmp_path, capsys):
    assert main(["catalog", "--list"]) == 0
    out = capsys.readouterr().out
    assert out.split() == ["staircase", "right-angle-chain",
                           "double-right-angle-chain", "wulff-square"]

    f = str(tmp_path / "chain.json")
    assert main(["catalog", "--kind", "right-angle-chain", "--closed",
                 "--m", "2", "--alpha", "1.0", "--out", f]) == 0
    doc = json.loads((tmp_path / "chain.json").read_text())
    assert doc["alpha"] == 1.0 and doc["closed"]
    assert len(doc["curve"]["vertices"]) == 12

    assert main(["classify", f, "--expect", "right-angle-chain"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "right-angle-chain" and rep["m"] == 2
    assert rep["a"] is None and rep["b"] is None
    # another kind than --expect exits 1 and still prints the classification
    assert main(["classify", f, "--expect", "staircase"]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "right-angle-chain"
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_classify_non_square_curve_exits_2(tmp_path, capsys):
    # a curve on another anisotropy is bad input, not a failed check
    hexagon = regular_polygon_anisotropy(6)
    f = put(tmp_path, "hex.json", {
        "anisotropy": {"preset": "regular", "sides": 6},
        "vertices": (1.5 * hexagon.vertices).tolist(), "topology": "closed"})
    assert main(["classify", f]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "requires the square anisotropy" in err


def test_classify_non_stationary_curve_exits_1(tmp_path, capsys):
    # the chain built for alpha = 1 is not stationary at alpha = 2
    chain = str(tmp_path / "chain.json")
    assert main(["catalog", "--kind", "right-angle-chain", "--closed", "--m",
                 "2", "--alpha", "1", "--out", chain]) == 0
    assert main(["classify", chain, "--alpha", "2"]) == 1
    out, err = capsys.readouterr()
    assert "exceeds tolerance" in json.loads(out)["error"] and err == ""


def test_catalog_stdout_matches_out_file(tmp_path, capsys):
    flags = ["catalog", "--kind", "double-right-angle-chain", "--m", "3"]
    f = tmp_path / "double.json"
    assert main(flags + ["--out", str(f)]) == 0
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out.encode() == f.read_bytes()


def test_curve_file_refuses_unknown_keys(tmp_path, capsys):
    f = tmp_path / "w.json"
    assert main(["catalog", "--kind", "wulff-square", "--closed",
                 "--out", str(f)]) == 0
    doc = json.loads(f.read_text())
    doc["curve"]["anisotropie"] = doc["curve"].pop("anisotropy")
    f.write_text(json.dumps(doc))
    assert main(["classify", str(f)]) == 2
    assert "curve: unknown keys ['anisotropie']" in capsys.readouterr().err


def test_catalog_connectors_and_doubles(tmp_path, capsys):
    f = str(tmp_path / "dbl.json")
    assert main(["catalog", "--kind", "double-right-angle-chain", "--m", "1",
                 "--a", "1.5", "--b", str(np.sqrt(18.0)), "--out", f]) == 0
    assert main(["classify", f]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert sorted([rep["a"], rep["b"]]) == pytest.approx([1.5, np.sqrt(18.0)])
    # inconsistent side lengths are refused at generation time
    assert main(["catalog", "--kind", "double-right-angle-chain", "--m", "1",
                 "--a", "1.5", "--b", "1.5", "--out", f]) == 2
    # wrong connector count likewise
    assert main(["catalog", "--kind", "staircase", "--m", "4",
                 "--connectors", "1,2,3", "--out", f]) == 2


@pytest.mark.parametrize("flags, message", [
    ([], "error: catalog: missing required key 'kind'"),
    (["--kind", "stair"], "error: catalog: 'kind' must be one of"),
    (["--kind", "staircase", "--a", "nan"],
     "error: catalog: 'a' must be a finite number"),
    (["--kind", "staircase", "--connectors", "1,x"],
     "argument --connectors: not a comma-separated list of numbers: '1,x'"),
    (["--kind", "staircase", "--m", "4", "--connectors", "1,2,3"],
     "error: curve generator: staircase with 4 segments takes 2 lengths"),
    (["--kind", "wulff-square", "--alpha", "0"],
     "error: catalog: '--alpha' must be a positive number"),
], ids=["no-kind", "unknown-kind", "a-nan", "connectors-not-numbers",
        "connector-count", "alpha-zero"])
def test_catalog_flags_read_as_generator_block(tmp_path, capsys, flags,
                                               message):
    # catalog's flags are the keys of a stationary curve generator
    out = tmp_path / "c.json"
    assert main(["catalog", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_translating_check_cli(tmp_path, capsys):
    f = _step_profile(tmp_path)
    assert main(["translating-check", f, "--eta", "0,1", "--check"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["accepted"] and rep["velocity"] == pytest.approx(0.5)
    assert rep["residual"] <= 1e-10

    g = put(tmp_path, "sq.json", {
        "anisotropy": {"preset": "square"},
        "vertices": [[-1, 1], [1, 1], [1, -1], [-1, -1]],
        "topology": "closed",
    })
    assert main(["translating-check", g, "--eta", "0,1", "--check"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"] is None and "never translate" in rep["note"]


def test_translating_check_rejects_two_rectangles(tmp_path, capsys):
    # a rejected candidate exits 1 only under --check
    c = make_nontranslating_two_rectangles(1.0)
    f = put(tmp_path, "two-rect.json", {
        "anisotropy": {"preset": "square"}, "vertices": c.vertices.tolist(),
        "topology": "unbounded", "rays": c.rays.tolist()})
    assert main(["translating-check", f, "--check"]) == 1
    assert json.loads(capsys.readouterr().out)["accepted"] is False
    assert main(["translating-check", f]) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is False


def test_verify_identity_cli(capsys):
    assert main(["verify-identity", "--preset", "square"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["triples"] == 16 and rep["passed"]
    assert rep["max_residual"] <= 1e-12

    assert main(["verify-identity", "--preset", "regular",
                 "--sides", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["triples"] == 28 and rep["passed"]

    assert main(["verify-identity", "--preset", "regular", "--sides", "7",
                 "--tol", "1e-20"]) == 1
