import json

import numpy as np
import pytest

from crystalflow import make_translating_square_aniso
from crystalflow.cli import main

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
    assert lines[0] == ("t,energy,dissipation,max_abs_rate,"
                        "min_bounded_length,total_bounded_length")
    assert lines[1].startswith("0.0,20.0,")
    snaps = json.loads((tmp_path / "wulff-shrink_snapshots.json").read_text())
    assert [s["t_requested"] for s in snaps["snapshots"]] == [0.0, 1.0, 5.0]
    assert set(snaps["snapshots"][0]) >= {"t", "epoch", "heights", "lengths",
                                          "points", "closed"}


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


def test_check_keys_validated(tmp_path, capsys):
    for check in ({"type": "final-energy", "max": 30.0, "bogus": 1},
                  {"type": "final-energy", "expect": 16.0},
                  {"type": "final-energy"},
                  {"type": "status", "expect": "MaxTime", "tol": 1}):
        doc = dict(WULFF_SHRINK, checks=[check])
        assert main(["simulate", put(tmp_path, "w.json", doc),
                     "--out-dir", str(tmp_path), "--check"]) == 2, check
    assert "unknown keys ['bogus']" in capsys.readouterr().err


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


@pytest.mark.parametrize("doc", [WULFF_SHRINK, PINCH], ids=["readme", "restart"])
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
    assert len(man["restarts"]) == (1 if doc is PINCH else 0)


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


@pytest.mark.parametrize("field, value, message", [
    ("epochs", [1], "'epochs' must be a list of objects"),
    ("epochs", "wulff-shrink_series_epoch0.csv",
     "'epochs' must be a list of objects"),
    ("epochs", [{"series": 5}], "'epochs' must be a list of objects"),
    ("final", 3.0, "'final' must be an object"),
    ("final", {"energy": "16"}, "'final' must be an object"),
], ids=["epoch-number", "epochs-string", "series-number", "final-number",
        "energy-string"])
def test_audit_rejects_malformed_manifest(tmp_path, capsys, field, value,
                                          message):
    sc = put(tmp_path, "w.json", WULFF_SHRINK)
    assert main(["simulate", sc, "--out-dir", str(tmp_path)]) == 0
    man_path = tmp_path / "wulff-shrink_manifest.json"
    man = json.loads(man_path.read_text())
    man[field] = value
    man_path.write_text(json.dumps(man))
    capsys.readouterr()
    assert main(["audit", str(man_path)]) == 2
    assert message in capsys.readouterr().err


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
        # heights are measured from the perturbed curve, so its lengths
        # carry the perturbation
        runs.append((man, snap["snapshots"][0]["lengths"]))
    (man, lengths), (man5, lengths5) = runs
    assert man["status"] == "Converged" and man["generator"]["kind"] == \
        "right-angle-chain"
    assert man["perturb"] == {"seed": 3, "scale": 0.1}
    assert man5["perturb"]["seed"] == 5
    assert lengths != lengths5


def test_translating_profile_clipped_to_window(tmp_path):
    doc = {
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
    sc = put(tmp_path, "t.json", doc)
    assert main(["simulate", sc, "--out-dir", str(tmp_path), "--check"]) == 0
    man = json.loads((tmp_path / "convex-chain_manifest.json").read_text())
    assert man["generator"]["family"] == "translating"
    snaps = json.loads((tmp_path / "convex-chain_snapshots.json").read_text())
    for s in snaps["snapshots"]:
        assert not s["closed"] and s["window_radius"] == 60.0
        for end in (s["points"][0], s["points"][-1]):
            assert np.hypot(*end) == pytest.approx(60.0, rel=1e-12)


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
    assert len(snaps["snapshots"][0]["lengths"]) == 12
    assert len(snaps["snapshots"][2]["lengths"]) == 10


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
    assert main(["classify", f, "--expect", "staircase"]) == 1
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


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


def test_translating_check_cli(tmp_path, capsys):
    c, lam = make_translating_square_aniso("single-step", 1.0, lam=0.5)
    f = put(tmp_path, "step.json", {
        "anisotropy": {"preset": "square"},
        "vertices": c.vertices.tolist(),
        "topology": "unbounded",
        "rays": c.rays.tolist(),
    })
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
