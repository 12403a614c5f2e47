"""Command-line behavior: grammars, reports, files, exit codes, determinism."""

import json

import pytest

from loopcrystal import catalog as cat
from loopcrystal import cli
from loopcrystal import components as comp
from loopcrystal import ktheory as kt
from loopcrystal.starlattice import WeightData


P1 = WeightData((1, 1, 1))
W237 = WeightData((2, 3, 7))


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-level rejection
        code = 0 if exc.code is None else exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def write_component(tmp_path, curve, z, name="z.json"):
    path = tmp_path / name
    path.write_text(json.dumps(comp.label_to_json(curve, z)))
    return str(path)


def line_label(curve, *degs):
    return comp.component_label(
        curve,
        [cat.LineBundle(curve.normalize([0] * curve.n, l=d)) for d in degs],
        (),
        (),
    )


# ---------------------------------------------------------------------------
# curve info
# ---------------------------------------------------------------------------

class TestCurveInfo:
    def test_projective_line(self, capsys):
        d = run_json(capsys, ["curve", "info", "--weights", "1,1,1"])
        assert d["genus"] == "0"
        assert d["regime"] == "finite"
        assert d["k_rank"] == 2
        assert d["p"] == 1

    def test_tubular(self, capsys):
        d = run_json(capsys, ["curve", "info", "--weights", "2,2,2,2"])
        assert d["genus"] == "1"
        assert d["regime"] == "tubular"
        assert d["k_rank"] == 6

    def test_wild(self, capsys):
        d = run_json(capsys, ["curve", "info", "--weights", "2,3,7"])
        assert d["genus"] == "3/2"
        assert d["regime"] == "wild"
        assert d["k_rank"] == 11
        assert d["omega"] == W237.omega().to_json()

    def test_short_weight_lists_pad(self, capsys):
        d = run_json(capsys, ["curve", "info", "--weights", "2"])
        assert d["weights"] == [2, 1, 1]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

class TestConfig:
    def test_lambda_with_inf_sentinel(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", "1/2"]}
            )
        )
        d = run_json(capsys, ["--config", str(cfg), "curve", "info"])
        assert d["points"] == ["0", "inf", "1", "1/2"]
        assert d["regime"] == "tubular"

    def test_irrational_parameter_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", "x?"]})
        )
        code, _, err = run(capsys, ["--config", str(cfg), "curve", "info"])
        assert code == 2
        assert "not rational" in err

    def test_repeated_parameter_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", "1"]})
        )
        code, _, err = run(capsys, ["--config", str(cfg), "curve", "info"])
        assert code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["--config", str(tmp_path / "nope.json"), "curve", "info"]
        )
        assert code == 2
        assert "config" in err

    def test_config_seed_used_by_oracle(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": [1, 1, 1], "seed": 9, "trials": 3}))
        d = run_json(
            capsys, ["--config", str(cfg), "oracle", "check", "--suite", "p1"]
        )
        assert d["seed"] == 9
        assert d["trials"] == 3


# ---------------------------------------------------------------------------
# class grammar and lattice commands
# ---------------------------------------------------------------------------

class TestClassCommands:
    def test_euler_structure_point(self, capsys):
        d = run_json(capsys, ["class", "euler", "O", "delta", "--weights", "1,1,1"])
        assert d["euler"] == 1
        d = run_json(capsys, ["class", "euler", "delta", "O", "--weights", "1,1,1"])
        assert d["euler"] == -1

    def test_grammar_round_trip(self, capsys):
        d = run_json(
            capsys,
            ["class", "slope", "2*O + 3*delta - S[1,1]", "--weights", "2,3,7"],
        )
        a = kt.KClass.from_json(d["class"], W237)
        expect = kt.sub(
            kt.add(kt.scale(2, kt.structure_class(W237)), kt.scale(3, kt.delta_class(W237))),
            kt.class_of_simple(W237, 0, 1),
        )
        assert a == expect
        assert d["degree"] == kt.degree_d(W237, expect)
        assert d["slope"] == "105/2"

    def test_torsion_slope_is_infinite(self, capsys):
        d = run_json(capsys, ["class", "slope", "2*delta", "--weights", "2,3,7"])
        assert d["slope"] == "inf"

    def test_zero_class_has_no_slope(self, capsys):
        code, _, err = run(capsys, ["class", "slope", "0", "--weights", "1,1,1"])
        assert code == 2
        assert "slope" in err

    def test_bare_integer_rejected(self, capsys):
        code, _, err = run(capsys, ["class", "slope", "5", "--weights", "1,1,1"])
        assert code == 2
        assert "bare integer" in err

    def test_garbage_rejected(self, capsys):
        code, _, err = run(capsys, ["class", "slope", "garbage+++"])
        assert code == 2
        assert "error" in err


# ---------------------------------------------------------------------------
# sheaf labels
# ---------------------------------------------------------------------------

class TestSheafCommands:
    def test_serial_torsion_is_rigid(self, capsys):
        d = run_json(capsys, ["sheaf", "rigid", "S[1,1]", "--weights", "2,3,7"])
        assert d["rigid"] is True
        assert d["class"] == kt.class_of_simple(W237, 0, 1).to_json()

    def test_ordinary_torsion_is_not_rigid(self, capsys):
        d = run_json(capsys, ["sheaf", "rigid", "T[pt1](1)", "--weights", "1,1,1"])
        assert d["rigid"] is False

    def test_hom_matches_library(self, capsys):
        d = run_json(capsys, ["sheaf", "hom", "O", "O(c)", "--weights", "2,3,7"])
        a = cat.LineBundle(W237.zero())
        b = cat.LineBundle(W237.normalize([0, 0, 0], l=1))
        assert d["hom"] == cat.hom_dim(W237, a, b)
        assert d["ext"] == cat.ext_dim(W237, a, b)

    def test_line_bundle_expression(self):
        label = cli.parse_sheaf_label(W237, "O(2c - x1 + x3)")
        assert label == cat.LineBundle(W237.normalize([-1, 0, 1], l=2))
        # bare integers count in c-units
        assert cli.parse_sheaf_label(P1, "O(-1)") == cat.LineBundle(
            P1.normalize([0, 0, 0], l=-1)
        )

    def test_serial_length_spellings_agree(self):
        assert cli.parse_sheaf_label(W237, "S[2,1,2]") == cli.parse_sheaf_label(
            W237, "S[2,1](2)"
        )

    def test_real_bundle_vector(self):
        w222 = WeightData((2, 2, 2))
        rb = cat.enumerate_real_bundles(w222, 2)[0]
        text = "E(" + ",".join(str(v) for v in kt.to_vector(rb.a)) + ")"
        assert cli.parse_sheaf_label(w222, text) == rb

    def test_out_of_range_point_rejected(self, capsys):
        code, _, err = run(capsys, ["sheaf", "rigid", "S[9,0]", "--weights", "2,3,7"])
        assert code == 2
        code, _, err = run(capsys, ["sheaf", "rigid", "O(x9)", "--weights", "2,3,7"])
        assert code == 2


# ---------------------------------------------------------------------------
# component listings
# ---------------------------------------------------------------------------

class TestComponentsList:
    def test_single_point_class(self, capsys):
        d = run_json(
            capsys, ["components", "list", "--class", "delta", "--weights", "1,1,1"]
        )
        assert d["count"] == 1

    def test_two_points_give_two_partitions(self, capsys):
        d = run_json(
            capsys, ["components", "list", "--class", "2*delta", "--weights", "1,1,1"]
        )
        assert d["count"] == 2

    def test_weighted_point_splits_delta(self, capsys):
        d = run_json(
            capsys, ["components", "list", "--class", "delta", "--weights", "2,1,1"]
        )
        assert d["count"] == 3

    def test_listing_matches_library(self, capsys):
        d = run_json(
            capsys,
            ["components", "list", "--class", "O + delta", "--weights", "1,1,1"],
        )
        want = comp.enumerate_components_finite(
            P1, kt.add(kt.structure_class(P1), kt.delta_class(P1))
        )
        assert d["count"] == len(want)
        assert [c["display"] for c in d["components"]] == [
            comp.format_label(P1, z) for z in want
        ]
        assert all(
            c["expected_dim"] == comp.expected_dim(P1, comp.label_from_json(c["label"], P1))
            for c in d["components"]
        )

    def test_tubular_listing_matches_library(self, capsys):
        w = WeightData((2, 2, 2, 2))
        d = run_json(
            capsys,
            [
                "components", "list", "--class", "O + delta",
                "--slope-window", "0", "inf", "--weights", "2,2,2,2",
            ],
        )
        want = comp.enumerate_components_tubular(
            w,
            kt.add(kt.structure_class(w), kt.delta_class(w)),
            slope_window=(0, float("inf")),
        )
        assert d["count"] == len(want)

    def test_wild_rank_refused(self, capsys):
        code, _, err = run(
            capsys, ["components", "list", "--class", "O", "--weights", "2,3,7"]
        )
        assert code == 2
        assert "unsupported" in err


# ---------------------------------------------------------------------------
# crystal apply
# ---------------------------------------------------------------------------

class TestCrystalApply:
    def test_raise_from_empty(self, capsys):
        d = run_json(
            capsys,
            ["crystal", "apply", "--op", "e", "--color", "O", "--component", "empty"],
        )
        assert d["output"] == comp.label_to_json(P1, line_label(P1, 0))

    def test_lower_empty_is_null(self, capsys):
        d = run_json(
            capsys,
            ["crystal", "apply", "--op", "f", "--color", "O(-1)", "--component", "empty"],
        )
        assert d["output"] is None

    def test_epsilon_and_phi_on_file(self, capsys, tmp_path):
        path = write_component(tmp_path, P1, line_label(P1, 0, 0))
        d = run_json(
            capsys,
            ["crystal", "apply", "--op", "eps", "--color", "O", "--component", path],
        )
        assert d["value"] == 2
        d = run_json(
            capsys,
            ["crystal", "apply", "--op", "phi", "--color", "O", "--component", path],
        )
        assert d["value"] == 4

    def test_full_lowering_leaves_points(self, capsys, tmp_path):
        path = write_component(tmp_path, P1, line_label(P1, 0))
        d = run_json(
            capsys,
            ["crystal", "apply", "--op", "fmax", "--color", "O(-1)", "--component", path],
        )
        assert d["output"] == comp.label_to_json(
            P1, comp.component_label(P1, (), (1,), ())
        )

    def test_op_aliases(self, capsys, tmp_path):
        path = write_component(tmp_path, P1, line_label(P1, 0))
        d1 = run_json(
            capsys,
            ["crystal", "apply", "--op", "epsilon", "--color", "O", "--component", path],
        )
        d2 = run_json(
            capsys,
            ["crystal", "apply", "--op", "eps", "--color", "O", "--component", path],
        )
        assert d1["value"] == d2["value"] == 1

    def test_unsupported_shape_exits_2(self, capsys, tmp_path):
        path = write_component(tmp_path, W237, line_label(W237, 3, 1, 1))
        code, _, err = run(
            capsys,
            [
                "crystal", "apply", "--op", "eps", "--color", "O(1)",
                "--component", path, "--weights", "2,3,7",
            ],
        )
        assert code == 2
        assert "unsupported" in err

    def test_quotient_chain_outside_grid_exits_2(self, capsys, tmp_path):
        # a generic quotient step here lowers epsilon by more than one
        path = write_component(tmp_path, P1, line_label(P1, -1, -2, 0, 3))
        code, out, err = run(
            capsys,
            ["crystal", "apply", "--op", "f_max", "--color", "O(-2)", "--component", path],
        )
        assert code == 2
        assert out == ""
        assert "unsupported" in err

    def test_unknown_op_shows_usage(self, capsys):
        code, _, err = run(
            capsys,
            ["crystal", "apply", "--op", "squash", "--color", "O", "--component", "empty"],
        )
        assert code == 2
        assert "usage" in err


# ---------------------------------------------------------------------------
# crystal graph / verify
# ---------------------------------------------------------------------------

class TestCrystalGraph:
    def test_rank_ladder(self, capsys):
        d = run_json(
            capsys,
            ["crystal", "graph", "--seeds", "empty", "--colors", "O", "--max-rank", "3"],
        )
        assert len(d["nodes"]) == 4
        assert len(d["edges"]) == 3
        assert d["complete"] is True

    def test_deterministic_output(self, capsys):
        argv = [
            "crystal", "graph", "--seeds", "empty",
            "--colors", "O", "O(1)", "O(-1)", "--max-rank", "2", "--max-deg", "2",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_dot_emission(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty", "--colors", "O",
                "--max-rank", "2", "--dot",
            ],
        )
        assert code == 0
        assert out.startswith("digraph")
        assert 'f[O(' in out

    def test_verify_clean_graph(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty", "--colors", "O", "O(-1)",
                "--max-rank", "2", "--max-deg", "2", "--verify",
            ],
        )
        assert code == 0

    def test_node_cap_marks_incomplete(self, capsys):
        d = run_json(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty", "--colors", "O",
                "--max-rank", "5", "--max-nodes", "2",
            ],
        )
        assert d["complete"] is False

    def test_seed_outside_window(self, capsys, tmp_path):
        path = write_component(tmp_path, P1, line_label(P1, 5))
        code, _, err = run(
            capsys,
            ["crystal", "graph", "--seeds", path, "--colors", "O", "--max-deg", "1"],
        )
        assert code == 2
        assert "budget" in err

    def test_verify_round_trip_and_corruption(self, capsys, tmp_path):
        d = run_json(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty",
                "--colors", "S[1,0]", "S[1,1]", "--max-delta", "2",
                "--weights", "2,1,1",
            ],
        )
        good = tmp_path / "good.json"
        good.write_text(json.dumps(d))
        report = run_json(capsys, ["crystal", "verify", "--graph", str(good)])
        assert report["count"] == 0

        d["edges"][0]["target"] = (d["edges"][0]["target"] + 1) % len(d["nodes"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, out, _ = run(capsys, ["crystal", "verify", "--graph", str(bad)])
        assert code == 3
        assert json.loads(out)["count"] >= 1


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------

class TestOracleCheck:
    def test_cyclic_suite_agrees(self, capsys):
        d = run_json(capsys, ["oracle", "check", "--suite", "cyclic", "--seed", "1"])
        assert d["all_agree"] is True
        assert all(c["agree"] for c in d["cases"])
        assert len(d["cases"]) > 50

    def test_p1_suite_agrees(self, capsys):
        d = run_json(
            capsys,
            ["oracle", "check", "--suite", "p1", "--seed", "1", "--trials", "4"],
        )
        assert d["all_agree"] is True
        assert d["trials"] == 4

    def test_env_seed_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPCRYSTAL_SEED", "41")
        d = run_json(capsys, ["oracle", "check", "--suite", "p1", "--trials", "2"])
        assert d["seed"] == 41

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPCRYSTAL_SEED", "41")
        d = run_json(
            capsys,
            ["oracle", "check", "--suite", "p1", "--seed", "7", "--trials", "2"],
        )
        assert d["seed"] == 7

    @pytest.mark.parametrize("suite", ["cyclic", "p1"])
    def test_zero_trials_rejected(self, capsys, suite):
        code, out, err = run(
            capsys, ["oracle", "check", "--suite", suite, "--trials", "0"]
        )
        assert code == 2
        assert out == ""
        assert "trials" in err

    def test_zero_trials_in_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 0}))
        code, out, err = run(
            capsys, ["--config", str(cfg), "oracle", "check", "--suite", "p1"]
        )
        assert code == 2
        assert out == ""
        assert "trials" in err

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPCRYSTAL_SEED", "many")
        code, _, err = run(capsys, ["oracle", "check", "--suite", "p1"])
        assert code == 2
        assert "LOOPCRYSTAL_SEED" in err
