"""Command-line behavior: grammars, reports, files, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcrystal import catalog as cat
from loopcrystal import cli
from loopcrystal import components as comp
from loopcrystal import crystal as cr
from loopcrystal import ktheory as kt
from loopcrystal import oracle as orc
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


def _line_bundle(residues, l=0):
    return {"kind": "line_bundle", "x": {"l": l, "residues": residues}}


def _component(bundle=(), ordinary=(), exceptional=()):
    return {"bundle": list(bundle), "ordinary": list(ordinary), "exceptional": list(exceptional)}


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

    @pytest.mark.parametrize(
        "fields, command",
        [
            ({"weights": 5}, ["curve", "info"]),
            ({"lambda": 5}, ["curve", "info"]),
            ({"weights": [2.5, 1, 1]}, ["curve", "info"]),
            ({"weights": [True, 2, 3]}, ["curve", "info"]),
            ({"seed": [1]}, ["oracle", "check", "--suite", "p1"]),
            ({"trials": 2.7}, ["oracle", "check", "--suite", "p1"]),
        ],
        ids=["weights-int", "lambda-int", "weight-float", "weight-bool", "seed-list",
             "trials-float"],
    )
    def test_field_of_wrong_type_exits_2(self, capsys, tmp_path, fields, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code, out, err = run(capsys, ["--config", str(cfg)] + command)
        assert code == 2
        assert out == ""
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

    def test_ordinary_torsion_at_weighted_point_exits_2(self, capsys):
        code, out, err = run(
            capsys, ["sheaf", "hom", "--weights", "2,3,7", "T[0](1)", "S[1,0]"]
        )
        assert code == 2
        assert out == ""
        assert "S[i,j](l)" in err

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

    @pytest.mark.parametrize(
        "window, extra, expected",
        [
            (["-1/2", "3/2"], [], (Fraction(-1, 2), Fraction(3, 2))),
            (["-0.5", "3/2"], [], (Fraction(-1, 2), Fraction(3, 2))),
            (["-1", "3/2"], [], (Fraction(-1), Fraction(3, 2))),
            (["-1/2", "3/2"], ["--max-parts", "1"], (Fraction(-1, 2), Fraction(3, 2))),
        ],
        ids=["negative-fraction", "negative-decimal", "negative-integer", "option-after"],
    )
    def test_negative_slope_window_lower_end(self, capsys, window, extra, expected):
        w = WeightData((2, 2, 2, 2))
        d = run_json(
            capsys,
            ["components", "list", "--weights", "2,2,2,2", "--class", "2*O+delta",
             "--slope-window", *window, *extra],
        )
        want = comp.enumerate_components_tubular(
            w,
            kt.add(kt.scale(2, kt.structure_class(w)), kt.delta_class(w)),
            slope_window=expected,
            max_parts=int(extra[1]) if extra else 4,
        )
        assert [c["display"] for c in d["components"]] == [
            comp.format_label(w, z) for z in want
        ]

    @pytest.mark.parametrize(
        "window, bad",
        [(["1/0", "inf"], "'1/0'"), (["abc", "inf"], "'abc'"), (["inf", "inf"], "'inf'"),
         (["0", "1/0"], "'1/0'")],
        ids=["zero-denominator", "not-a-number", "infinite-lower-end", "zero-denominator-hi"],
    )
    def test_bad_slope_window_exits_2(self, capsys, window, bad):
        code, out, err = run(
            capsys,
            ["components", "list", "--weights", "2,2,2,2", "--class", "O",
             "--slope-window", *window],
        )
        assert code == 2
        assert out == ""
        assert f"{bad} is not rational" in err
        assert "Traceback" not in err

    TUBULAR = ["--weights", "2,2,2,2", "--class", "2*O", "--slope-window", "-1", "1"]
    FINITE = ["--weights", "2,2,2", "--class", "2*O + delta"]

    def test_listings_beside_the_refusals(self, capsys):
        assert run_json(capsys, ["components", "list", *self.TUBULAR])["count"] == 10
        assert run_json(
            capsys, ["components", "list", *self.FINITE, "--real-bundle-box", "2"]
        )["count"] == 12

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (TUBULAR + ["--max-parts", "0"], "max_parts must be at least 1"),
            (TUBULAR + ["--max-parts", "-1"], "max_parts must be at least 1"),
            (["--weights", "2,2,2,2", "--class", "O", "--slope-window", "1", "0"],
             "empty slope window"),
            (FINITE + ["--real-bundle-box", "0"], "real_bundle_box must be at least 2"),
            (FINITE + ["--real-bundle-box", "1"], "real_bundle_box must be at least 2"),
            (["--weights", "2,2,2,2", "--class", "delta", "--max-parts", "0"],
             "max_parts must be at least 1"),
            (["--weights", "2,2,2,2", "--class", "delta", "--slope-window", "1", "0"],
             "empty slope window"),
            (["--weights", "2,2,2", "--class", "delta", "--real-bundle-box", "1"],
             "real_bundle_box must be at least 2"),
            (["--weights", "2,2,2", "--class", "O", "--real-bundle-box", "1"],
             "real_bundle_box must be at least 2"),
        ],
        ids=["no-parts", "negative-parts", "empty-window", "box-0", "box-1",
             "rank-0-no-parts", "rank-0-empty-window", "rank-0-box-1", "rank-1-box-1"],
    )
    def test_inputs_that_admit_nothing_exit_2(self, capsys, argv, refused):
        # each of these listed nothing, or fewer labels than the listings
        # above, with exit 0; the rank-0 ones listed the torsion labels as if
        # the option had not been given
        code, out, err = run(capsys, ["components", "list", *argv])
        assert (code, out) == (2, "")
        assert refused in err
        assert "Traceback" not in err

    def assert_refused(self, capsys, argv, option, owner):
        # each option refused this way exited 0 and was ignored, because only
        # its own regime's enumerator reads it
        code, out, err = run(capsys, ["components", "list", *argv])
        assert (code, out) == (2, "")
        assert f"{option} applies to {owner} weights only" in err
        assert "Traceback" not in err

    def test_tubular_options_refused_on_finite_weights(self, capsys):
        argv = ["--weights", "2,2,2", "--class", "O"]
        self.assert_refused(capsys, argv + ["--max-parts", "0"], "--max-parts", "tubular")
        self.assert_refused(
            capsys, argv + ["--slope-window", "1", "0"], "--slope-window", "tubular"
        )
        # the regime's own floor reaches its enumerator
        w = WeightData((2, 2, 2))
        a = kt.add(kt.structure_class(w), kt.delta_class(w))
        d = run_json(
            capsys, ["components", "list", "--weights", "2,2,2", "--class", "O + delta",
                     "--min-degree", "-1"],
        )
        want = comp.enumerate_components_finite(w, a, min_degree=-1)
        assert [c["display"] for c in d["components"]] == [
            comp.format_label(w, z) for z in want
        ]
        assert len(want) > len(comp.enumerate_components_finite(w, a))

    def test_finite_options_refused_on_tubular_weights(self, capsys):
        argv = ["--weights", "2,2,2,2", "--class", "O"]
        self.assert_refused(
            capsys, argv + ["--real-bundle-box", "0"], "--real-bundle-box", "finite"
        )
        self.assert_refused(capsys, argv + ["--min-degree", "5"], "--min-degree", "finite")

    def test_every_option_refused_on_wild_weights(self, capsys):
        argv = ["--weights", "2,3,7", "--class", "delta"]
        self.assert_refused(capsys, argv + ["--max-parts", "0"], "--max-parts", "tubular")
        self.assert_refused(capsys, argv + ["--min-degree", "3"], "--min-degree", "finite")
        assert run_json(capsys, ["components", "list", *argv])["count"] > 0

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

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": 3}, "component"),
            ([], "component"),
            ({"bundle": [], "ordinary": []}, "component"),
            ({"bundle": [{"kind": "hn_leaf"}], "ordinary": [], "exceptional": []}, "component"),
            ({"bundle": [{"kind": "line_bundle"}], "ordinary": [], "exceptional": []}, "component"),
            ({"bundle": [], "ordinary": [], "exceptional": [{"i": 7, "segs": []}]}, "component"),
            ({"bundle": [], "ordinary": [], "exceptional": [{"i": 1, "segs": [5]}]}, "component"),
            (_component(bundle=[_line_bundle([5, 0, 0])]), "not in normal form"),
            (_component(bundle=[_line_bundle([1, 0])]), "expected 3 coefficients"),
            (_component(bundle=[_line_bundle([1, 0, 0], l=0.5)]), "JSON integers"),
            (_component(exceptional=[{"i": 1, "segs": [[0, 1, -2]]}]), "positive multiplicity"),
            (_component(exceptional=[{"i": 1, "segs": [[0, 1, 0]]}]), "positive multiplicity"),
            (_component(exceptional=[{"i": 1, "segs": [[0, 1.9, 1]]}]), "JSON integers"),
            (_component(exceptional=[{"i": 1, "segs": [[0, True, 1]]}]), "JSON integers"),
            (_component(ordinary=["2"]), "JSON integers"),
            (_component(bundle=[{"kind": "hn_leaf", "class": {"r": 1.5, "d": 0}}]), "JSON integers"),
        ],
        ids=["kind", "list", "key", "hn-leaf", "line-bundle", "point", "segment",
             "residue-range", "residue-count", "float-degree", "negative-multiplicity",
             "zero-multiplicity", "float-length", "bool-length", "string-part",
             "float-rank"],
    )
    def test_malformed_component_file_rejected(self, capsys, tmp_path, data, message):
        path = tmp_path / "z.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys,
            ["crystal", "apply", "--op", "phi", "--color", "S[1,0](1)", "--component",
             str(path), "--weights", "2,1,1"],
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# outputs that read the Euler form
# ---------------------------------------------------------------------------

class TestEulerFormPin:
    """The stdout of commands whose output depends on ``kt.euler_form``: the
    real-root search and ``expected_dim`` of ``components list``, ``class
    euler`` over a grid of classes, and ``phi`` for both colour families."""

    #: sha256 of each command's stdout, taken while the Euler form was still
    #: read off a Gram matrix built from section counts
    PIN_SHA256 = {
        "finite": "c847391996db85d466a0e2204785fb9825f02bc70ab292b0c40a5b80c8c8de5b",
        "tubular": "3d8496083617389b9fe2a694cb4c06b040ac0898fd5d52a5ed1c130560fddcde",
        "torsion": "a3c72137fdd7e6ed12252d38c996d221e73dd68ebb36bbe7044b8826325fb614",
        "euler": "822f3dd32261c426abaf4c05de81616ead58ff8d613ca2b304e556e595de2f56",
        "phi-grid": "70c0df556b98d02312affb89b02c72cfd5bcaf20769398de401b1d0061b0ff72",
        "phi-exc": "f3f70ceeaa7b720b9a7f5c41cd96d6f174dcd22a3178eba29f379baf22b06753",
    }

    EULER_CLASSES = ["O", "delta", "S[1,0]", "S[1,1]", "S[2,1]", "S[2,2]",
                     "S[3,0]", "S[3,6]", "2*O - delta + S[3,3] - S[2,1]"]

    def stdout(self, capsys, argvs):
        outs = []
        for argv in argvs:
            code, out, err = run(capsys, argv)
            assert code == 0, err
            outs.append(out)
        return "".join(outs)

    def test_pinned_stdout(self, capsys, tmp_path):
        w311 = WeightData((3, 1, 1))
        grid = [write_component(tmp_path, P1, z, f"grid{k}.json") for k, z in enumerate(
            [line_label(P1, 0, 0), line_label(P1, -1, 2),
             comp.component_label(P1, [], (2, 1), ())]
        )]
        exc = [write_component(tmp_path, w311, z, f"exc{k}.json") for k, z in enumerate(
            [comp.component_label(w311, [], (), [comp.multisegment(w311, 0, segs)])
             for segs in ([(0, 1)], [(1, 2), (2, 1)], [(0, 3), (2, 2)])]
        )]
        commands = {
            "finite": [["components", "list", "--weights", "2,2,2",
                        "--class", "2*O + delta", "--real-bundle-box", "2"]],
            "tubular": [["components", "list", "--weights", "2,2,2,2",
                         "--class", "2*O", "--slope-window", "-1", "1"]],
            "torsion": [["components", "list", "--weights", "3,1,1", "--class", "2*delta"]],
            "euler": [["class", "euler", "--weights", "2,3,7", a, b]
                      for a in self.EULER_CLASSES for b in self.EULER_CLASSES],
            "phi-grid": [["crystal", "apply", "--op", "phi", "--color", color,
                          "--component", path]
                         for path in grid for color in ("O", "O(-1)", "O(2)")],
            "phi-exc": [["crystal", "apply", "--op", "phi", "--weights", "3,1,1",
                         "--color", color, "--component", path]
                        for path in exc for color in ("S[1,0]", "S[1,1]", "S[1,2](1)")],
        }
        digests = {
            name: hashlib.sha256(self.stdout(capsys, argvs).encode()).hexdigest()
            for name, argvs in commands.items()
        }
        assert digests == self.PIN_SHA256


# ---------------------------------------------------------------------------
# crystal graph / verify
# ---------------------------------------------------------------------------

def _one_node_graph(source):
    """The P1 graph on the empty label with one ``O`` edge out of ``source``."""
    o = cat.label_to_json(cat.LineBundle(P1.normalize([0, 0, 0], l=0)))
    return {
        "weights": [1, 1, 1],
        "nodes": [comp.label_to_json(P1, comp.EMPTY)],
        "edges": [{"source": source, "target": 0, "color": o}],
        "colors": [o],
        "complete": True,
    }


_segment_color = {"kind": "exc_torsion", "i": 1, "j": 0, "l": 1}


def _torsion_graph(color, segs=None):
    """A (2,1,1) graph on the empty label with ``color``; given ``segs``, also
    a node with them at the weighted point and a ``color`` edge from it."""
    nodes = [_component()]
    edges = []
    if segs is not None:
        nodes.append(_component(exceptional=[{"i": 1, "segs": segs}]))
        edges.append({"source": 1, "target": 0, "color": color})
    return {"weights": [2, 1, 1], "nodes": nodes, "edges": edges, "colors": [color],
            "complete": True}


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

    def test_dot_text_pinned(self, capsys):
        # the (2,1,1) delta=2 torsion graph's DOT text, byte for byte
        code, out, _ = run(
            capsys,
            [
                "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
                "--colors", "S[1,0](1)", "S[1,1](1)", "--max-delta", "2", "--dot",
            ],
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c14d151b070ddc8e4abbba4438b4420a4bef9a3479ff4b963356ad47d84ede7f"
        )

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

    def test_negative_node_cap_refused(self, capsys):
        code, out, err = run(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty", "--colors", "O",
                "--max-rank", "2", "--max-nodes", "-3",
            ],
        )
        assert code == 2
        assert out == ""
        assert "max_nodes" in err

    def test_colors_without_budget_refused(self):
        # without a budget the search never repeats a node; a hang is a failure
        proc = _module_cli(
            "crystal", "graph", "--weights", "3,1,1", "--seeds", "empty",
            "--colors", "S[1,0](1)",
        )
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert out == b""
        assert b"budget" in err

    @pytest.mark.parametrize(
        "budget",
        [
            ["--colors", "O", "O(1)", "--max-rank", "1"],
            ["--colors", "O(1)", "O(-1)", "--max-deg", "1"],
        ],
        ids=["rank-bound", "degree-bound"],
    )
    def test_drifting_color_pair_refused(self, budget):
        # each colour alone changes the bounded field, but a difference of the
        # two does not, and the search walks along it forever
        proc = _module_cli("crystal", "graph", "--seeds", "empty", *budget)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert out == b""
        assert b"budget" in err

    def test_positive_color_pair_under_degree_bound(self, capsys):
        # two torsion colours of degree 1: every walk raises the degree
        d = run_json(
            capsys,
            [
                "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
                "--colors", "S[1,0](1)", "S[1,1](1)", "--max-deg", "2",
            ],
        )
        assert len(d["nodes"]) == 29
        assert d["complete"]

    def test_seed_outside_window(self, capsys, tmp_path):
        path = write_component(tmp_path, P1, line_label(P1, 5))
        code, _, err = run(
            capsys,
            ["crystal", "graph", "--seeds", path, "--colors", "O", "--max-deg", "1"],
        )
        assert code == 2
        assert "budget" in err

    def test_verify_rejects_invalid_hn_node(self, capsys, tmp_path):
        # an HN label with a nonpositive partition part and a periodic
        # multisegment is not a component label
        curve = WeightData((2, 2, 2, 2))
        z = comp.ComponentLabel(
            comp.HNTree((comp.HNLeaf(kt.structure_class(curve)),)), (), ()
        )
        node = comp.label_to_json(curve, z)
        node["ordinary"] = [0, -2]
        node["exceptional"] = [{"i": 1, "segs": [[0, 1, 1], [1, 1, 1]]}]
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {"weights": [2, 2, 2, 2], "nodes": [node], "edges": [], "colors": []}
            )
        )
        code, out, err = run(capsys, ["crystal", "verify", "--graph", str(path)])
        assert code == 2
        assert out == ""

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

    @pytest.mark.parametrize(
        "data,message",
        [
            ({}, "crystal graph"),
            ([], "crystal graph"),
            (_one_node_graph(5), "edge endpoint 5"),
            (_one_node_graph(-1), "edge endpoint -1"),
            (_torsion_graph(_line_bundle([5, 0, 0])), "not in normal form"),
            (_torsion_graph(_segment_color, [[0, 1.9, 1]]), "JSON integers"),
            (_torsion_graph(_segment_color, [[0, 1, -2]]), "positive multiplicity"),
            (_torsion_graph({**_segment_color, "l": 1.5}), "torsion label"),
            ({**_torsion_graph(_segment_color), "weights": [2.7, 1, 1]}, "JSON integers"),
            ({**_torsion_graph(_segment_color), "complete": "no"}, "'complete'"),
        ],
        ids=["empty-object", "list", "source-past-end", "negative-source",
             "color-residue-range", "node-float-length", "node-negative-multiplicity",
             "color-float-length", "float-weight", "string-complete"],
    )
    def test_verify_rejects_malformed_graph(self, capsys, tmp_path, data, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["crystal", "verify", "--graph", str(path)])
        assert code == 2
        assert out == ""
        assert message in err


def _torsion_color_texts(p):
    return [f"S[1,{j}]({l})" for j in range(p) for l in range(1, p)]


@st.composite
def graph_requests(draw):
    """Small ``crystal graph`` budgets: torsion at p in {2, 3}, or P1 bundles."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3]))
        weights = f"{p},1,1"
        palette = _torsion_color_texts(p)
        budget = {"max_delta": draw(st.integers(0, 2))}
    else:
        weights = "1,1,1"
        palette = ["O(-1)", "O", "O(1)"]
        budget = {
            "max_rank": draw(st.integers(0, 2)),
            "max_deg": draw(st.integers(0, 2)),
        }
    colors = draw(st.lists(st.sampled_from(palette), min_size=1, unique=True))
    return weights, colors, budget


class TestGraphJsonRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(graph_requests())
    def test_stdout_parses_back_and_verifies(self, request):
        weights, colors, budget = request
        argv = ["crystal", "graph", "--weights", weights, "--seeds", "empty",
                "--colors", *colors]
        for key, value in budget.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        text = buf.getvalue()

        curve = WeightData(tuple(int(w) for w in weights.split(",")))
        want = cr.build_graph(
            curve,
            [comp.EMPTY],
            [cli.parse_sheaf_label(curve, c) for c in colors],
            cr.Budget(**budget),
        )
        got = cr.graph_from_json(json.loads(text))
        assert got.curve.weights == want.curve.weights
        assert (got.nodes, got.edges, got.colors, got.complete) == (
            want.nodes, want.edges, want.colors, want.complete
        )

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_text(text)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["crystal", "verify", "--graph", str(path)]) == 0
        assert json.loads(buf.getvalue())["count"] == 0


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**61, max_value=2**256)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(), children, max_size=6),
    max_leaves=40,
)


#: (streamed, value) per top-level field: a streamed field is a list that
#: the payload holds as an iterator over its items
top_fields = st.dictionaries(
    st.text(),
    st.tuples(st.just(True), st.lists(json_values, max_size=6))
    | st.tuples(st.just(False), json_values),
    max_size=6,
)


class _CountingStringIO(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def emitted(payload):
    out = _CountingStringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue(), out.writes


class TestEmit:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_bytes_as_print_json_dumps(self, value):
        text, _ = emitted(value)
        assert text == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=10, deadline=None)
    @given(json_values, st.integers(cli._EMIT_BATCH, 2 * cli._EMIT_BATCH + 1))
    def test_long_output_is_written_in_batches(self, value, copies):
        payload = {"copies": [value] * copies}
        text, writes = emitted(payload)
        assert text == json.dumps(payload, indent=2) + "\n"
        chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
        assert writes == math.ceil((chunks + 1) / cli._EMIT_BATCH)

    @settings(max_examples=300, deadline=None)
    @given(top_fields)
    @example({"empty": (True, [])})
    @example({"a": (False, 1), "empty": (True, []), "b": (True, [[], {}])})
    def test_iterator_fields_print_as_lists(self, fields):
        payload = {k: iter(v) if streamed else v for k, (streamed, v) in fields.items()}
        listed = {k: v for k, (_, v) in fields.items()}
        text, _ = emitted(payload)
        assert text == json.dumps(listed, indent=2) + "\n"

    def test_iterator_items_are_read_as_written(self):
        seen = []

        class Recorder(io.StringIO):
            def write(self, text):
                seen.append(len(made))
                return super().write(text)

        made = []

        def items():
            for k in range(3 * cli._EMIT_BATCH):
                made.append(k)
                yield k

        with contextlib.redirect_stdout(Recorder()):
            cli._emit({"items": items()})
        # the first write comes before the last item is made
        assert seen[0] < len(made) == 3 * cli._EMIT_BATCH
        assert len(seen) > 1


# ---------------------------------------------------------------------------
# memo lifetime
# ---------------------------------------------------------------------------

#: the memos that ``crystal.clear_memos`` empties
OPERATOR_MEMOS = [
    cr._check_color, cr._ms_kernel_type, cr._ms_eps, cr._ms_fmax, cr._ms_es,
    cr._twist_kernel, comp._aperiodic_multisegments, orc._stratum_model,
]


class TestMemoLifetime:
    def test_each_command_starts_with_empty_memos(self, capsys):
        run_json(capsys, [
            "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
            "--colors", "S[1,0](1)", "S[1,1](1)", "--max-delta", "2",
        ])
        # the last command's memos stay readable after it
        assert cr._ms_eps.cache_info().currsize > 0
        assert comp._aperiodic_multisegments.cache_info().currsize > 0
        run_json(capsys, ["curve", "info"])
        assert [m.cache_info().currsize for m in OPERATOR_MEMOS] == [0] * 8

    def test_clear_memos_empties_every_memo(self, capsys):
        # every memo of the three modules, found as perfbench's memo_stats
        # finds them, so a memo that clear_memos leaves out fails here
        memos = {
            name: obj
            for module in (cr, comp, orc)
            for name, obj in vars(module).items()
            if callable(getattr(obj, "cache_info", None))
        }
        run_json(capsys, [
            "crystal", "graph", "--weights", "3,1,1", "--seeds", "empty",
            "--colors", "S[1,0](1)", "S[1,0](2)", "--max-delta", "1",
        ])
        line = cat.LineBundle(P1.normalize([0, 0, 0], l=0))
        cr.epsilon(P1, comp.component_label(P1, [line], (), ()), line)
        filled = {name for name, memo in memos.items() if memo.cache_info().currsize}
        assert filled == set(memos), "fill every memo before clearing it"
        cr.clear_memos()
        assert {name: memo.cache_info().currsize for name, memo in memos.items()} == (
            dict.fromkeys(memos, 0)
        )

    def test_direct_calls_keep_their_memos(self):
        cr.clear_memos()
        curve = WeightData((2, 1, 1))
        color = cat.exc_torsion(curve, 0, 0, 1)
        z = comp.component_label(
            curve, (), (), [comp.multisegment(curve, 0, [(0, 1)])]
        )
        cr.f(curve, z, color)
        before = cr._ms_eps.cache_info()
        cr.f(curve, z, color)
        after = cr._ms_eps.cache_info()
        assert after.currsize == before.currsize > 0
        assert after.hits > before.hits


# ---------------------------------------------------------------------------
# broken pipe
# ---------------------------------------------------------------------------

def _module_cli(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "loopcrystal", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


class TestBrokenPipe:
    def test_module_entry_point_runs(self):
        proc = _module_cli("curve", "info", "--weights", "2,3,7")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert json.loads(out)["genus"] == "3/2"

    def test_reader_gone_before_output(self):
        proc = _module_cli("curve", "info")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert err == b""

    def test_reader_closes_mid_graph(self):
        # 197 KB of output overfills the pipe, so a write fails after the close
        proc = _module_cli(
            "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
            "--colors", "S[1,0](1)", "S[1,1](1)", "--max-delta", "5",
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert head.startswith(b"{")
        assert err == b""

    def test_in_process_stream_is_left_alone(self, monkeypatch):
        class ClosedReader(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stream = ClosedReader()
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["curve", "info"]) == cli.EXIT_BROKEN_PIPE
        assert sys.stdout is stream


# ---------------------------------------------------------------------------
# parser fuzzing
# ---------------------------------------------------------------------------

FUZZ_CURVES = [WeightData(w) for w in ((1, 1, 1), (2, 1, 1), (2, 2, 2, 2), (2, 3, 7))]

_GRAMMAR_TOKENS = [
    "O", "O(", "delta", "S[", "T[", "E(", "c", "x", "*", "+", "-", ",", "(",
    ")", "[", "]", " ", "0", "1", "2", "3", "7", "-1", "99", "pt",
]

fuzz_text = (
    st.text()
    | st.text(alphabet="0123456789+-*,()[] cxOSTEdelta")
    | st.lists(
        st.sampled_from(_GRAMMAR_TOKENS) | st.integers().map(str), max_size=12
    ).map("".join)
)


def check_parse_and_exit(parse, args, argv):
    """``parse(*args)`` returns or raises ValueError; ``argv`` exits 0 or 2,
    and 2 whenever the parse failed."""
    try:
        parse(*args)
        parsed = True
    except ValueError:
        parsed = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse-level rejection
            code = exc.code
    assert code in (0, 2), err.getvalue()
    if not parsed:
        assert code == 2


def _weights_flag(curve):
    return "--weights=" + ",".join(map(str, curve.weights))


class TestParserFuzz:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "info", "--weights=--"],
            ["class", "slope", "--", "--"],
            ["crystal", "graph", "--seeds", "empty", "--colors", "O", "--max-rank=--"],
            ["oracle", "check", "--suite", "p1", "--trials=--"],
        ],
    )
    def test_double_dash_as_value_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "'--'" in err

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_CURVES), fuzz_text)
    def test_class_expressions(self, curve, text):
        check_parse_and_exit(
            cli.parse_kclass, (curve, text),
            ["class", "slope", _weights_flag(curve), "--", text],
        )

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_CURVES), fuzz_text)
    def test_lattice_elements(self, curve, text):
        check_parse_and_exit(
            cli.parse_lelement, (curve, text),
            ["sheaf", "rigid", _weights_flag(curve), "--", f"O({text})"],
        )

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_CURVES), fuzz_text)
    def test_sheaf_labels(self, curve, text):
        check_parse_and_exit(
            cli.parse_sheaf_label, (curve, text),
            ["sheaf", "rigid", _weights_flag(curve), "--", text],
        )

    @settings(max_examples=300, deadline=None)
    @given(fuzz_text)
    def test_weight_lists(self, text):
        check_parse_and_exit(
            cli._parse_weights_text, (text,), ["curve", "info", f"--weights={text}"]
        )


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

    #: sha256 of the stdout of ``loopcrystal oracle check --suite <suite>`` at
    #: the default seed and trials: changes to the oracle or the closed rules
    #: must leave both reports byte-identical
    SUITE_STDOUT_SHA256 = {
        "cyclic": "5e30819fa932abdd90aad0d0d3c67c2b72144931b87f96da96cfea31735dd62c",
        "p1": "11452cb540e9d05074ce414eb22918de29630a132bee5e696670c1481ce21efa",
    }

    @pytest.mark.parametrize("suite", sorted(SUITE_STDOUT_SHA256))
    def test_suite_stdout_byte_identical(self, capsys, monkeypatch, suite):
        monkeypatch.delenv("LOOPCRYSTAL_SEED", raising=False)
        code, out, err = run(capsys, ["oracle", "check", "--suite", suite])
        assert code == 0, err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SUITE_STDOUT_SHA256[suite]

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPCRYSTAL_SEED", "many")
        code, _, err = run(capsys, ["oracle", "check", "--suite", "p1"])
        assert code == 2
        assert "LOOPCRYSTAL_SEED" in err
