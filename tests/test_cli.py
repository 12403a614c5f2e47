"""Command-line behavior: grammars, reports, files, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cyclic_garbage

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

    @pytest.mark.parametrize(
        "weights, points, message",
        [
            ([2, 2, 2, 2], ["0", "inf", "1", "2/2"], "marked points '1' and '2/2' coincide"),
            ([2, 2, 2, 2, 2], ["1/2", "0.5"], "marked points '1/2' and '0.5' coincide"),
            ([2, 2, 2, 2], ["0.0"], "marked points '0' and '0.0' coincide"),
        ],
        ids=["fraction-of-one", "decimal-half", "decimal-zero"],
    )
    def test_coincident_points_rejected(self, capsys, tmp_path, weights, points, message):
        # distinct labels of one point: the curve would have fewer points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": weights, "lambda": points}))
        code, out, err = run(capsys, ["--config", str(cfg), "curve", "info"])
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("point", ["1e3", "1E-2", " 1/2", "1_000"])
    def test_parameter_outside_the_rational_grammar_rejected(self, capsys, tmp_path, point):
        # exponents, spaces and underscores are not rational spellings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", point]}))
        code, out, err = run(capsys, ["--config", str(cfg), "curve", "info"])
        assert code == 2
        assert out == ""
        assert f"{point!r} is not rational or 'inf'" in err

    @pytest.mark.parametrize("entry", ["0.1", "1e400"], ids=["tenth", "overflow"])
    def test_number_parameter_rejected(self, capsys, tmp_path, entry):
        # JSON numbers would be read through their float: 1/10, and inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", {entry}]}}')
        code, out, err = run(capsys, ["--config", str(cfg), "curve", "info"])
        assert code == 2
        assert out == ""
        assert "config lambda entries must be JSON strings" in err

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
            ([2, 1, 1], ["curve", "info"]),
        ],
        ids=["weights-int", "lambda-int", "weight-float", "weight-bool", "seed-list",
             "trials-float", "array"],
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

    @pytest.mark.parametrize(
        "curve_flags, text",
        [
            (["--config", "HALF"], "T[0.5](1)"),
            (["--config", "HALF"], "T[2/4](1)"),
            (["--config", "HALF"], "T[1.0](1)"),
            (["--weights", "2,1,1"], "T[-0](1)"),
        ],
        ids=["decimal-half", "fraction-half", "decimal-one", "negative-zero"],
    )
    def test_weighted_point_refused_in_every_spelling(self, capsys, tmp_path, curve_flags, text):
        # a point is its value: 0.5 and 2/4 are the marked point 1/2
        if curve_flags[1] == "HALF":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"weights": [2, 2, 2, 2], "lambda": ["0", "inf", "1", "1/2"]}))
            curve_flags = ["--config", str(cfg)]
        code, out, err = run(capsys, [*curve_flags, "sheaf", "rigid", text])
        assert code == 2
        assert out == ""
        assert "is weighted: use S[i,j](l) for its torsion" in err

    @pytest.mark.parametrize("text", ["T[1/0](1)", "T[1e9](1)"])
    def test_number_like_point_name_refused(self, capsys, text):
        # a name that starts like a number must spell an exact point
        code, out, err = run(capsys, ["sheaf", "rigid", "--weights", "2,3,7", text])
        assert code == 2
        assert out == ""
        assert "is not rational" in err

    @pytest.mark.parametrize("text", ["T[pt](1)", "T[q](1)"])
    def test_point_names_stay_names(self, capsys, text):
        d = run_json(capsys, ["sheaf", "rigid", "--weights", "2,3,7", text])
        assert d["rigid"] is False

    def test_ordinary_points_compare_by_value(self, capsys):
        d = run_json(capsys, ["sheaf", "hom", "--weights", "2,2,2", "T[1/2](1)", "T[0.5](1)"])
        assert (d["hom"], d["ext"]) == (1, 1)

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

    @pytest.mark.parametrize(
        "weights", [(2, 3, 7), (3, 1, 1), (1, 1, 1)], ids=lambda w: ",".join(map(str, w))
    )
    def test_printed_labels_parse_back(self, weights):
        # every line bundle, serial and ordinary torsion label in a box reads
        # back as itself from the text that format_label prints for it
        curve = WeightData(weights)
        labels = [
            cat.LineBundle(curve.normalize(list(res), l=l))
            for l in range(-3, 4)
            for res in itertools.product(*(range(p) for p in weights))
        ]
        labels += [
            cat.exc_torsion(curve, i, j, l)
            for i, p in enumerate(weights) if p > 1
            for j in range(p)
            for l in range(1, 2 * p + 1)
        ]
        for pt in ("q", "pt", "0", "inf", "1", "1/2", "-2/3", "0.5"):
            for d in (1, 2, 3):
                try:
                    cat.validate(curve, cat.OrdTorsion(pt, d))
                except ValueError:  # a weighted marked point
                    continue
                labels.append(cat.OrdTorsion(pt, d))
        for label in labels:
            text = cat.format_label(curve, label)
            assert cli.parse_sheaf_label(curve, text) == label, text

    @pytest.mark.parametrize(
        "argv",
        [
            ["sheaf", "rigid", "S[1,0,2]", "--weights", "3,1,1"],
            ["sheaf", "rigid", "T[q,2]"],
        ],
    )
    def test_comma_length_spelling_refused(self, capsys, argv):
        # the length is written as the printer writes it, S[i,j](l) and T[pt](d)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "cannot parse sheaf label" in err

    def test_real_bundle_vector(self):
        w222 = WeightData((2, 2, 2))
        rb = cat.enumerate_real_bundles(w222, 2)[0]
        text = "E(" + ",".join(str(v) for v in kt.to_vector(rb.a)) + ")"
        assert cli.parse_sheaf_label(w222, text) == rb

    @pytest.mark.parametrize(
        "text, message",
        [
            ("E(1,x)", "coordinate vector must be integers"),
        ],
    )
    def test_malformed_label_refused(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.parse_sheaf_label(W237, text)

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

    @pytest.mark.parametrize(
        "window, bad",
        [(["0", "1e10000000"], "'1e10000000'"), (["1e2", "inf"], "'1e2'"),
         (["-1", "2E1"], "'2E1'"), (["0", "1_0"], "'1_0'")],
        ids=["huge-exponent", "exponent-lo", "capital-exponent", "underscore"],
    )
    def test_slope_window_outside_the_rational_grammar_exits_2(self, capsys, window, bad):
        # Fraction('1e10000000') alone takes seconds: the grammar has no exponent
        start = time.process_time()
        code, out, err = run(
            capsys,
            ["components", "list", "--weights", "2,2,2,2", "--class", "2*delta",
             "--slope-window", *window],
        )
        assert code == 2
        assert out == ""
        assert f"{bad} is not rational" in err
        assert time.process_time() - start < 1.0

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
        # each operator has one name, the one its report prints
        path = write_component(tmp_path, P1, line_label(P1, 0))
        reports = {
            op: run_json(
                capsys,
                ["crystal", "apply", "--op", op, "--color", "O", "--component", path],
            )
            for op in ("eps", "phi", "f", "fmax", "e")
        }
        assert all(d["op"] == op for op, d in reports.items())
        assert reports["eps"]["value"] == 1

    @pytest.mark.parametrize("op", ["epsilon", "f_max"])
    def test_long_op_names_refused(self, capsys, tmp_path, op):
        path = write_component(tmp_path, P1, line_label(P1, 0))
        code, out, err = run(
            capsys,
            ["crystal", "apply", "--op", op, "--color", "O", "--component", path],
        )
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

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
            ["crystal", "apply", "--op", "fmax", "--color", "O(-2)", "--component", path],
        )
        assert code == 2
        assert out == ""
        assert "unsupported" in err

    @pytest.mark.parametrize("i", [0, 4])
    @pytest.mark.parametrize("op", ["eps", "f"])
    def test_point_index_outside_the_curve_exits_2(self, capsys, tmp_path, op, i):
        # JSON point indices count from 1: 0 used to be read as the last point
        path = tmp_path / "z.json"
        path.write_text(json.dumps(_component(exceptional=[{"i": i, "segs": [[0, 1, 1]]}])))
        code, out, err = run(
            capsys,
            ["crystal", "apply", "--op", op, "--color", "S[3,0]", "--component",
             str(path), "--weights", "1,1,2"],
        )
        assert (code, out) == (2, "")
        assert "weighted points" in err
        assert "Traceback" not in err

    def test_graph_node_outside_the_curve_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "weights": [1, 1, 2],
            "nodes": [_component(exceptional=[{"i": 0, "segs": [[0, 1, 1]]}])],
            "edges": [],
            "colors": [{"kind": "exc_torsion", "i": 3, "j": 0, "l": 1}],
        }))
        code, out, err = run(capsys, ["crystal", "verify", "--graph", str(path)])
        assert (code, out) == (2, "")
        assert "weighted points" in err

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
            *(
                (_component(bundle=[{"kind": "hn_leaf",
                                     "class": {"r": 1, "d": 0, "m": {key: 0}}}]),
                 f"invalid simple index {key}")
                for key in ("a,1", "1,1,1", "x")
            ),
        ],
        ids=["kind", "list", "key", "hn-leaf", "line-bundle", "point", "segment",
             "residue-range", "residue-count", "float-degree", "negative-multiplicity",
             "zero-multiplicity", "float-length", "bool-length", "string-part",
             "float-rank", "simple-letter", "simple-triple", "simple-no-comma"],
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


def _listed_twice(graph, key):
    """``graph`` with the first item of its ``key`` list appended again."""
    return {**graph, key: graph[key] + graph[key][:1]}


class TestCrystalGraph:
    def test_rank_ladder(self, capsys):
        d = run_json(
            capsys,
            ["crystal", "graph", "--seeds", "empty", "--colors", "O", "--max-rank", "3"],
        )
        assert len(d["nodes"]) == 4
        assert len(d["edges"]) == 3
        assert d["complete"] is True

    def test_repeated_colour_counts_once(self, capsys):
        argv = [
            "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
            "--max-delta", "1", "--colors", "S[1,0](1)",
        ]
        once = run(capsys, argv)
        assert once[0] == 0
        assert run(capsys, [*argv, "S[1,0](1)"]) == once

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

    def test_p4_torsion_graph_stdout_pinned(self, capsys):
        # (4,1,1) delta=2 with the twelve colours S[1,j](l), l <= 3: 863
        # nodes, checked with --verify, byte for byte
        colors = [f"S[1,{j}]({l})" for j in range(4) for l in range(1, 4)]
        code, out, err = run(
            capsys,
            [
                "crystal", "graph", "--weights", "4,1,1", "--seeds", "empty",
                "--colors", *colors, "--max-delta", "2", "--verify",
            ],
        )
        assert code == 0, err
        assert len(json.loads(out)["nodes"]) == 863
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e5da6139443535ec3dd9e09b1c2cfa87b466121459f49b6e5a7c9c2d9f7b4dc7"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--colors", "O", "O(1)", "O(-1)", "--max-rank", "3", "--max-deg", "3",
                 "--max-nodes", "10"],
                "e4061edac1c1e49be4862682201d1eaba18855448d27d3d0e63aacf6d41f384f",
            ),
            (
                ["--weights", "3,1,1", "--colors", "S[1,0](1)", "S[1,1](2)",
                 "--max-delta", "3", "--max-nodes", "40"],
                "18124933e18278f05f5e803ea3b56ce66482c7be09de777ce4586e38cf0fc0bc",
            ),
        ],
        ids=["line-cut-at-10", "torsion-capped-at-40"],
    )
    def test_capped_graph_stdout_pinned(self, capsys, argv, digest):
        # the node cap stops the line search part way (12 nodes, incomplete);
        # the torsion search ends under its cap (16 nodes): byte for byte
        code, out, err = run(capsys, ["crystal", "graph", "--seeds", "empty", *argv])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_clean_graph(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "crystal", "graph", "--seeds", "empty", "--colors", "O", "O(-1)",
                "--max-rank", "2", "--max-deg", "2", "--verify",
            ],
        )
        assert code == 0

    def test_verify_reports_violations(self, capsys, monkeypatch):
        # with f the crystal zero everywhere the search keeps only the e
        # edges, and the check finds that f does not follow them
        monkeypatch.setattr(cr, "f", lambda curve, z, color: None)
        code, out, _ = run(
            capsys,
            ["crystal", "graph", "--seeds", "empty", "--colors", "O", "--max-rank", "1", "--verify"],
        )
        assert code == 3
        assert json.loads(out) == {
            "violations": ["f does not follow the edge (O(0c)) -> (empty) [O(0c)]"],
            "count": 1,
        }

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

    @pytest.mark.parametrize("with_edge", [False, True], ids=["node", "edge"])
    def test_verify_reports_operator_refusals(self, capsys, tmp_path, with_edge):
        # epsilon is 3 at the first node and f refuses it; epsilon is 2 at the
        # second and f refuses it too: violations, not skips or exit 2
        color = cat.LineBundle(P1.normalize([0, 0, 0], l=-1))
        nodes, edges = [line_label(P1, -1, 0, 0, 3)], []
        if with_edge:
            nodes.append(line_label(P1, 0, 0, 3))
            edges.append({"source": 0, "target": 1, "color": cat.label_to_json(color)})
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "weights": [1, 1, 1],
            "nodes": [comp.label_to_json(P1, z) for z in nodes],
            "edges": edges,
            "colors": [cat.label_to_json(color)],
        }))
        code, out, _ = run(capsys, ["crystal", "verify", "--graph", str(path)])
        assert code == 3
        refusal = ": unsupported component family"
        want = ["operators refuse (O(-1c) + O(0c) + O(0c) + O(3c)) [O(-1c)]" + refusal]
        if with_edge:
            want = [
                "operators refuse (O(-1c) + O(0c) + O(0c) + O(3c)) -> "
                "(O(0c) + O(0c) + O(3c)) [O(-1c)]" + refusal,
                "operators refuse (O(0c) + O(0c) + O(3c)) [O(-1c)]" + refusal,
            ]
        assert json.loads(out)["violations"] == want

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
            (_torsion_graph({"kind": "ord_torsion", "pt": "5", "d": 2}),
             "non-rigid operator index"),
            ({**_torsion_graph(_segment_color, [[0, 1, 1]]),
              "colors": [{**_segment_color, "j": 1}]},
             "edge colour is not in the colour list"),
            ({**_torsion_graph(_segment_color), "colors": [_segment_color] * 2},
             "a colour is listed twice"),
            (_listed_twice(_torsion_graph(_segment_color, [[0, 1, 1]]), "nodes"),
             "a node is listed twice"),
            (_listed_twice(_torsion_graph(_segment_color, [[0, 1, 1]]), "edges"),
             "an edge is listed twice"),
        ],
        ids=["empty-object", "list", "source-past-end", "negative-source",
             "color-residue-range", "node-float-length", "node-negative-multiplicity",
             "color-float-length", "float-weight", "string-complete",
             "non-rigid-color", "unlisted-edge-color", "repeated-color",
             "repeated-node", "repeated-edge"],
    )
    def test_verify_rejects_malformed_graph(self, capsys, tmp_path, data, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["crystal", "verify", "--graph", str(path)])
        assert code == 2
        assert out == ""
        assert "is malformed" in err
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

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**61, max_value=2**256)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(), children, max_size=6),
    max_leaves=40,
)

#: JSON values in which a tuple, at any depth, stands for a list that the
#: payload holds as an iterator over its items (``json.dumps`` prints a tuple
#: as a list)
streamable_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=6).map(tuple)
    | st.dictionaries(st.text(), children, max_size=6),
    max_leaves=40,
)


def streamed(value):
    """``value`` with every tuple read as an iterator over its items."""
    if isinstance(value, tuple):
        return iter([streamed(item) for item in value])
    if isinstance(value, list):
        return [streamed(item) for item in value]
    if isinstance(value, dict):
        return {key: streamed(item) for key, item in value.items()}
    return value


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
        chunks = sum(1 for _ in cli._json_chunks(payload))
        assert writes == math.ceil((chunks + 1) / cli._EMIT_BATCH)

    @settings(max_examples=300, deadline=None)
    @given(streamable_values)
    @example({"empty": ()})
    @example({"a": 1, "empty": (), "b": ([], {})})
    @example({"a": [(1,)]})
    @example(((), ({"a": ((), (2, "x"))},)))
    def test_iterator_fields_print_as_lists(self, value):
        text, _ = emitted(streamed(value))
        assert text == json.dumps(value, indent=2) + "\n"

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

#: the memos that ``crystal.clear_memos`` empties: every ``cache_info``
#: callable of the three modules, found as in
#: ``test_clear_memos_empties_every_memo``
OPERATOR_MEMOS = [
    obj
    for module in (cr, comp, orc)
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_info", None))
]


class TestMemoLifetime:
    def test_each_command_starts_with_empty_memos(self, capsys):
        run_json(capsys, [
            "crystal", "graph", "--weights", "3,1,1", "--seeds", "empty",
            "--colors", "S[1,0](2)", "S[1,1](2)", "--max-delta", "2",
        ])
        # the last command's memos stay readable after it
        assert cr._exc_fmax.cache_info().currsize > 0
        assert comp._aperiodic_multisegments.cache_info().currsize > 0
        run_json(capsys, ["curve", "info"])
        sizes = [m.cache_info().currsize for m in OPERATOR_MEMOS]
        assert sizes == [0] * len(OPERATOR_MEMOS)

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
        curve = WeightData((3, 1, 1))
        color = cat.exc_torsion(curve, 0, 0, 2)
        z = comp.component_label(
            curve, (), (), [comp.multisegment(curve, 0, [(0, 2)])]
        )
        cr.f(curve, z, color)
        before = cr._exc_fmax.cache_info()
        cr.f(curve, z, color)
        after = cr._exc_fmax.cache_info()
        assert after.currsize == before.currsize > 0
        assert after.hits > before.hits


class TestParserLifetime:
    GRAPH = [
        "crystal", "graph", "--weights", "2,1,1", "--seeds", "empty",
        "--colors", "S[1,0]", "S[1,1]", "--max-delta", "2", "--verify",
    ]

    def test_second_call_leaves_no_reference_cycles(self, capsys):
        code, first, err = run(capsys, self.GRAPH)
        assert code == 0, err
        left = cyclic_garbage(lambda: cli.main(self.GRAPH))
        assert capsys.readouterr().out == first
        # a parser rebuilt per call left 626 objects in reference cycles
        assert left == 0, f"a second cli.main call left {left} objects in reference cycles"


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
    ")", "[", "]", " ", "0", "1", "2", "3", "7", "-1", "99", "pt", "/", ".", "e",
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

    def test_environment_picks_no_seed(self, capsys, monkeypatch):
        # the seed comes from --seed, then the config, then 0
        monkeypatch.setenv("LOOPCRYSTAL_SEED", "41")
        d = run_json(capsys, ["oracle", "check", "--suite", "p1"])
        assert d["seed"] == 0

    def test_flag_beats_config_seed(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 41}))
        argv = ["--config", str(cfg), "oracle", "check", "--suite", "p1", "--trials", "2"]
        assert run_json(capsys, argv)["seed"] == 41
        assert run_json(capsys, [*argv, "--seed", "7"])["seed"] == 7

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
    def test_suite_stdout_byte_identical(self, capsys, suite):
        code, out, err = run(capsys, ["oracle", "check", "--suite", suite])
        assert code == 0, err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SUITE_STDOUT_SHA256[suite]
