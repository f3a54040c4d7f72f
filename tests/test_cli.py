"""Command line surface: outputs, exit codes, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import areapoly
from areapoly.cli import main
from areapoly.corpus import PRINTED_RELATION
from areapoly.dissection import save_dissection
from areapoly.corpus import corpus_dissection
from areapoly.triangulation import (
    diagonal_family,
    save_triangulation,
    triangulation_to_json,
)

TRIANGULATION = triangulation_to_json(diagonal_family(0))
CORNERS = {"p": [0, 0], "q": [1, 0], "r": [1, 1], "s": [0, 1]}
STRING_CORNERS = {"p": "00", "q": "10", "r": "11", "s": "01"}


@pytest.fixture()
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    save_triangulation(diagonal_family(1), path)
    return str(path)


@pytest.fixture()
def poofed(tmp_path):
    tri = tmp_path / "poofed_tri.json"
    drawing = tmp_path / "poofed_drawing.json"
    code = main(
        [
            "poof",
            "--corpus",
            "tvertex",
            "--out-triangulation",
            str(tri),
            "--out-drawing",
            str(drawing),
        ]
    )
    assert code == 0
    return str(tri), str(drawing)


class TestRelationCommands:
    def test_zt_diagonal(self, capsys):
        assert main(["zt", "--diagonal", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            "U^2 + U*A1 + 2*U*B1 + U*B2 + A1*B1 + A2*B1 + B1^2 + B1*B2"
        )

    def test_zt_from_file_json(self, tri_file, capsys):
        assert main(["zt", tri_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 2
        assert payload["variables"][0] == "U"

    def test_pt_corpus(self, capsys):
        assert main(["pt", "--corpus", "center-fan"]) == 0
        assert capsys.readouterr().out.strip() == "B1 - B2 + B3 - B4"

    def test_fan_matches_documented_string(self, capsys):
        assert main(["zt", "--corpus", "center-fan"]) == 0
        assert capsys.readouterr().out.strip() == PRINTED_RELATION

    def test_source_required(self, capsys):
        assert main(["zt"]) == 2

    def test_sources_are_exclusive(self, tri_file):
        assert main(["zt", tri_file, "--diagonal", "1"]) == 2

    def test_guard_exit_code(self):
        assert main(["zt", "--diagonal", "2", "--guard-basis", "3"]) == 3

    def test_guard_trips_before_a_large_input_is_built(self, capsys):
        # 2003 generators, past the default 500: refused before the gauge
        # ring, whose size grows quadratically with the staircase.
        assert main(["zt", "--diagonal", "1000"]) == 3
        assert "basis size exceeded 500 elements" in capsys.readouterr().err

    def test_oracle_diagonal(self, capsys):
        assert main(["oracle-diagonal", "1"]) == 0
        assert "agreement: yes" in capsys.readouterr().out


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["check", "--all", "--diagonal", "1"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_synthetic_non_monic_relation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2*U + B1\n")
        assert main(["check", "--diagonal", "0", "--zt-file", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL frame-monic" in out

    def test_failed_check_survives_optimized_mode(self, tmp_path):
        # python -O strips assert statements; a check must still fail.
        bad = tmp_path / "bad.txt"
        bad.write_text("2*U + A1 + B1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(areapoly.__file__).parents[1]))
        command = [sys.executable, "-O", "-m", "areapoly.cli", "check", "--diagonal", "0"]
        done = subprocess.run(
            [*command, "--zt-file", str(bad)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 1
        assert "FAIL frame-monic" in done.stdout

    @pytest.mark.parametrize("text", ["A1*B1 - U*B1", "0"])
    def test_zero_restriction_fails_the_profile_check(self, tmp_path, capsys, text):
        relation = tmp_path / "zt.txt"
        relation.write_text(text + "\n")
        assert main(["check", "--corpus", "diagonal-0", "--zt-file", str(relation)]) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL restriction-profile: restriction to A1 is 0, "
            "not of the shape U^a * (U + A1)^b\n"
        ) in out

    def test_zero_parallelogram_relation_fails_the_divisibility_check(self, tmp_path, capsys):
        relation = tmp_path / "pt.txt"
        relation.write_text("0\n")
        assert main(["check", "--corpus", "diagonal-0", "--pt-file", str(relation)]) == 1
        out = capsys.readouterr().out
        assert "FAIL doubling-divisibility: parallelogram relation is zero" in out

    @pytest.mark.parametrize(
        "option, divisibility",
        [
            ("--zt-file", "trapezoid relation is zero; no doubling quotient exists"),
            ("--pt-file", "parallelogram relation is zero; no doubling quotient exists"),
        ],
    )
    def test_zero_relation_fails_divisibility_and_vanishing(
        self, tmp_path, capsys, option, divisibility
    ):
        relation = tmp_path / "zero.txt"
        relation.write_text("0\n")
        assert main(["check", "--corpus", "diagonal-0", option, str(relation)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL doubling-divisibility: {divisibility}\n" in out
        assert "FAIL vanishing: relation is zero, so vanishing proves nothing\n" in out
        assert out.endswith("overall: FAIL\n")

    def test_relation_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("U ** 2")
        assert main(["check", "--diagonal", "0", "--zt-file", str(bad)]) == 2

    def test_wrong_relation_report_is_pinned(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text(FROZEN_DIAGONAL_1 + " + U*A1\n")
        command = ["check", "--diagonal", "1", "--count", "7", "--seed", "3", "--zt-file", str(wrong)]
        assert main(command) == 1
        assert capsys.readouterr().out == WRONG_CHECK_TEXT
        assert main([*command, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == WRONG_CHECK_PAYLOAD


FROZEN_DIAGONAL_1 = "U^2 + U*A1 + 2*U*B1 + U*B2 + A1*B1 + A2*B1 + B1^2 + B1*B2"
WRONG_CHECK_NOTES = {
    "frame-monic": "trapezoid relation is monic in the frame variable",
    "variable-monic": "parallelogram relation is monic in every variable",
    "restriction-profile": "restriction to A1 is U^2 + 2*U*A1, not of the shape U^a * (U + A1)^b",
    "doubling-divisibility": "doubling substitution is not divisible by the parallelogram relation",
    "independence": "no frame-free relation among the areas",
    "vanishing": "relation evaluates to -1536577/2000 on drawing 0 (seed 3)",
}
WRONG_CHECK_OK = {
    "frame-monic": True,
    "variable-monic": True,
    "restriction-profile": False,
    "doubling-divisibility": False,
    "independence": True,
    "vanishing": False,
}
WRONG_CHECK_TEXT = """\
ok   frame-monic: trapezoid relation is monic in the frame variable
ok   variable-monic: parallelogram relation is monic in every variable
FAIL restriction-profile: restriction to A1 is U^2 + 2*U*A1, not of the shape U^a * (U + A1)^b
FAIL doubling-divisibility: doubling substitution is not divisible by the parallelogram relation
ok   independence: no frame-free relation among the areas
FAIL vanishing: relation evaluates to -1536577/2000 on drawing 0 (seed 3)
overall: FAIL
"""
WRONG_CHECK_PAYLOAD = {
    "command": "check",
    "ok": False,
    "checks": WRONG_CHECK_OK,
    "notes": WRONG_CHECK_NOTES,
    "trapezoid": "U^2 + 2*U*A1 + 2*U*B1 + U*B2 + A1*B1 + A2*B1 + B1^2 + B1*B2",
    "parallelogram": "A1 - A2 - B1 + B2",
}


class TestFileCommands:
    def test_validate_triangulation(self, tri_file):
        assert main(["validate", tri_file]) == 0

    def test_validate_flags_invalid_dissection(self, tmp_path, capsys):
        dissection = corpus_dissection("diag2")
        broken = type(dissection)(
            points=dissection.points,
            triangles=(dissection.triangles[0],),
        )
        path = tmp_path / "broken.json"
        save_dissection(broken, path)
        assert main(["validate", str(path)]) == 1

    def test_validate_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self):
        assert main(["areas", "/does/not/exist.json"]) == 2

    def test_poof_payload(self, capsys):
        assert main(["poof", "--corpus", "tvertex", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fillers"] == ["P1"]

    def test_areas(self, poofed, capsys):
        _, drawing = poofed
        assert main(["areas", drawing, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["areas"]["P1"] == "0"
        assert payload["frame"] == "-1"
        assert payload["total"] == "2"

    def test_verify_vanish(self, poofed, tmp_path, capsys):
        _, drawing = poofed
        relation = tmp_path / "relation.txt"
        relation.write_text("U + B1 + B2 + P1\n")
        assert main(["verify-vanish", drawing, str(relation)]) == 0
        relation.write_text("U + B1\n")
        assert main(["verify-vanish", drawing, str(relation)]) == 1

    def test_integral_equation(self, poofed, capsys):
        _, drawing = poofed
        assert main(["integral-equation", drawing]) == 0
        out = capsys.readouterr().out
        assert "U + 1 = 0" in out
        assert "is a root: yes" in out


def write_json(tmp_path, data) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def renamed_triangle(name: str) -> dict:
    data = triangulation_to_json(diagonal_family(0))
    data["triangles"][1]["name"] = name
    return data


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, data",
        [
            ("validate", {"vertices": ["p", "q", "r", "s"], "triangles": [5]}),
            ("validate", {"points": {"p": 5}, "triangles": []}),
            ("validate", {"vertices": ["p", "q", "r", "s"], "triangles": [{"name": "B1"}]}),
            ("validate", [1, 2]),
            ("zt", {"vertices": ["p", "q", "r", "s"], "triangles": [5]}),
            ("zt", {"vertices": ["p", "q", "r", "s"], "triangles": [{"name": "B1"}]}),
            ("color", {"points": {"p": 5}, "triangles": []}),
            ("color", {"points": [[0, 0]], "triangles": []}),
            ("color", {"points": CORNERS, "triangles": [{"vertices": 3}]}),
            ("areas", {"triangulation": TRIANGULATION, "points": {"p": 5}}),
            ("areas", {"triangulation": {"vertices": ["p"], "triangles": [5]}, "points": CORNERS}),
            ("areas", {"triangulation": TRIANGULATION, "points": {"p": ["1/0", 0]}}),
            ("validate", {"vertices": "pqrs", "triangles": ["pqs", "qrs"]}),
            ("validate", {"vertices": ["p", "q", "r", "s"], "triangles": ["pqs", "qrs"]}),
            ("zt", {"vertices": "pqrs", "triangles": ["pqs", "qrs"]}),
            ("zt", {"vertices": ["p", "q", "r", "s"], "triangles": [{"vertices": "pqs"}]}),
            ("areas", {"triangulation": TRIANGULATION, "points": STRING_CORNERS}),
            ("color", {"points": STRING_CORNERS, "triangles": []}),
        ],
    )
    def test_malformed_json_exits_2(self, tmp_path, command, data):
        assert main([command, write_json(tmp_path, data)]) == 2

    def test_deeply_nested_json_exits_2(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        assert main(["validate", str(path)]) == 2

    def test_invalid_triangulation_exits_1(self, tmp_path, capsys):
        data = triangulation_to_json(diagonal_family(1))
        data["triangles"].pop()
        assert main(["zt", write_json(tmp_path, data)]) == 1
        assert "invalid triangulation" in capsys.readouterr().err

    def test_invalid_dissection_exits_1(self, tmp_path, capsys):
        dissection = corpus_dissection("diag2")
        broken = type(dissection)(points=dissection.points, triangles=dissection.triangles[:1])
        path = tmp_path / "broken.json"
        save_dissection(broken, path)
        assert main(["rainbow", str(path)]) == 1
        assert "invalid dissection" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zt", "pt", "check"])
    @pytest.mark.parametrize("name", ["lam", "t"])
    def test_gauge_name_collision_exits_2(self, tmp_path, capsys, command, name):
        code = main([command, write_json(tmp_path, renamed_triangle(name))])
        if command == "pt" and name == "t":
            assert code == 0
        else:
            assert code == 2
            assert "rename the triangles" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zt", "pt", "check"])
    @pytest.mark.parametrize("name", [5, "A*B", "A 1"])
    def test_name_that_is_not_a_variable_exits_2(self, tmp_path, capsys, command, name):
        assert main([command, write_json(tmp_path, renamed_triangle(name))]) == 2
        assert "are not variable names" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "zt", "color"])
    @pytest.mark.parametrize(
        "triangles, message",
        [
            ("x", "'triangles' must be a JSON list, got str"),
            ({"B1": ["p", "q", "s"]}, "'triangles' must be a JSON list, got dict"),
            ([{"name": "B7"}], "triangle B7 has no 'vertices' key"),
        ],
    )
    def test_triangles_of_the_wrong_shape_exit_2(
        self, tmp_path, capsys, command, triangles, message
    ):
        source = {"points": CORNERS} if command == "color" else {"vertices": list("pqrs")}
        assert main([command, write_json(tmp_path, {**source, "triangles": triangles})]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [("zt", 2), ("check", 2), ("pt", 0)])
    def test_frame_name_collision(self, tmp_path, command, code):
        assert main([command, write_json(tmp_path, renamed_triangle("U"))]) == code

    def test_frame_name_collision_in_a_drawing(self, tmp_path):
        drawing = write_json(tmp_path, {"triangulation": renamed_triangle("U"), "points": CORNERS})
        relation = tmp_path / "relation.txt"
        relation.write_text("U + B1\n")
        assert main(["verify-vanish", drawing, str(relation)]) == 2

    @pytest.mark.parametrize("command", ["areas", "verify-vanish", "integral-equation"])
    def test_drawing_with_a_bad_frame_exits_1(self, tmp_path, capsys, command):
        # The side from s to r is not parallel to the side from p to q.
        points = {**CORNERS, "r": [2, 3]}
        drawing = write_json(tmp_path, {"triangulation": TRIANGULATION, "points": points})
        relation = tmp_path / "relation.txt"
        relation.write_text("U + B1\n")
        extra = [str(relation)] if command == "verify-vanish" else []
        assert main([command, drawing, *extra]) == 1
        captured = capsys.readouterr()
        assert "not parallel" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "areas", "verify-vanish", "integral-equation"])
    def test_drawing_missing_a_corner_exits_1(self, tmp_path, capsys, command):
        # The triangulation itself lacks r, so only the frame check needs it.
        triangulation = {"vertices": ["p", "q", "s"], "triangles": [["p", "q", "s"]]}
        points = {"p": ["0", "0"], "q": ["1", "0"], "s": ["0", "1"]}
        drawing = write_json(tmp_path, {"triangulation": triangulation, "points": points})
        relation = tmp_path / "relation.txt"
        relation.write_text("U\n")
        extra = [str(relation)] if command == "verify-vanish" else []
        assert main([command, drawing, *extra]) == 1
        captured = capsys.readouterr()
        assert "vertex 'r' has no coordinates" in captured.out + captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["validate", "areas", "verify-vanish", "integral-equation"])
    def test_drawing_with_an_invalid_triangulation_exits_1(self, tmp_path, capsys, command):
        # One triangle over the four corners leaves r out of the triangulation.
        triangulation = {"vertices": ["p", "q", "r", "s"], "triangles": [["p", "q", "s"]]}
        drawing = write_json(tmp_path, {"triangulation": triangulation, "points": CORNERS})
        relation = tmp_path / "relation.txt"
        relation.write_text("U + B1\n")
        extra = [str(relation)] if command == "verify-vanish" else []
        assert main([command, drawing, *extra]) == 1
        captured = capsys.readouterr()
        # validate reports problems in its own output; the others on stderr.
        report = captured.out if command == "validate" else captured.err
        assert "vertex 'r' belongs to no triangle" in report
        if command != "validate":
            assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["poof", "--corpus", "tvertex", "--out-triangulation"],
            ["random-drawing", "--diagonal", "1", "--out"],
        ],
    )
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.json"
        assert main([*argv, str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_oracle_beyond_its_monomial_cap_exits_3(self, capsys):
        # diagonal-3 has 165 candidate monomials at degree 3.
        assert main(["oracle-diagonal", "3"]) == 3
        assert "165 monomials at degree 3" in capsys.readouterr().err

    def test_oracle_cap_is_checked_before_the_monomials_are_listed(self, capsys):
        # diagonal-1000 has 2003 candidate monomials at degree 1.
        assert main(["oracle-diagonal", "1000"]) == 3
        assert "2003 monomials at degree 1" in capsys.readouterr().err

    def test_color_refuses_a_dissection_missing_a_triangle(self, tmp_path, capsys):
        dissection = corpus_dissection("diag2")
        broken = type(dissection)(points=dissection.points, triangles=dissection.triangles[:1])
        path = tmp_path / "broken.json"
        save_dissection(broken, path)
        assert main(["color", str(path)]) == 1
        assert "invalid dissection:" in capsys.readouterr().err

    def test_color_refuses_collinear_corners(self, tmp_path, capsys):
        data = {
            "points": {"p": [0, 0], "q": [1, 0], "r": [3, 0], "s": [2, 0]},
            "triangles": [
                {"name": "B1", "vertices": ["p", "q", "r"]},
                {"name": "B2", "vertices": ["p", "r", "s"]},
            ],
        }
        assert main(["color", write_json(tmp_path, data)]) == 1
        assert "invalid dissection:" in capsys.readouterr().err

    def test_random_drawing_refuses_a_missing_corner(self, tmp_path, capsys):
        data = triangulation_to_json(diagonal_family(0))
        data["vertices"].remove("p")
        assert main(["random-drawing", write_json(tmp_path, data)]) == 1
        assert "invalid triangulation" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["U^7", "U + 1"])
    def test_relation_outside_the_bounds_exits_2(self, tmp_path, capsys, text):
        # diagonal-1 has four triangles, so a relation has degree at most 5.
        relation = tmp_path / "relation.txt"
        relation.write_text(text + "\n")
        assert main(["check", "--diagonal", "1", "--zt-file", str(relation)]) == 2
        assert "relation in" in capsys.readouterr().err

    def test_relation_past_the_doubling_bound_exits_3(self, tmp_path, monkeypatch, capsys):
        # diagonal-6 has 14 triangles, so U^15 is of the largest degree a
        # relation file may have, and (-(sum of the areas))^15 would have
        # 37 442 160 terms.
        def refused(*args, **kwargs):
            raise AssertionError("the doubling bound trips first")

        monkeypatch.setattr("areapoly.variety.doubling_substitution", refused)
        monkeypatch.setattr("areapoly.cli.areas_algebraically_independent", refused)
        zt, pt = tmp_path / "zt.txt", tmp_path / "pt.txt"
        zt.write_text("U^15\n")
        pt.write_text("A1\n")
        started = time.perf_counter()
        assert main(["check", "--diagonal", "6", "--zt-file", str(zt), "--pt-file", str(pt)]) == 3
        assert time.perf_counter() - started < 1
        assert "may reach 37442160 terms" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_check_needs_a_positive_count(self, monkeypatch, count):
        def no_elimination(*args, **kwargs):
            raise AssertionError("the count is checked before any elimination")

        monkeypatch.setattr("areapoly.cli.trapezoid_polynomial", no_elimination)
        assert main(["check", "--diagonal", "1", "--count", count]) == 2

    @pytest.mark.parametrize("option, value", [("--guard-bits", "-5"), ("--guard-basis", "0")])
    def test_guard_limits_below_one_exit_2(self, capsys, option, value):
        assert main(["zt", "--diagonal", "1", option, value]) == 2
        assert "invalid guard limits" in capsys.readouterr().err

    def test_unbounded_relation_is_refused_before_evaluation(self, poofed, tmp_path):
        _, drawing = poofed
        relation = tmp_path / "relation.txt"
        relation.write_text("U^9 + B1^9\n")
        assert main(["verify-vanish", drawing, str(relation)]) == 2

    def test_relation_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        relation = tmp_path / "bad.txt"
        relation.write_bytes(b"\xffU + B1\n")
        assert main(["check", "--diagonal", "1", "--zt-file", str(relation)]) == 2
        assert f"cannot read {relation}: " in capsys.readouterr().err

    def test_drawing_relation_that_is_not_utf8_exits_2(self, poofed, tmp_path, capsys):
        _, drawing = poofed
        relation = tmp_path / "bad.txt"
        relation.write_bytes(b"\xffU + B1\n")
        assert main(["verify-vanish", drawing, str(relation)]) == 2
        assert f"cannot read {relation}: " in capsys.readouterr().err


class TestColoringCommands:
    def test_color(self, capsys):
        assert main(["color", "--corpus", "fan4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["colors"] == {"p": "C", "q": "A", "r": "A", "s": "B", "c": "A"}

    def test_rainbow(self, capsys):
        assert main(["rainbow", "--corpus", "diag2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rainbow"] == ["B2"]
        assert payload["boundary"] == "CAAB"

    def test_equidissect_report(self, capsys):
        assert main(["equidissect-report", "--corpus", "eighths"]) == 0
        assert "count admissible: yes" in capsys.readouterr().out


class TestRandomDrawing:
    def test_seed_reproducible(self, capsys):
        assert main(["random-drawing", "--diagonal", "1", "--seed", "9", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["random-drawing", "--diagonal", "1", "--seed", "9", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_output(self, capsys):
        assert main(["random-drawing", "--diagonal", "1", "--seed", "1", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["random-drawing", "--diagonal", "1", "--seed", "2", "--json"]) == 0
        assert capsys.readouterr().out != first


class TestDispatch:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_selftest_json(self, capsys):
        assert main(["selftest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["results"]) == 14
        assert all(r["passed"] for r in payload["results"])
