import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

import resipoly.verify
from resipoly import fixtures
from resipoly.cli import main
from resipoly.residues import IdentityCheck, LevelGraph, ResidueFlag

from conftest import PRISM, fig1_degenerate_argv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(tmp_path, name, mutate=None):
    doc = fixtures.document(name)
    if mutate:
        mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def edgeless(n):
    """A graph document of `n` vertices and no edges."""
    return {"vertices": [f"x{i}" for i in range(n)]}


class TestInfo:
    def test_fig1(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        code, out, _ = run_cli(capsys, "info", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["genus"] == 3
        assert report["counts"]["summits"] == 2
        assert report["counts"]["summits_irreducible"] == 2

    def test_fig2(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig2")
        code, out, _ = run_cli(capsys, "info", "--input", path)
        report = json.loads(out)
        assert (
            report["counts"]["summits_irreducible"],
            report["counts"]["summits_reducible"],
        ) == (3, 2)

    def test_missing_levels_means_one_level(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "k4")
        code, out, _ = run_cli(capsys, "info", "--input", path)
        assert json.loads(out)["counts"]["levels"] == 1

    def test_text_format(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        code, out, _ = run_cli(capsys, "info", "--input", path, "--format", "text")
        assert code == 0
        assert "genus: 3" in out


class TestDims:
    @pytest.mark.parametrize(
        "name,dims",
        [
            ("fig1", [9, 6, 4, 3]),
            ("fig2", [13, 4, 4, 0]),
            ("k4", [12, 8, 3, 3]),
        ],
    )
    def test_dims_values(self, tmp_path, capsys, name, dims):
        path = write_fixture(tmp_path, name)
        code, out, _ = run_cli(capsys, "dims", "--input", path)
        assert code == 0
        report = json.loads(out)
        got = [
            report["dims"]["downward"],
            report["dims"]["local"],
            report["dims"]["rosenlicht"],
            report["dims"]["residue"],
        ]
        assert got == dims
        assert all(item["ok"] for item in report["identities"])
        assert len(report["identities"]) == 5


class TestBasisGammaPolytope:
    def test_basis_shape(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        code, out, _ = run_cli(capsys, "basis", "--input", path)
        report = json.loads(out)
        assert report["dim"] == 3
        assert len(report["arrows"]) == 14
        assert all(len(row) == 14 for row in report["basis"])
        assert all(
            isinstance(x, str) and "." not in x
            for row in report["basis"]
            for x in row
        )

    def test_gamma_k4(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "k4")
        code, out, _ = run_cli(capsys, "gamma", "--input", path)
        report = json.loads(out)
        values = {tuple(e["subset"]): e["value"] for e in report["entries"]}
        assert values[()] == "0"
        assert values[("v1",)] == "2"
        assert values[("v1", "v2", "v3", "v4")] == "3"

    def test_gamma_fig1_top_vertex(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        code, out, _ = run_cli(capsys, "gamma", "--input", path)
        values = {
            tuple(e["subset"]): e["value"]
            for e in json.loads(out)["entries"]
        }
        assert values[("u4",)] == "0"
        assert values[("u1", "u2", "u3", "u4", "u5")] == "3"

    def test_polytope_k4(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "k4")
        code, out, _ = run_cli(capsys, "polytope", "--input", path)
        report = json.loads(out)
        assert len(report["vertices"]) == 12
        assert sorted(report["vertices"])[0] == ["0", "0", "1", "2"]
        bounds = {tuple(i["subset"]): i["bound"] for i in report["inequalities"]}
        assert bounds[("v1",)] == "2"

    def test_polytope_single_point(self, tmp_path, capsys):
        doc_path = tmp_path / "single.json"
        doc_path.write_text(json.dumps({"vertices": ["a"], "edges": []}))
        code, out, _ = run_cli(capsys, "polytope", "--input", str(doc_path))
        report = json.loads(out)
        assert report["vertices"] == [["0"]]

    def test_polytope_bound_exceeded(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig2")  # 12 vertices > polytope bound
        code, _, err = run_cli(capsys, "polytope", "--input", path)
        assert code == 2
        assert "bound" in err


class TestFaces:
    def test_k4_faces(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "k4")
        code, out, _ = run_cli(capsys, "faces", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["orientation"] == "lower"
        assert report["partitions"] == 75
        assert len(report["faces"]) == 75


class TestDegenerate:
    def test_fig1(self, tmp_path, capsys):
        coarse = fixtures.document("fig1")
        fine_levels = coarse.pop("levels")
        graph_path = tmp_path / "coarse.json"
        graph_path.write_text(json.dumps(coarse))
        fine_path = tmp_path / "fine.json"
        fine_path.write_text(json.dumps({"levels": fine_levels}))
        code, out, _ = run_cli(
            capsys, "degenerate", "--input", str(graph_path), "--fine", str(fine_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert all(report["checks"].values())
        assert len(report["fine_basis"]) == 3

    def test_not_a_coarsening(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        fine_path = tmp_path / "fine.json"
        fine_path.write_text(json.dumps({"u1": 1, "u2": 1, "u3": 1, "u4": 2, "u5": 2}))
        code, _, err = run_cli(
            capsys, "degenerate", "--input", path, "--fine", str(fine_path)
        )
        assert code == 2
        assert "coarsening" in err


class TestPrismDigests:
    """The printed bases of the triangular prism at levels v1,v2 | v3,v4 |
    v5,v6, and of its degeneration toward v1 | ... | v6, pinned by digest:
    fig1's are the only other printed bases under test."""

    def prism(self, tmp_path):
        levels = {f"v{i}": (i + 1) // 2 for i in range(1, 7)}
        path = tmp_path / "prism.json"
        path.write_text(json.dumps({**PRISM, "levels": levels}))
        return str(path)

    def test_basis(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "basis", "--input", self.prism(tmp_path))
        assert code == 0
        assert json.loads(out)["dim"] == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f188db14ec619bd09d27c736a3c1fe3433e7d67adfde4ae2e72cc1aeb535545b"
        )

    def test_degenerate(self, tmp_path, capsys):
        fine = tmp_path / "fine.json"
        fine.write_text(json.dumps({"levels": {f"v{i}": i for i in range(1, 7)}}))
        code, out, _ = run_cli(
            capsys, "degenerate", "--input", self.prism(tmp_path), "--fine", str(fine)
        )
        assert code == 0
        assert json.loads(out)["ok"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1025a22f246f66249096a77857e0fe2ec68bdc87771d887ead99fad78d4be98b"
        )


class TestErrors:
    def test_unreadable_input(self, capsys):
        code, _, err = run_cli(capsys, "info", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "info", "--input", str(path))
        assert code == 2

    def test_bad_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [], "edges": []}))
        code, _, err = run_cli(capsys, "info", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "document",
        [
            {"vertices": ["u", "v"], "edges": ["uv"]},
            {"vertices": "uv"},
            {"vertices": ["u", "v"], "edges": {"uv": 1}},
        ],
        ids=["edge-string", "vertices-string", "edges-object"],
    )
    def test_non_array_shapes_exit_2(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "info", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("command", ["info", "faces"])
    def test_null_levels_exit_2(self, tmp_path, capsys, command):
        # only an omitted "levels" means the one-level structure; null is no
        # level map, as a null "edges" is no edge list
        path = write_fixture(tmp_path, "k4", lambda doc: doc.update(levels=None))
        code, out, err = run_cli(capsys, command, "--input", path)
        assert code == 2
        assert out == ""
        assert err == 'error: "levels" must map vertices to integers\n'

    @pytest.mark.parametrize(
        "edge",
        [[["a"], "a"], ["a", ["a"]], [{"x": 1}, "a"], ["a", {"x": 1}]],
        ids=["array-tail", "array-head", "object-tail", "object-head"],
    )
    def test_non_string_endpoint_exits_2(self, tmp_path, edge):
        # in a separate process, so an uncaught exception would show as a
        # traceback and exit 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["a"], "edges": [edge]}))
        done = subprocess.run(
            [sys.executable, "-m", "resipoly", "info", "--input", str(path)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown vertex ")

    @pytest.mark.parametrize(
        "command,bound,message",
        [
            ("gamma", 12, "13 vertices exceed the table bound 12"),
            ("polytope", 8, "9 ground elements exceed the polytope bound 8"),
            ("faces", 6, "7 vertices exceed the face-sweep bound 6"),
        ],
        ids=["gamma", "polytope", "faces"],
    )
    def test_fixed_size_bounds(self, tmp_path, capsys, command, bound, message):
        # each bound is a constant: a graph at it runs, one vertex more
        # exits 2 naming the bound.  Edgeless graphs keep the runs cheap
        # (the 6-vertex face sweep checks 4,683 partitions).
        for n, expected in ((bound, 0), (bound + 1, 2)):
            path = tmp_path / f"edgeless{n}.json"
            path.write_text(json.dumps(edgeless(n)))
            code, out, err = run_cli(capsys, command, "--input", str(path))
            assert code == expected, (n, err)
            if expected == 2:
                assert out == ""
                assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "1", "--random-cases", "-5"],
            ["verify", "--random-cases", "0"],
        ],
        ids=["random-cases-negative", "random-cases-zero"],
    )
    def test_counts_must_be_positive(self, tmp_path, capsys, argv):
        # a count below 1 would report checks that never ran as passed
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["info", "dims", "basis", "gamma", "polytope", "faces", "degenerate", "verify"],
    )
    def test_max_vertices_only_where_read(self, tmp_path, capsys, command):
        # the size bounds are constants: no command takes --max-vertices
        path = write_fixture(tmp_path, "fig1")
        argv = [command, "--input", path, "--max-vertices", "1"]
        if command == "degenerate":
            argv += ["--fine", path]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--max-vertices" in capsys.readouterr().err


class TestInvariantViolations:
    """A violated invariant is a failed check: exit 1, one error line, no
    traceback.  Each test forces one invariant site of a module to fire."""

    def assert_exit_1(self, code, out, err):
        assert code == 1
        assert out == ""
        assert err.startswith("error: invariant violated:")
        assert "Traceback" not in err

    def test_polytopes_invariant_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.polytopes

        monkeypatch.setattr(resipoly.polytopes.SetFunction, "is_submodular", lambda self: False)
        path = write_fixture(tmp_path, "k4")
        code, out, err = run_cli(capsys, "gamma", "--input", path)
        self.assert_exit_1(code, out, err)
        assert "projection table violates its invariants" in err

    def test_summed_table_invariant_exits_1(self, tmp_path, capsys, monkeypatch):
        # the face sweep's tables are sums of level tables, guarded once each
        # by the same check as a whole-space table
        import resipoly.polytopes

        monkeypatch.setattr(resipoly.polytopes.SetFunction, "is_submodular", lambda self: False)
        path = write_fixture(tmp_path, "k4")
        code, out, err = run_cli(capsys, "faces", "--input", path)
        self.assert_exit_1(code, out, err)
        assert err == "error: invariant violated: projection table violates its invariants\n"

    def test_greedy_point_recheck_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.cli
        from resipoly.polytopes import SetFunction

        # 0 below the ground set and 1 at it, admitted as submodular: the
        # greedy points are the unit vectors, each above f at its singleton
        monkeypatch.setattr(SetFunction, "is_submodular", lambda self: True)
        monkeypatch.setattr(
            resipoly.cli,
            "residue_projection_table",
            lambda graph, levels: SetFunction(graph.vertices, [0] * 15 + [1]),
        )
        path = write_fixture(tmp_path, "k4")
        code, out, err = run_cli(capsys, "polytope", "--input", path)
        self.assert_exit_1(code, out, err)
        assert err == "error: invariant violated: greedy point violates the subset inequalities\n"

    def test_degeneration_invariant_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.degeneration

        # the flag never descends: every step is the whole space, whose rows
        # restricted to the lower block add to the realization's dimension
        monkeypatch.setattr(
            resipoly.degeneration, "kernel_of_projection", lambda space, coords: space
        )
        code, out, err = run_cli(capsys, *fig1_degenerate_argv(tmp_path))
        self.assert_exit_1(code, out, err)
        assert "realization changed the dimension" in err


    def test_limit_dimension_guard_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.degeneration
        from resipoly.linalg import _span

        # the limit is the first subspace the degeneration spans off an
        # echelon; drop the echelon's last row, and it loses a dimension
        monkeypatch.setattr(
            resipoly.degeneration,
            "_span",
            lambda width, echelon: _span(width, dict(list(echelon.items())[:-1])),
        )
        code, out, err = run_cli(capsys, *fig1_degenerate_argv(tmp_path))
        self.assert_exit_1(code, out, err)
        assert err == "error: invariant violated: limit changed the dimension\n"

    def test_non_submodular_table_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.cli
        from resipoly.polytopes import SetFunction

        # f(S) = |S|^2 on k4's vertices rises faster on bigger sets
        monkeypatch.setattr(
            resipoly.cli,
            "residue_projection_table",
            lambda graph, levels: SetFunction(
                graph.vertices, [m.bit_count() ** 2 for m in range(16)]
            ),
        )
        path = write_fixture(tmp_path, "k4")
        code, out, err = run_cli(capsys, "polytope", "--input", path)
        self.assert_exit_1(code, out, err)
        assert err == "error: invariant violated: base polytope of a non-submodular table\n"

    def test_zero_anchor_minor_exits_1(self, tmp_path, capsys, monkeypatch):
        import resipoly.degeneration

        monkeypatch.setattr(resipoly.degeneration, "det", lambda rows: 0)
        code, out, err = run_cli(capsys, *fig1_degenerate_argv(tmp_path))
        self.assert_exit_1(code, out, err)
        assert err == "error: invariant violated: greedy anchor minor is zero\n"


class TestParser:
    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        import resipoly.cli

        built = []
        original = resipoly.cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(resipoly.cli, "_parser", None)
        monkeypatch.setattr(resipoly.cli, "build_parser", counting)
        path = write_fixture(tmp_path, "fig2")
        first = run_cli(capsys, "dims", "--input", path)
        second = run_cli(capsys, "dims", "--input", path)
        assert first == second
        assert first[0] == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["dims"])
        assert exit_info.value.code == 2
        assert "--input" in capsys.readouterr().err
        assert len(built) == 1


# expect key -> (the fixture that carries it, the path to the entry put off
# by one: an integer raised by one, an arrow list without its last arrow,
# the only failure `verify` must then list)
EXPECT_FAULTS = {
    "genus": ("fig1", ("genus",), "genus: computed 3, fixture expects 4"),
    "components": ("fig1", ("components",), "components: computed 1, fixture expects 2"),
    "flag_dims": (
        "fig1",
        ("flag_dims", 3),
        "flag dims: computed [9, 6, 4, 3], fixture expects [9, 6, 4, 4]",
    ),
    "summits": ("fig1", ("summits", 1), "summit counts: computed [2, 0], fixture expects [2, 1]"),
    "levels": ("fig1", ("levels", "2", "lrc"), "level 2 lrc: computed 3, fixture expects 4"),
    "global_conditions": (
        "fig1",
        ("global_conditions", 0, "arrows"),
        "global condition 2:u4: computed ['e0:u1>u4', 'e1:u2>u4'], fixture expects ['e0:u1>u4']",
    ),
    "polytope_vertex_count": (
        "k4",
        ("polytope_vertex_count",),
        "one-level polytope vertex count: computed 12, fixture expects 13",
    ),
}


class TestVerify:
    def test_config_derives_the_suite_sizes(self):
        # three settable fields; the report's config block keeps all eight keys
        from dataclasses import fields

        from resipoly.verify import VerifyConfig

        assert [f.name for f in fields(VerifyConfig)] == ["seed", "cases", "include_random"]
        assert list(VerifyConfig().as_dict().items()) == [
            ("seed", 0),
            ("flag_cases", 200),
            ("face_cases", 25),
            ("degeneration_cases", 50),
            ("collection_cases", 1000),
            ("max_vertices", 5),
            ("max_edges", 8),
            ("include_random", True),
        ]
        small = VerifyConfig(seed=3, cases=7, include_random=False)
        assert small.as_dict() == {
            "seed": 3,
            "flag_cases": 7,
            "face_cases": 1,
            "degeneration_cases": 1,
            "collection_cases": 35,
            "max_vertices": 5,
            "max_edges": 8,
            "include_random": False,
        }

    def test_single_fixture_passes(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig1")
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--skip-random"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"]

    def test_corrupted_expectation_fails(self, tmp_path, capsys):
        def corrupt(doc):
            doc["expect"]["flag_dims"] = [9, 6, 4, 2]

        path = write_fixture(tmp_path, "fig1", corrupt)
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--skip-random"
        )
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert report["fixtures"][0]["expect_failures"]

    @pytest.mark.parametrize("key", sorted(EXPECT_FAULTS))
    def test_expect_key_fails_alone(self, tmp_path, capsys, key):
        # one expectation off by one: verify exits 1 and lists that key's
        # failure and nothing else
        name, path_in_expect, failure = EXPECT_FAULTS[key]

        def corrupt(doc):
            *outer, last = path_in_expect
            holder = doc["expect"]
            for step in outer:
                holder = holder[step]
            value = holder[last]
            holder[last] = value + 1 if isinstance(value, int) else value[:-1]

        path = write_fixture(tmp_path, name, corrupt)
        code, out, _ = run_cli(capsys, "verify", "--input", path, "--skip-random")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["fixtures"][0]["expect_failures"] == [failure]

    @pytest.mark.parametrize(
        "expect",
        [
            {"global_conditions": [{"level": 1}]},
            {"levels": {"1": []}},
            {"flag_dims": 5},
            {"summits": None},
            {"genus": "1"},
            {"genuss": 1},
            [],
            {"global_conditions": [{"level": 1, "component": ["zz"], "arrows": []}]},
            {"levels": {"\u0661": {"lrc": 0}}},
        ],
        ids=[
            "condition-without-component",
            "level-fields-list",
            "flag-dims-scalar",
            "summits-null",
            "genus-string",
            "unknown-key",
            "expect-list",
            "component-not-a-vertex",
            "level-key-non-ascii-digit",
        ],
    )
    def test_malformed_expect_exits_2(self, tmp_path, capsys, expect):
        # unchecked, each would escape as a traceback, read as a failed
        # check, or pass with the expectation never compared
        path = tmp_path / "triangle.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b", "c"],
                    "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
                    "expect": expect,
                }
            )
        )
        code, out, err = run_cli(
            capsys, "verify", "--input", str(path), "--skip-random"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "condition,message",
        [
            (
                {"level": 2, "component": [], "arrows": []},
                "empty component in expect global condition",
            ),
            (
                {"level": 2, "component": ["u5"], "arrows": ["bogus"]},
                "unknown arrow 'bogus' in expect global condition",
            ),
            (
                {"level": 9, "component": ["u5"], "arrows": ["e2:u2>u5"]},
                "expect global condition level 9 out of range 1..2",
            ),
            (
                {"level": 0, "component": ["u5"], "arrows": ["e2:u2>u5"]},
                "expect global condition level 0 out of range 1..2",
            ),
        ],
        ids=["empty-component", "arrow-not-a-label", "level-above-r", "level-zero"],
    )
    def test_malformed_global_condition_exits_2(self, tmp_path, capsys, condition, message):
        # before, the empty component and the levels out of range read as
        # "row not generated" and the bogus arrow as a mismatch, all exit 1
        def expect(doc):
            doc["expect"]["global_conditions"] = [condition]

        path = write_fixture(tmp_path, "fig1", expect)
        code, out, err = run_cli(capsys, "verify", "--input", path, "--skip-random")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("level", ["9", "3", "0"])
    def test_expect_level_out_of_range_exits_2(self, tmp_path, capsys, level):
        # fig1 has two levels; before, such a key read as "missing from the
        # computed report", exit 1
        def expect(doc):
            doc["expect"]["levels"] = {level: {"lrc": 1}}

        path = write_fixture(tmp_path, "fig1", expect)
        code, out, err = run_cli(capsys, "verify", "--input", path, "--skip-random")
        assert code == 2
        assert out == ""
        assert err == f"error: expect level {level} out of range 1..2\n"

    def test_global_condition_at_level_one_is_checked(self, tmp_path, capsys):
        # level 1 is in range, so the condition is compared, not rejected;
        # nothing lies above level 1, so it generates no global row
        def expect(doc):
            doc["expect"]["global_conditions"] = [
                {"level": 1, "component": ["u4"], "arrows": ["e0:u1>u4"]}
            ]

        path = write_fixture(tmp_path, "fig1", expect)
        code, out, _ = run_cli(capsys, "verify", "--input", path, "--skip-random")
        assert code == 1
        assert json.loads(out)["fixtures"][0]["expect_failures"] == [
            "global condition 1:u4: row not generated"
        ]

    def test_global_condition_component_in_any_order(self, tmp_path, capsys):
        # a component is a vertex set, so the reordered ones find their rows;
        # a real mismatch reads as it did
        def expect(doc):
            doc["expect"]["global_conditions"] = [
                {"level": 3, "component": ["u8", "u7"], "arrows": ["e8:u4>u7"]},
                {
                    "level": 3,
                    "component": ["uc", "u6", "ub"],
                    "arrows": ["e7:u4>uc", "e6:u3>uc", "e4:u2>ub"],
                },
                {"level": 3, "component": ["u9", "ua"], "arrows": ["e2:u1>u9"]},
            ]

        path = write_fixture(tmp_path, "fig2", expect)
        code, out, _ = run_cli(capsys, "verify", "--input", path, "--skip-random")
        assert code == 1
        assert json.loads(out)["fixtures"][0]["expect_failures"] == [
            "global condition 3:u9+ua: computed ['e2:u1>u9', 'e5:u3>ua'], "
            "fixture expects ['e2:u1>u9']"
        ]

    def test_each_shipped_fixture_verifies(self, tmp_path, capsys):
        for name in fixtures.NAMES:
            path = write_fixture(tmp_path, name)
            code, out, _ = run_cli(
                capsys, "verify", "--input", path, "--skip-random"
            )
            assert code == 0, f"{name}: {out[-2000:]}"

    def test_vertex_count_reads_the_face_sweep_polytope(self, monkeypatch):
        # k4 expects a one-level vertex count; the face sweep already built
        # that polytope, so verify must not build it again
        import resipoly.verify

        def refuse(*args, **kwargs):
            raise AssertionError("one-level polytope built twice")

        monkeypatch.setattr(resipoly.verify, "base_polytope", refuse)
        section = resipoly.verify.verify_document("k4", fixtures.document("k4"))
        assert section["faces"] is not None
        assert section["expect_failures"] == []
        assert section["ok"]

    def test_face_sweep_up_to_its_bound(self, monkeypatch):
        # the sweep itself is stubbed: a real 6-vertex one takes seconds
        class Swept(Exception):
            pass

        def sweep(graph):
            raise Swept

        monkeypatch.setattr(resipoly.verify, "check_polytope_faces", sweep)
        with pytest.raises(Swept):
            resipoly.verify.verify_document("six", edgeless(6))
        assert resipoly.verify.verify_document("seven", edgeless(7))["faces"] is None

    def test_two_vertex_one_level_document_is_split(self):
        # a one-level document of two vertices or more also degenerates from
        # its first vertex split off above the rest
        section = resipoly.verify.verify_document(
            "two", {"vertices": ["a", "b"], "edges": [["a", "b"]]}
        )
        assert [(d["fine"], d["coarse"]) for d in section["degenerations"]] == [
            ([["a", "b"]], [["a", "b"]]),
            ([["a"], ["b"]], [["a", "b"]]),
        ]
        assert section["ok"]

    @pytest.mark.parametrize("n,ok", [(8, True), (9, False)])
    def test_vertex_count_up_to_the_polytope_bound(self, n, ok, capsys, tmp_path):
        # a vertex count is checked up to the polytope bound; past it the
        # expectation cannot be computed, so the document is an input error
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(dict(edgeless(n), expect={"polytope_vertex_count": 1})))
        code, out, err = run_cli(capsys, "verify", "--input", str(path), "--skip-random")
        if ok:
            assert code == 0
            (section,) = json.loads(out)["fixtures"]
            assert section["expect_failures"] == []
        else:
            assert code == 2
            assert out == ""
            assert err == (
                "error: expect polytope_vertex_count: 9 vertices exceed the polytope bound 8\n"
            )

    def test_small_random_suite(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "loop1")
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--input",
            path,
            "--seed",
            "7",
            "--random-cases",
            "8",
        )
        assert code == 0
        report = json.loads(out)
        assert report["random"]["flag_sweep"]["ok"]
        assert report["random"]["collections"]["cases"] == 40

    def test_failure_total_when_the_list_is_cut(self, capsys, tmp_path, monkeypatch):
        # every partition of the flag sweep fails one identity: the section
        # lists 20 failures and reports how many there were in all
        import resipoly.verify
        from resipoly.residues import IdentityCheck

        monkeypatch.setattr(
            resipoly.verify,
            "flag_identities",
            lambda counts, dims: [IdentityCheck("residue dimension", 1, 0)],
        )
        path = write_fixture(tmp_path, "loop1")
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--seed", "7", "--random-cases", "8"
        )
        assert code == 1
        random_sections = json.loads(out)["random"]
        sweep = random_sections["flag_sweep"]
        assert sweep["partitions"] > 20
        assert len(sweep["failures"]) == 20
        assert sweep["failures_total"] == sweep["partitions"]
        for name in ("face_sweep", "degenerations", "collections"):
            assert random_sections[name]["ok"]
            assert "failures_total" not in random_sections[name]

    @pytest.mark.parametrize("failed,total", [(19, None), (20, None), (21, 21)])
    def test_failure_list_cut_past_20(self, monkeypatch, failed, total):
        # the list keeps at most 20 failures, and only a cut list has a total
        from resipoly.verify import VerifyConfig, _random_section

        def cases(config, rng, counts):
            yield from (f"failure {i}" for i in range(failed))

        monkeypatch.setitem(resipoly.verify._RANDOM_SECTIONS, "flag_sweep", (0, cases))
        section = _random_section("flag_sweep", VerifyConfig())
        assert section["ok"] is False
        assert section["failures"] == [f"failure {i}" for i in range(min(failed, 20))]
        assert section.get("failures_total") == total

    def test_determinism_across_processes(self, tmp_path):
        # separate processes get different hash seeds; output must not care
        cmd = [
            sys.executable,
            "-m",
            "resipoly",
            "verify",
            "--seed",
            "3",
            "--random-cases",
            "6",
        ]
        first = subprocess.run(cmd, capture_output=True, check=False)
        second = subprocess.run(cmd, capture_output=True, check=False)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout


def _replaced(**changes):
    """A change to a frozen report: the same report with `changes`."""
    return lambda report: dataclasses.replace(report, **changes)


def _appended(item):
    return lambda items: [*items, item]


# verdict term -> (the owner of the attribute the fault wraps, the
# attribute, the change made to its result): each makes one term false
VERDICT_FAULTS = {
    "identities": (ResidueFlag, "identities", _appended(IdentityCheck("injected", 1, 0))),
    "inclusions": (ResidueFlag, "inclusions", _appended(("injected", False))),
    "totals": (LevelGraph, "component_report", _replaced(totals_consistent=False)),
    "relations": (LevelGraph, "relation_failures", _appended("injected")),
    "component-identity": (
        resipoly.verify,
        "_component_set_identity_failures",
        _appended("injected"),
    ),
    "expect": (resipoly.verify, "_expect_failures", _appended("injected")),
    "faces": (resipoly.verify, "check_polytope_faces", _replaced(lattice_ok=False)),
    "limit": (resipoly.verify, "check_degeneration", _replaced(limit_matches=False)),
    "realization": (
        resipoly.verify,
        "check_degeneration",
        _replaced(realization_matches=False),
    ),
    "splitting": (resipoly.verify, "check_degeneration", _replaced(splitting_matches=False)),
    "oracle": (resipoly.verify, "check_degeneration", _replaced(oracle_matches=False)),
}


# failure source of a random section -> (the section, the faults that make
# the source fail, the text each failure the section lists ends with)
RANDOM_FAULTS = {
    "flag-identities": (
        "flag_sweep",
        [(resipoly.verify, "flag_identities", _appended(IdentityCheck("injected", 1, 0)))],
        ": injected 1!=0",
    ),
    "flag-relations": (
        "flag_sweep",
        [(resipoly.verify, "_relation_failures", _appended("injected relation"))],
        ": injected relation",
    ),
    "flag-component-identity": (
        "flag_sweep",
        [(resipoly.verify, "_component_set_identity_failures", _appended("injected identity"))],
        ": injected identity",
    ),
    "faces": (
        "face_sweep",
        [
            (
                resipoly.verify,
                "check_polytope_faces",
                _replaced(lattice_ok=False, failures=("injected",)),
            )
        ],
        ": injected",
    ),
    "degenerations": (
        "degenerations",
        [(resipoly.verify, "check_degeneration", _replaced(limit_matches=False))],
        ": limit=False realization=True splitting=True oracle=True",
    ),
    "collections-independence": (
        "collections",
        [(resipoly.verify, "set_theoretic_checks", _replaced(sti_1=False))],
        ": generator produced a non-independent collection",
    ),
    "collections-unrelated": (
        "collections",
        [
            (
                resipoly.verify,
                "set_theoretic_checks",
                _replaced(related=False, properly_unrelated=False),
            ),
            (resipoly.verify, "rank", lambda r: r - 1),
        ],
        ": unrelated union is linearly dependent",
    ),
    "collections-properly-unrelated": (
        "collections",
        [
            (
                resipoly.verify,
                "set_theoretic_checks",
                _replaced(related=True, properly_unrelated=True),
            ),
            (resipoly.verify, "rank", lambda r: r - 1),
        ],
        " leaves a dependent union",
    ),
}


def inject(monkeypatch, owner, attribute, change):
    original = getattr(owner, attribute)
    monkeypatch.setattr(owner, attribute, lambda *args: change(original(*args)))


class TestVerdictTerms:
    """Each term of an `ok` verdict, made false alone, fails the verdict."""

    @pytest.mark.parametrize("term", sorted(VERDICT_FAULTS))
    def test_verify_document(self, monkeypatch, term):
        assert resipoly.verify.verify_document("k4", fixtures.document("k4"))["ok"]
        inject(monkeypatch, *VERDICT_FAULTS[term])
        assert resipoly.verify.verify_document("k4", fixtures.document("k4"))["ok"] is False

    @pytest.mark.parametrize("term", ["identities", "inclusions", "totals"])
    def test_dims(self, tmp_path, capsys, monkeypatch, term):
        path = write_fixture(tmp_path, "fig2")
        inject(monkeypatch, *VERDICT_FAULTS[term])
        code, out, _ = run_cli(capsys, "dims", "--input", path)
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("source", sorted(RANDOM_FAULTS))
    def test_random_section(self, tmp_path, capsys, monkeypatch, source):
        # verify exits 1, only the faulted source's section fails, and each
        # failure the section lists comes from that source
        section, faults, tail = RANDOM_FAULTS[source]
        for fault in faults:
            inject(monkeypatch, *fault)
        path = write_fixture(tmp_path, "loop1")
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--seed", "7", "--random-cases", "8"
        )
        assert code == 1
        random_sections = json.loads(out)["random"]
        assert [name for name, s in random_sections.items() if not s["ok"]] == [section]
        failures = random_sections[section]["failures"]
        assert failures
        assert all(failure.endswith(tail) for failure in failures)
