import inspect
import json
import os

import pytest

import dualmod as dm
from dualmod import errors
from dualmod.cli import build_parser, main

from conftest import fixture_path
from test_golden import capture, expected


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_sec32(self, capsys):
        code, out, _ = run(capsys, "decompose", fixture_path("sec32"))
        assert code == 0
        blob = json.loads(out)
        assert blob["parts"] == [["a", "w"], ["b"]]
        assert blob["densities"] == ["1/1", "1/2"]
        assert blob["rho_star"] == {"a": "1/1", "w": "1/1", "b": "1/2"}

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "decompose", fixture_path("tri_iso"))
        _, out2, _ = run(capsys, "decompose", fixture_path("tri_iso"))
        assert out1 == out2


class TestVerify:
    def test_sec32_fails_structurally(self, capsys):
        code, out, _ = run(capsys, "verify", fixture_path("sec32"))
        assert code == 2
        blob = json.loads(out)
        assert blob["g_strictly_monotone"] is False
        assert blob["dual_modular"] is False
        assert blob["witnesses"]["g_strictly_monotone"] == [["a"], ["a", "w"]]

    def test_p3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", fixture_path("p3"))
        assert code == 0
        assert json.loads(out)["dual_modular"] is True


class TestSolve:
    def test_p3_quadratic(self, capsys, tmp_path):
        trace = os.path.join(tmp_path, "t.csv")
        code, out, _ = run(
            capsys,
            "solve",
            fixture_path("p3"),
            "--kind",
            "quadratic",
            "--T",
            "2000",
            "--trace",
            trace,
        )
        assert code == 0
        blob = json.loads(out)
        for v in blob["final_rho"].values():
            assert abs(v - 2 / 3) <= 1e-2
        assert blob["error_bounds"]["kind"] == "quadratic"
        assert os.path.exists(trace)

    def test_zero_f_min_is_one_note_line(self, capsys):
        code, _, err = run(capsys, "solve", fixture_path("p3"), "--T", "20")
        assert code == 0
        assert err == (
            "note: f_min = 0: some element has zero worst-case reward share, "
            "so the multiplicative density bound is unavailable\n"
        )

    def test_zero_cost_exits_domain(self, capsys):
        # the identity start on the unperturbed three-element table hits a
        # zero cost share immediately
        code, _, err = run(capsys, "solve", fixture_path("sec32"), "--T", "5")
        assert code == 3
        assert "zero" in err

    def test_greedypp_variant(self, capsys):
        code, out, _ = run(
            capsys, "solve", fixture_path("p3"), "--variant", "greedypp", "--T", "500"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["variant"] == "greedypp"

    def test_hockey_stick_kind(self, capsys):
        code, out, _ = run(
            capsys, "solve", fixture_path("p3"), "--kind", "hs:1/2", "--T", "50"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["error_bounds"] is None

    def test_initial_permutation_by_label(self, capsys):
        code, out, _ = run(
            capsys, "solve", fixture_path("p3"), "--T", "100", "--initial", "3,2,1"
        )
        assert code == 0
        blob = json.loads(out)
        assert set(blob["final_rho"]) == {"1", "2", "3"}

    def test_initial_permutation_by_index(self, capsys):
        # "3,2,1,0" names no label of hardness, so it is read as element indices
        by_label = run(capsys, "solve", fixture_path("hardness"), "--T", "30", "--initial", "t2, t1, s2, s1")
        by_index = run(capsys, "solve", fixture_path("hardness"), "--T", "30", "--initial", "3,2,1,0")
        assert by_label[0] == 0
        assert by_index == by_label
        assert by_index != run(capsys, "solve", fixture_path("hardness"), "--T", "30")

    # the last three parse, as labels or as indices, but are no permutation of the four elements
    @pytest.mark.parametrize("value", ["s1,s2,x,t2", "0,1,two,3", "", "s1,s1,t1,t2", "s1,s2", "0,1,2,3,4"])
    def test_initial_permutation_malformed(self, capsys, value):
        code, out, err = run(capsys, "solve", fixture_path("hardness"), "--initial", value)
        assert (code, out) == (1, "")
        assert err.startswith("error: initial: ")

    @pytest.mark.parametrize("f,g,variant,f_min,g_min", [
        ("edges", "perturbed", "fw", "1/142", "1/1740"),
        ("edges", "linear", "greedypp", "1/142", "1/96"),
        ("complemented", "linear", "greedypp", "1/1740", "1/96"),
    ], ids=["edges-perturbed", "edges-linear", "complemented-linear"])
    def test_error_bounds_above_the_scan_cap(self, capsys, tmp_path, f, g, variant, f_min, g_min):
        # 48 elements, as in CI: f(V) = 47 + 48/2 = 71 with smallest marginal 1/2
        # (a loop); the perturbed cost has g(V) = 48^2 + 48/3 = 2320 and smallest
        # marginal 48^2 - 47 * 49 + 1/3 = 4/3; the linear one g(V) = 96 and 1
        n = 48
        perturbed = {"kind": "perturbed", "eta": "1/3",
                     "base": {"kind": "concave_of_cardinality", "phi": [str(k * (2 * n - k)) for k in range(n + 1)]}}
        specs = {
            "edges": {"kind": "edges_inside",
                      "edges": [[u, u + 1, "1"] for u in range(n - 1)] + [[u, u, "1/2"] for u in range(n)]},
            "complemented": {"kind": "complement_of", "base": perturbed},
            "perturbed": perturbed,
            "linear": {"kind": "linear", "weights": [str(1 + u % 3) for u in range(n)]},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"labels": [f"v{i}" for i in range(n)], "f": specs[f], "g": specs[g]}))
        code, out, err = run(capsys, "solve", str(path), "--variant", variant, "--T", "300")
        assert (code, err) == (0, "")
        bounds = json.loads(out)["error_bounds"]
        assert (bounds["f_min"], bounds["g_min"]) == (f_min, g_min)

    def test_max_n_is_not_a_solve_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", fixture_path("p3"), "--max-n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n 3" in capsys.readouterr().err


class TestParserReuse:
    """main parses every argv with one parser; no call leaves state for the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_trace_is_not_carried_over(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert capture("p3", "solve", "--trace", str(trace))[0] == 0
        trace.unlink()
        assert capture("p3", "solve") == expected("p3", "solve")
        assert list(tmp_path.iterdir()) == []

    def test_alpha_is_not_carried_over(self):
        assert capture("tri_iso", "contracts", "--alpha", "1/2")[0] == 0
        assert capture("tri_iso", "contracts") == expected("tri_iso", "contracts")

    def test_max_n_is_not_carried_over(self):
        # sec32's explicit tables prove nothing, so its verify scans and the cap applies
        assert capture("sec32", "verify", "--max-n", "2")[0] == 1
        assert capture("sec32", "verify") == expected("sec32", "verify")

    def test_call_after_argparse_rejection(self):
        with pytest.raises(SystemExit) as exc:
            capture("p3", "solve", "--T", "abc")
        assert exc.value.code == 2
        assert capture("p3", "solve") == expected("p3", "solve")


class TestContracts:
    def test_tri_iso_table(self, capsys):
        code, out, _ = run(capsys, "contracts", fixture_path("tri_iso"))
        assert code == 0
        blob = json.loads(out)
        assert blob["critical_values"] == ["1/3"]
        assert blob["optimal"]["alpha"] == "1/3"
        assert blob["optimal"]["response"] == ["1", "2", "3"]
        assert blob["optimal"]["principal_utility"] == "6/1"

    def test_single_alpha_query(self, capsys):
        code, out, _ = run(capsys, "contracts", fixture_path("tri_iso"), "--alpha", "1/2")
        assert code == 0
        blob = json.loads(out)
        assert blob["response"] == ["1", "2", "3"]
        assert blob["agent_utility"] == "3/2"

    @pytest.mark.parametrize("name", ["hardness", "sec32", "tri_iso"])
    def test_alpha_query_prints_the_table_row(self, capsys, name):
        # hardness has the critical values 1/2 and 1
        table = json.loads(expected(name, "contracts")[1])["table"]
        assert table
        for row in table:
            code, out, err = run(capsys, "contracts", fixture_path(name), "--alpha", row["alpha"])
            assert (code, out, err) == (0, json.dumps(row, indent=2) + "\n", "")


class TestComplement:
    def test_writes_instance(self, capsys, tmp_path):
        src = os.path.join(tmp_path, "lin.json")
        with open(src, "w") as fh:
            json.dump(
                {
                    "labels": ["x", "y"],
                    "f": {"kind": "linear", "weights": [2, 1]},
                    "g": {"kind": "linear", "weights": [1, 1]},
                },
                fh,
            )
        out_path = os.path.join(tmp_path, "comp.json")
        code, _, _ = run(capsys, "complement", src, "-o", out_path)
        assert code == 0
        comp = dm.load_instance(out_path)
        assert comp.f.value(0b01) == 1  # complemented cost becomes the reward
        assert comp.g.value(0b01) == 2

    def test_non_strict_reward_exits_structural(self, capsys):
        code, _, err = run(capsys, "complement", fixture_path("p3"))
        assert code == 2
        assert "strictly monotone" in err


class TestDivergence:
    def test_hockey_stick_with_sup(self, capsys):
        code, out, _ = run(
            capsys,
            "divergence",
            "--x",
            "1/2,1/2",
            "--y",
            "1/4,3/4",
            "--kind",
            "hs:1",
            "--sup",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == "1/4"
        assert blob["sup_value"] == "1/4"
        assert blob["argmax"] == [0]

    def test_sup_has_no_size_cap(self, capsys):
        x = ",".join(["1/2", "1/8"] * 10)
        code, out, err = run(capsys, "divergence", "--x", x, "--y", ",".join(["1/4"] * 20), "--kind", "hs:1", "--sup")
        assert (code, err) == (0, "")
        blob = json.loads(out)
        assert blob["sup_value"] == blob["value"] == "5/2"
        assert blob["argmax"] == list(range(0, 20, 2))

    def test_quadratic_value(self, capsys):
        code, out, _ = run(capsys, "divergence", "--x", "1,1", "--y", "1,2")
        assert code == 0
        assert json.loads(out)["value"] == "3/2"

    def test_zero_cost_exits_domain(self, capsys):
        code, _, _ = run(capsys, "divergence", "--x", "1,0,1", "--y", "1,0,2")
        assert code == 3


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "/nonexistent/file.json")
        assert code == 1
        assert err

    def test_schema_error_names_field(self, capsys, tmp_path):
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"labels": ["a"], "f": {"kind": "nope"}, "g": {"kind": "linear", "weights": [1]}}, fh)
        code, _, err = run(capsys, "decompose", bad)
        assert code == 1
        assert "f.kind" in err

    @pytest.mark.parametrize("command,value", [("verify", "-1"), ("decompose", "-3")])
    def test_negative_max_n(self, capsys, command, value):
        code, _, err = run(capsys, command, fixture_path("p3"), "--max-n", value)
        assert code == 1
        assert "max_n" in err

    @pytest.mark.parametrize("kind", ["hs:abc", "hs:1/0", "hs:"])
    def test_malformed_hockey_stick_kind(self, capsys, kind):
        code, _, err = run(capsys, "divergence", "--x", "1/2,1/2", "--y", "1/4,3/4", "--kind", kind)
        assert code == 1
        assert "kind" in err

    @pytest.mark.parametrize("field", ["f", "g"])
    def test_edges_not_a_list(self, capsys, tmp_path, field):
        specs = {"f": {"kind": "linear", "weights": [1]}, "g": {"kind": "linear", "weights": [1]}}
        specs[field] = {"kind": "edges_inside", "edges": 5}
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"labels": ["a"], **specs}, fh)
        code, _, err = run(capsys, "verify", bad)
        assert code == 1
        assert f"{field}.edges" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edge", [[True, 1, 1], [0, False, 1]])
    def test_boolean_endpoint(self, capsys, tmp_path, edge):
        # a boolean is an int to Python; read as an index it would pass as 1 or 0
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as fh:
            json.dump(
                {
                    "labels": ["a", "b"],
                    "f": {"kind": "edges_inside", "edges": [edge]},
                    "g": {"kind": "linear", "weights": [1, 1]},
                },
                fh,
            )
        code, _, err = run(capsys, "decompose", bad)
        assert code == 1
        assert "f.edges[0]" in err

    @pytest.mark.parametrize(
        "labels,values",
        [
            (["a"], {"00": 1, "0": 0}),
            (["a", "b", "c", "d"], {**{str(m): m for m in range(16) if m != 11}, "1_0": 10}),
        ],
    )
    def test_table_mask_given_twice(self, capsys, tmp_path, labels, values):
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as fh:
            json.dump(
                {
                    "labels": labels,
                    "f": {"kind": "explicit_table", "values": values},
                    "g": {"kind": "linear", "weights": [1] * len(labels)},
                },
                fh,
            )
        code, _, err = run(capsys, "verify", bad)
        assert code == 1
        assert "f.values" in err
        assert "given twice" in err


EDGE = {"kind": "edges_inside", "edges": [[0, 1, 1]]}
LINEAR = {"kind": "linear", "weights": [1, 1]}


# a spec constructor's own check, reported under the spec's JSON path
SPEC_ERRORS = [
    ("g", {"kind": "linear", "weights": [1, -1]}, "g.weights: negative weight -1 at element 1"),
    ("f", {"kind": "edges_inside", "edges": [[0, 1, -2]]}, "f.edges: negative edge weight -2 on (0, 1)"),
    ("f", {"kind": "scaled", "base": EDGE, "factor": "-1/2"}, "f.factor: scale factor must be >= 0, got -1/2"),
    (
        "f",
        {"kind": "perturbed", "eta": 1, "base": {"kind": "scaled", "base": EDGE, "factor": -1}},
        "f.base.factor: scale factor must be >= 0, got -1",
    ),
    ("g", {"kind": "concave_of_cardinality", "phi": [0, 1, 3]}, "g.phi: increments must be non-increasing"),
    ("f", {"kind": "explicit_table", "values": {"0": 0, "1": -1, "2": 0, "3": 1}}, "f.values: negative value -1 at mask 1"),
    ("f", {"kind": "explicit_table", "values": {"0": 1, "1": 1, "2": 1, "3": 2}}, "f.values: value on the empty set must be 0"),
    ("g", {"kind": "perturbed", "base": LINEAR, "eta": "-1/2"}, "g.eta: perturbation amount must be >= 0, got -1/2"),
    (
        "g",
        {"kind": "scaled", "factor": 2, "base": {"kind": "perturbed", "base": LINEAR, "eta": -1}},
        "g.base.eta: perturbation amount must be >= 0, got -1",
    ),
]


@pytest.mark.parametrize("field,spec,message", SPEC_ERRORS, ids=[m.split(":")[0] for _, _, m in SPEC_ERRORS])
def test_spec_constructor_error_names_json_path(capsys, tmp_path, field, spec, message):
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as fh:
        json.dump({"labels": ["a", "b"], "f": EDGE, "g": LINEAR, field: spec}, fh)
    assert run(capsys, "decompose", bad) == (1, "", f"error: {message}\n")


def _instance(**parts) -> bytes:
    """A two-element instance file, valid but for ``parts``."""
    return json.dumps({"labels": ["a", "b"], "f": EDGE, "g": LINEAR, **parts}).encode()


def _nested(depth: int) -> bytes:
    """A reward under ``depth`` scaled wrappers, written out by hand: json.dumps would recurse as deep."""
    spec = '{"kind": "scaled", "factor": 1, "base": ' * depth + json.dumps(EDGE) + "}" * depth
    return b'{"labels": ["a", "b"], "g": %s, "f": %s}' % (json.dumps(LINEAR).encode(), spec.encode())


# malformed input, each reaching one raise of the loader, a constructor or the CLI:
# (id, instance file or None, command with "{path}" for the file, exit code, stderr prefix)
MALFORMED = [
    ("spec-not-object", _instance(f=[1]), None, 1, "f: "),
    ("table-values-not-object", _instance(f={"kind": "explicit_table", "values": [0, 1, 1, 2]}), None, 1, "f.values: "),
    ("table-size", _instance(f={"kind": "explicit_table", "values": {"0": 0, "1": 1}}), None, 1, "f.values: "),
    ("table-mask-not-integer", _instance(f={"kind": "explicit_table", "values": {"0": 0, "1": 1, "2": 1, "x": 2}}), None, 1, "f.values: "),
    ("table-mask-out-of-range", _instance(f={"kind": "explicit_table", "values": {"0": 0, "1": 1, "2": 1, "4": 2}}), None, 1, "f.values: "),
    ("edge-not-a-triple", _instance(f={"kind": "edges_inside", "edges": [[0, 1]]}), None, 1, "f.edges[0]: "),
    ("weights-count", _instance(g={"kind": "linear", "weights": [1]}), None, 1, "g.weights: "),
    ("phi-count", _instance(g={"kind": "concave_of_cardinality", "phi": [0, 1]}), None, 1, "g.phi: "),
    ("phi-at-empty-set", _instance(g={"kind": "concave_of_cardinality", "phi": [1, 2, 3]}), None, 1, "g.phi: phi(0) must be 0"),
    ("phi-negative", _instance(g={"kind": "concave_of_cardinality", "phi": [0, -1, -2]}), None, 1, "g.phi: negative value -1"),
    ("top-level-not-object", b"[1, 2]", None, 1, "instance: "),
    ("labels-not-strings", _instance(labels=["a", 2]), None, 1, "labels: "),
    ("reward-missing", json.dumps({"labels": ["a", "b"], "g": LINEAR}).encode(), None, 1, "f: "),
    ("normalized-not-boolean", _instance(normalized="yes"), None, 1, "normalized: "),
    ("invalid-json", b'{"labels": ', None, 1, "instance: invalid JSON"),
    ("not-utf8", b"\xff{}", None, 1, "instance: not UTF-8 text"),
    ("nested-too-deeply", _nested(2000), None, 1, "instance: nested too deeply"),
    ("zero-cost-total", _instance(g={"kind": "linear", "weights": [0, 0]}), None, 2, "g(V) must be positive"),
    ("sup-without-hockey-stick", None, ["divergence", "--x", "1,1", "--y", "1,1", "--sup"], 1, "sup: "),
    ("negative-cost-share", None, ["divergence", "--x", "1,1", "--y=-1,1"], 3, "negative cost share y[0] = -1"),
    ("alpha-out-of-range", _instance(), ["contracts", "{path}", "--alpha", "3/2"], 1, "alpha: must lie in [0, 1], got 3/2"),
    ("no-iterations", _instance(), ["solve", "{path}", "--T", "0"], 1, "iterations: "),
    ("stride-zero", _instance(), ["solve", "{path}", "--stride", "0"], 1, "stride: "),
    ("hockey-stick-gamma-negative", _instance(), ["solve", "{path}", "--kind", "hs:-1"], 1, "gamma: "),
    ("weight-boolean", _instance(f={"kind": "linear", "weights": [True, 1]}), None, 1, "f.weights[0]: "),
    ("weight-null", _instance(g={"kind": "linear", "weights": [1, None]}), None, 1, "g.weights[1]: "),
]


@pytest.mark.parametrize("content,argv,code,prefix", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_input_names_its_field(capsys, tmp_path, content, argv, code, prefix):
    path = tmp_path / "inst.json"
    if content is not None:
        path.write_bytes(content)
    got, out, err = run(capsys, *[a.format(path=path) for a in argv or ["decompose", "{path}"]])
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {prefix}")
    assert "Traceback" not in err


# valid instances beyond binary64 range or resolution, and edge endpoints that
# name no element: (id, f, g, extra solve options, exit code, text in the output)
LIN = {"kind": "linear", "weights": [1, 1]}
INPUT_CASES = [
    ("f-beyond-range", {"kind": "linear", "weights": ["1e400", 1]}, LIN, [], 3, "error: f: a value exceeds the binary64 range"),
    ("g-beyond-range", LIN, {"kind": "linear", "weights": [1, "1e400"]}, [], 3, "error: g: a value exceeds the binary64 range"),
    ("f-beyond-range-greedypp", {"kind": "linear", "weights": ["1e400", 1]}, LIN, ["--variant", "greedypp"], 3, "error: f:"),
    ("g-below-resolution", LIN, {"kind": "linear", "weights": [1, "1/100000000000000000000"]}, [], 3,
     "error: g: cost share of element b is 1/100000000000000000000, below binary64 resolution"),
    ("g-below-underflow", LIN, {"kind": "linear", "weights": ["1e-400", 1]}, [], 3, "element a is 1/1" + "0" * 400 + ", below binary64"),
    ("g-underflow-together", LIN, {"kind": "linear", "weights": ["1/1" + "0" * 400, "2/1" + "0" * 400]}, [], 3,
     "error: g: cost share of element a is 1/1" + "0" * 400 + ", below binary64"),
    ("f-below-resolution", {"kind": "linear", "weights": ["1e307", 1]}, LIN, [], 3,
     "error: f: reward share of element b is 1/1, below binary64 resolution"),
    ("f-below-resolution-greedypp", {"kind": "linear", "weights": ["1e307", 1]}, LIN, ["--variant", "greedypp"], 3,
     "error: f: reward share of element b is 1/1, below binary64 resolution"),
    ("density-beyond-range", {"kind": "linear", "weights": ["1e300", "1e290"]}, {"kind": "linear", "weights": ["1e-10", 1]}, [], 3,
     "error: density of element a exceeds the binary64 range"),
    ("objective-beyond-range", {"kind": "linear", "weights": ["1e200", "1e190"]}, {"kind": "linear", "weights": ["1e-100", 1]}, [], 3,
     "error: objective exceeds the binary64 range"),
    ("bound-beyond-range", LIN, {"kind": "linear", "weights": ["1e-120", 1]}, [], 0, '"absolute_density_upper": Infinity'),
    ("bound-beyond-range-kl", LIN, {"kind": "linear", "weights": ["1e-120", 1]}, ["--kind", "kl"], 0, '"multiplicative_density_upper": Infinity'),
    ("bound-beyond-range-eg", LIN, {"kind": "linear", "weights": ["1e-120", 1]}, ["--kind", "eg"], 0, '"absolute_density_upper": Infinity'),
    ("edge-unknown-label", {"kind": "edges_inside", "edges": [["a", "zz", 1]]}, LIN, [], 1, "error: f.edges[0]: unknown element 'zz'"),
    ("edge-float-endpoint", {"kind": "edges_inside", "edges": [[0.0, 1, 1]]}, LIN, [], 1, "error: f.edges[0]: 0.0 is neither"),
    ("edge-index-too-large", LIN, {"kind": "edges_inside", "edges": [[0, 1, 1], [1, 2, 1]]}, [], 1, "error: g.edges[1]: 2 is neither"),
]


@pytest.mark.parametrize("f,g,extra,code,text", [c[1:] for c in INPUT_CASES], ids=[c[0] for c in INPUT_CASES])
def test_input_reaches_its_exit_code(capsys, tmp_path, f, g, extra, code, text):
    path = os.path.join(tmp_path, "inst.json")
    with open(path, "w") as fh:
        json.dump({"labels": ["a", "b"], "f": f, "g": g}, fh)
    got, out, err = run(capsys, "solve", path, "--T", "50", *extra)
    assert got == code
    assert text in (out if code == 0 else err)
    assert "Traceback" not in err


# one instance of every exception class in dualmod.errors, with its exit code:
# 1 for schema and size-cap errors, 2 for structural failures, 3 for the rest
EXIT_CODES = [
    (errors.SchemaError("f.kind", "unknown spec kind"), 1),
    (errors.GroundSetTooLarge(20, 18, "density_decomposition"), 1),
    (errors.StructuralError("not dual-modular"), 2),
    (errors.NotStrictlyMonotone("g", (0, 1)), 2),
    (errors.ZeroTotal("f"), 2),
    (errors.DualModError("unclassified"), 3),
    (errors.ZeroCostCoordinate(0, "a"), 3),
    (errors.DomainError("-log t undefined"), 3),
    (errors.InfiniteDensity(3), 3),
    (errors.EmptyResidual(), 3),
    (errors.DecompositionError("parts do not cover the ground set"), 3),
    (errors.NotLinearCost(), 3),
    (errors.WeightSumMismatch(2), 3),
]


def test_exit_code_table_lists_every_error_class():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.DualModError)
    }
    assert {type(exc) for exc, _ in EXIT_CODES} == classes


@pytest.mark.parametrize("exc,code", EXIT_CODES, ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
def test_error_class_maps_to_exit_code(capsys, monkeypatch, exc, code):
    def raise_it(path):
        raise exc

    monkeypatch.setattr("dualmod.cli.load_instance", raise_it)
    assert run(capsys, "decompose", fixture_path("p3")) == (code, "", f"error: {exc}\n")
