import json
import os

import pytest

import dualmod as dm
from dualmod.cli import main

from conftest import fixture_path


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


@pytest.mark.filterwarnings("ignore:f_min = 0")
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

    def test_env_brute_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALMOD_BRUTE_LIMIT", "2")
        code, _, err = run(capsys, "decompose", fixture_path("p3"))
        assert code == 1
        assert "n <= 2" in err

    @pytest.mark.parametrize("value", ["abc", "1.5", "-3"])
    def test_env_brute_limit_malformed(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DUALMOD_BRUTE_LIMIT", value)
        code, _, err = run(capsys, "decompose", fixture_path("p3"))
        assert code == 1
        assert "DUALMOD_BRUTE_LIMIT" in err

    @pytest.mark.parametrize("kind", ["hs:abc", "hs:1/0", "hs:"])
    def test_malformed_hockey_stick_kind(self, capsys, kind):
        code, _, err = run(capsys, "divergence", "--x", "1/2,1/2", "--y", "1/4,3/4", "--kind", kind)
        assert code == 1
        assert "kind" in err
