"""End-to-end CLI checks through main() with in-process argv."""

import json
import sys

import pytest

import matcanon.cli
import matcanon.rnf
from matcanon import GF, BasisFailure, Matrix, QQ, rnf_transform
from matcanon.cli import main
from matcanon.fileio import format_matrix, format_pair, matrix_strings

from helpers import rule_transform, unit_krylov


@pytest.fixture
def id2(tmp_path):
    path = tmp_path / "id2.mat"
    path.write_text(format_matrix(Matrix.identity(QQ, 2)))
    return str(path)


@pytest.fixture
def qpair7(tmp_path):
    a = Matrix(GF(7), [[1, 1], [0, 6]])
    b = Matrix(GF(7), [[2, 0], [4, 5]])
    path = tmp_path / "pair.mat"
    path.write_text(format_pair(a, b))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestRnfCommand:
    def test_identity_matrix(self, capsys, id2):
        code, payload = run_json(capsys, "rnf", id2)
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["invariant_factors"] == [["-1", "1"], ["-1", "1"]]
        assert payload["partition"] == [1, 1]
        assert payload["rnf_matrix"] == [["1", "0"], ["0", "1"]]

    def test_verify_flag(self, capsys, id2):
        code, payload = run_json(capsys, "rnf", id2, "--verify")
        assert code == 0 and payload["verified"] is True

    def test_diagonalizes_once(self, capsys, tmp_path, monkeypatch):
        """Only a derogatory matrix is diagonalized, once; a cyclic matrix
        with no cyclic unit vector takes a merged generator, and one whose
        e1 is cyclic has T = [e1, A*e1, A^2*e1]."""
        calls = []
        diagonalize = matcanon.rnf._diagonalize

        def counting(field, d):
            calls.append(field)
            return diagonalize(field, d)

        monkeypatch.setattr(matcanon.rnf, "_diagonalize", counting)
        path = tmp_path / "a.mat"
        for a, diagonalized in ((Matrix(GF(5), [[1, 2, 0], [0, 1, 0], [0, 0, 1]]), [GF(5)]),
                                (Matrix(GF(5), [[1, 2, 0], [0, 1, 0], [0, 0, 4]]), []),
                                (Matrix(GF(5), [[1, 2, 0], [0, 1, 3], [2, 0, 4]]), [])):
            path.write_text(format_matrix(a))
            calls.clear()
            code, payload = run_json(capsys, "rnf", str(path), "--verify")
            assert code == 0 and payload["verified"] is True
            assert calls == diagonalized
            r, t, chain = rule_transform(a)
            assert payload["invariant_factors"] == [f.coefficient_strings() for f in chain]
            assert payload["rnf_matrix"] == matrix_strings(r)
            assert payload["transform"] == matrix_strings(t)
        assert t == unit_krylov(a)
        assert payload["transform"] == [["1", "1", "1"], ["0", "0", "1"], ["0", "2", "0"]]

    def test_text_output(self, capsys, id2):
        code, out = run(capsys, "rnf", id2)
        assert code == 0
        assert out.startswith("status: ok")
        assert "partition: [1, 1]" in out


class TestVerifyCommand:
    def test_ok_and_tampered(self, capsys, tmp_path):
        a = Matrix(GF(5), [[1, 2, 0], [0, 1, 3], [2, 0, 4]])
        from matcanon import rnf_transform
        r, t, _ = rnf_transform(a)
        pa, pr, pt = tmp_path / "a.mat", tmp_path / "r.mat", tmp_path / "t.mat"
        pa.write_text(format_matrix(a))
        pr.write_text(format_matrix(r))
        pt.write_text(format_matrix(t))
        code, payload = run_json(capsys, "verify", str(pa), str(pr), str(pt))
        assert code == 0 and payload["status"] == "ok"

        # tamper with one entry of T
        rows = [[t[i, j] for j in range(3)] for i in range(3)]
        rows[0][0] = rows[0][0] + 1
        tampered = Matrix(GF(5), rows)
        pt.write_text(format_matrix(tampered))
        code, payload = run_json(capsys, "verify", str(pa), str(pr), str(pt))
        assert code == 1 and payload["status"] == "mismatch"

    @pytest.fixture
    def files(self, tmp_path):
        """Write A, R, T to files; any of them may be replaced per test."""
        a = Matrix(GF(5), [[1, 2, 0], [0, 1, 3], [2, 0, 4]])
        r, t = rnf_transform(a)[:2]

        def write(a=a, r=r, t=t):
            paths = []
            for name, m in (("a", a), ("r", r), ("t", t)):
                path = tmp_path / f"{name}.mat"
                path.write_text(format_matrix(m))
                paths.append(str(path))
            return paths
        return write

    @pytest.mark.parametrize("t", [
        Matrix(GF(5), [[1, 2, 0], [2, 4, 0], [0, 0, 1]]),
        Matrix(GF(5), [[1, 0], [0, 1], [0, 0]]),
    ], ids=["singular", "non-square"])
    def test_singular_transform(self, capsys, files, t):
        code, payload = run_json(capsys, "verify", *files(t=t))
        assert code == 1 and payload["status"] == "mismatch"
        assert payload["reason"] == "transform is singular"

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 2)])
    def test_claimed_form_of_other_shape(self, capsys, files, shape):
        r = Matrix(GF(5), [[int(i == j) for j in range(shape[1])] for i in range(shape[0])])
        code, payload = run_json(capsys, "verify", *files(r=r))
        assert code == 1 and payload["status"] == "mismatch"
        assert payload["reason"] == "conjugation does not reproduce the claimed form"

    def test_transform_of_other_size(self, capsys, files):
        t = Matrix.identity(GF(5), 2)
        code, payload = run_json(capsys, "verify", *files(r=t, t=t))
        assert code == 2 and payload["error"] == "DimensionMismatch"


class TestAffineCommands:
    def test_affine_representative(self, capsys, id2):
        code, payload = run_json(capsys, "affine", id2)
        assert code == 0
        assert payload["partition"] == [1, 1]
        assert payload["qs"] == [["-1", "1"]]
        assert payload["matrix"] == [["1", "0"], ["0", "1"]]

    def test_normal_form_families(self, capsys, tmp_path):
        a = Matrix(GF(5), [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        path = tmp_path / "a.mat"
        path.write_text(format_matrix(a))
        code, rational = run_json(capsys, "normal-form", str(path), "--family", "rational")
        assert code == 0 and rational["family"] == "rational"
        code, affine = run_json(capsys, "normal-form", str(path), "--family", "affine")
        assert code == 0 and affine["family"] == "affine"
        assert rational["partition"] == affine["partition"] == [2, 1]


class TestPairsCommands:
    def test_invariants(self, capsys, qpair7):
        code, payload = run_json(capsys, "pairs", "invariants", qpair7)
        assert code == 0
        assert payload["triple"] == ["6", "1", "3"]
        assert payload["g_value"] == "3"
        assert payload["in_y"] is True

    def test_fiber(self, capsys):
        code, payload = run_json(capsys, "pairs", "fiber", "6", "1", "3", "--field", "GF", "7")
        assert code == 0
        assert payload["count"] == 4
        assert payload["fiber"] == [
            {"a11": "1", "b11": "2", "b21": "4"},
            {"a11": "1", "b11": "5", "b21": "5"},
            {"a11": "6", "b11": "2", "b21": "5"},
            {"a11": "6", "b11": "5", "b21": "4"},
        ]

    def test_fiber_requires_field(self, capsys):
        code, payload = run_json(capsys, "pairs", "fiber", "6", "1", "3")
        assert code == 2 and payload["error"] == "ParseError"

    def test_fiber_domain_error(self, capsys):
        code, payload = run_json(capsys, "pairs", "fiber", "0", "1", "1", "--field", "Q")
        assert code == 2 and payload["error"] == "NotInY"

    def test_reduce(self, capsys, qpair7):
        code, payload = run_json(capsys, "pairs", "reduce", qpair7)
        assert code == 0
        assert payload["q_form"] == {"a11": "1", "b11": "2", "b21": "4"}

    def test_reduce_missing_roots(self, capsys, tmp_path):
        # (4, 2, 6) lies in Y over GF(7), but -x1 = 3 has no square root.
        path = tmp_path / "pair.mat"
        path.write_text(format_pair(Matrix(GF(7), [[0, 1], [3, 0]]), Matrix(GF(7), [[1, 0], [2, 6]])))
        code, payload = run_json(capsys, "pairs", "reduce", str(path))
        assert code == 2 and payload["error"] == "RootsMissingInField"
        assert run_json(capsys, "pairs", "fiber", "4", "2", "6", "--field", "GF", "7") == (code, payload)

    def test_hom(self, capsys, tmp_path, qpair7):
        code, payload = run_json(capsys, "pairs", "hom", qpair7, qpair7)
        assert code == 0 and payload["hom_dimension"] == 1

    def test_split(self, capsys, tmp_path):
        from matcanon import QForm, simple_pair
        field = GF(11)
        s = simple_pair(4, field)
        t = QForm(field(1), field(2), field(4)).realize()
        m = s.direct_sum(t)
        path = tmp_path / "m.mat"
        path.write_text(format_pair(m.m1, m.m2))
        code, payload = run_json(capsys, "pairs", "split", str(path))
        assert code == 0
        assert payload["t_invariants"] == ["10", "8", "7"]

    def test_triples_do_not_read_det(self, capsys, tmp_path, qpair7, monkeypatch):
        """The triples of `pairs invariants` and of a split's tail are read
        off the entries, so a Matrix.det with its sign flipped changes
        neither (it gave (1, 1, 4) for (6, 1, 3) when they read det)."""
        from matcanon import QForm, simple_pair
        field = GF(11)
        m = simple_pair(4, field).direct_sum(QForm(field(1), field(2), field(4)).realize())
        path = tmp_path / "m.mat"
        path.write_text(format_pair(m.m1, m.m2))
        argvs = [("pairs", "invariants", qpair7), ("pairs", "split", str(path))]
        want = [run_json(capsys, *argv) for argv in argvs]
        det = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda self: -det(self))
        assert Matrix(GF(7), [[1, 1], [0, 6]]).det() == GF(7)(1)
        assert [run_json(capsys, *argv) for argv in argvs] == want
        assert want[0][1]["triple"] == ["6", "1", "3"] and want[1][1]["t_invariants"] == ["10", "8", "7"]

    @pytest.mark.parametrize("field", [["Q"], ["GF", "101"]])
    def test_spoiled_square_root_is_refused(self, capsys, monkeypatch, field):
        """A fibre point off its triple, here from square roots that are
        twice the true ones, is a BasisFailure (exit 2), not an answer."""
        import matcanon.pairs
        sqrt = matcanon.pairs.sqrt_if_exists
        code, payload = run_json(capsys, "pairs", "fiber", "-4", "3", "-9", "--field", *field)
        assert code == 0 and payload["count"] == 4
        monkeypatch.setattr(matcanon.pairs, "sqrt_if_exists", lambda x: tuple(r * 2 for r in sqrt(x)))
        code, payload = run_json(capsys, "pairs", "fiber", "-4", "3", "-9", "--field", *field)
        assert code == 2 and payload["error"] == "BasisFailure", payload


def _write_q_matrix(path, rows):
    path.write_text(f"field Q\n{len(rows)} {len(rows[0])}\n"
                    + "\n".join(" ".join(row) for row in rows) + "\n")
    return str(path)


class TestDigitLimit:
    """Exact answers longer than CPython's int <-> str limit (4300 digits
    by default) are read and printed, and main leaves the limit as it was."""

    def test_long_answer_is_printed_and_verified(self, capsys, tmp_path):
        big, small = "7" * 3000, "3" * 3000
        a = _write_q_matrix(tmp_path / "a.mat", [[big, small], [small, big]])
        code, payload = run_json(capsys, "rnf", a)
        assert code == 0 and payload["status"] == "ok"
        # The constant coefficient of the characteristic polynomial.
        assert max(len(x) for row in payload["rnf_matrix"] for x in row) > 4300
        r = _write_q_matrix(tmp_path / "r.mat", payload["rnf_matrix"])
        t = _write_q_matrix(tmp_path / "t.mat", payload["transform"])
        code, verdict = run_json(capsys, "verify", a, r, t)
        assert code == 0 and verdict["status"] == "ok"
        code, payload = run_json(capsys, "affine", a)
        assert code == 0 and payload["status"] == "ok"

    def test_long_entry_is_parsed(self, capsys, tmp_path):
        a = _write_q_matrix(tmp_path / "a.mat", [["9" * 5000]])
        t = _write_q_matrix(tmp_path / "t.mat", [["1"]])
        code, payload = run_json(capsys, "verify", a, a, t)
        assert code == 0 and payload["status"] == "ok"

    @pytest.mark.parametrize("digits", [1000, 5000])
    def test_long_1x1_entry(self, capsys, tmp_path, digits):
        """[[10^d - 1]] over Q is its own chain X - (10^d - 1): its lift needs
        nearly all the bits that the prime guard of the rnf lift allows."""
        entry = "9" * digits
        a = _write_q_matrix(tmp_path / "a.mat", [[entry]])
        for argv, name in [(["rnf"], "invariant_factors"),
                           (["normal-form", "--family", "rational"], "invariant_factors"), (["affine"], "qs")]:
            code, payload = run_json(capsys, *argv, a)
            assert code == 0 and payload[name] == [["-" + entry, "1"]], argv

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int <-> str digit limit")
    def test_limit_is_restored(self, capsys, id2):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert run(capsys, "rnf", id2)[0] == 0
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(SystemExit):
                main(["rnf"])  # a usage error
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(saved)


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, payload = run_json(capsys, "selftest")
        assert code == 0
        assert payload["status"] == "ok"
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "generalized-companion-5x5",
            "affine-family-12x12",
            "bijection-round-trip",
            "fiber-census-gf7",
        ]
        assert all(c["status"] == "ok" for c in payload["checks"])


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, payload = run_json(capsys, "rnf", "no-such-file.mat")
        assert code == 2 and payload["error"] == "IOError"

    def test_field_override_mismatch(self, capsys, id2):
        code, payload = run_json(capsys, "rnf", id2, "--field", "GF", "5")
        assert code == 2 and payload["error"] == "FieldMismatch"

    def test_field_mismatch_messages(self, capsys, tmp_path, id2):
        code, payload = run_json(capsys, "rnf", id2, "--field", "GF", "5")
        assert (code, payload["message"]) == (2, "block declares Q but GF(5) is required")
        path = tmp_path / "pair.mat"
        path.write_text("field GF 3\n1 1\n1\nfield GF 5\n1 1\n1\n")
        code, payload = run_json(capsys, "pairs", "invariants", str(path))
        assert code == 2 and payload["error"] == "FieldMismatch"
        assert payload["message"] == "block declares GF(5) but GF(3) is required"

    def test_parse_error_named(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("field Q\n2 2\n1 2 3\n")
        code, payload = run_json(capsys, "rnf", str(path))
        assert code == 2 and payload["error"] == "ParseError"

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path, id2, qpair7):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"field Q\n1 1\n\xff\n")
        bad = str(path)
        for argv in (("rnf", bad), ("verify", bad, id2, id2), ("verify", id2, id2, bad),
                     ("pairs", "hom", bad, qpair7), ("pairs", "hom", qpair7, bad)):
            code, payload = run_json(capsys, *argv)
            assert (code, payload["error"]) == (2, "ParseError"), argv
            assert bad in payload["message"]

    @pytest.mark.parametrize("text", [
        "field GF 1_0007\n1 1\n1\n",
        "field Q\n1 1\n\u0663\n",
        "field Q\n1_0 1\n" + "1 " * 10,
    ])
    def test_integer_literal_refused(self, capsys, tmp_path, text):
        path = tmp_path / "bad.mat"
        path.write_text(text, encoding="utf-8")
        code, payload = run_json(capsys, "rnf", str(path))
        assert code == 2 and payload["error"] == "ParseError"

    def test_integer_literal_refused_in_options(self, capsys, id2):
        code, payload = run_json(capsys, "rnf", id2, "--field", "GF", "1_3")
        assert code == 2 and payload["error"] == "ParseError"
        code, payload = run_json(capsys, "pairs", "fiber", "1_0", "1", "1", "--field", "GF", "7")
        assert code == 2 and payload["error"] == "ParseError"

    def test_json_byte_determinism(self, capsys, id2):
        _, first = run(capsys, "rnf", id2, "--format", "json")
        _, second = run(capsys, "rnf", id2, "--format", "json")
        assert first == second

    def test_composite_modulus_refused(self, capsys, id2):
        code, payload = run_json(capsys, "rnf", id2, "--field", "GF", "318665857834031151167461")
        assert code == 2 and payload["error"] == "ParseError"

    def test_internal_error_exit_three(self, capsys, id2, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(matcanon.cli, "_cmd_rnf", broken)
        code = main(["rnf", id2, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {
            "status": "internal", "error": "RuntimeError", "message": "boom"}
        assert "RuntimeError: boom" in captured.err

    def test_basis_failure_exit_two(self, capsys, id2, monkeypatch):
        def broken(args):
            raise BasisFailure("no basis")

        monkeypatch.setattr(matcanon.cli, "_cmd_rnf", broken)
        code, payload = run_json(capsys, "rnf", id2)
        assert code == 2 and payload["error"] == "BasisFailure"

    def test_usage_error_exit_two(self, id2):
        with pytest.raises(SystemExit) as exc:
            main(["rnf"])  # missing path
        assert exc.value.code == 2
