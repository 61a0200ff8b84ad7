import io
import json
import sys
import time

import pytest

from spectra_dr.bicomplex import DoubleComplex
from spectra_dr.cli import main
from spectra_dr.models import torus_model
from spectra_dr.report import Report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def torus1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(torus_model(1).complex.to_json()))
    return str(path)


def test_cohomology_double_complex_takes_total(capsys, torus1_file):
    code, out, _ = run(capsys, "cohomology", torus1_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"betti": {"0": 1, "1": 2, "2": 1}, "euler": 0}


def test_cohomology_stdin(capsys, monkeypatch):
    payload = json.dumps(torus_model(1).complex.to_json())
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "cohomology", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["euler"] == 0


def test_cohomology_cochain_input(capsys, tmp_path):
    cochain = {
        "dims": {"0": 1, "1": 1},
        "diffs": {"0": {"rows": 1, "cols": 1, "entries": [["1"]]}},
    }
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps(cochain))
    code, out, _ = run(capsys, "cohomology", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == {"0": 0, "1": 0}


def test_spectral_frozen_page(capsys, torus1_file):
    code, out, _ = run(capsys, "spectral", torus1_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["stable_at"] == 1
    assert data["pages"][0]["terms"] == {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1}
    assert data["limit"] == {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1}


@pytest.mark.parametrize("pages", ["0", "-3"])
def test_spectral_page_count_refused_before_any_page(capsys, monkeypatch, torus1_file, pages):
    calls = []
    monkeypatch.setattr("spectra_dr.cli.stabilization_index", lambda k: calls.append(k))
    code, out, err = run(capsys, "spectral", torus1_file, "--pages", pages)
    assert code == 2 and out == ""
    assert err == f"error: page count must be >= 1, got {pages}\n"
    assert calls == []


def test_spectral_rejects_cochain(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"dims": {"0": 1}, "d": {}}))
    code, _, err = run(capsys, "spectral", str(path))
    assert code == 2
    assert "double complex" in err


def test_truncate_summary(capsys, torus1_file):
    code, out, _ = run(capsys, "truncate", torus1_file, "--window", "0,0",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"0,0": 1, "0,1": 1}
    assert data["hyper"] == {"0": 1, "1": 1}


def test_truncate_emit_round_trips(capsys, torus1_file):
    code, out, _ = run(capsys, "truncate", torus1_file, "--window", "0,0",
                       "--emit")
    assert code == 0
    cut = DoubleComplex.from_json(json.loads(out))
    assert cut.dims() == {(0, 0): 1, (0, 1): 1}


def test_hodge_text(capsys, torus1_file):
    code, out, _ = run(capsys, "hodge", torus1_file, "--degree", "1")
    assert code == 0
    assert "filtration: 2 1 0" in out


@pytest.mark.parametrize("top", ["-1", "-3"])
def test_hodge_negative_top_refused(capsys, torus1_file, top):
    # a window (0, top) with top < 0 would print an empty filtration
    code, out, err = run(capsys, "hodge", torus1_file, "--degree", "1", "--top", top)
    assert (code, out) == (2, "")
    assert err == f"error: --top must be >= 0, got {top}\n"
    code, out, _ = run(capsys, "hodge", torus1_file, "--degree", "1", "--top", "0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["filtration"] == [1, 0]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cochain", "--runs", "5")
    assert code == 0
    assert "cochain:" in out and "[ok]" in out


@pytest.mark.parametrize("runs", ["0", "-4"])
def test_verify_run_count_refused_before_any_suite(capsys, monkeypatch, runs):
    # zero runs would print "ok": true over no checks at all
    calls = []
    monkeypatch.setattr("spectra_dr.cli.run_suite", lambda *a, **kw: calls.append(a))
    code, out, err = run(capsys, "verify", "--suite", "spectral", "--runs", runs,
                         "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: --runs must be >= 1, got {runs}\n"
    assert calls == []


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def broken(name, seed=None, runs=None):
        rep = Report(name)
        rep.add("always_wrong", 0, 1, 2)
        return rep

    monkeypatch.setattr("spectra_dr.cli.run_suite", broken)
    code, out, _ = run(capsys, "verify", "--suite", "cochain")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cochain", "--runs", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "suite,check,degree,lhs,rhs,pass"


def test_predict_kunneth_frozen(capsys):
    code, out, _ = run(capsys, "predict", "kunneth", "--x", "torus:1",
                       "--y", "lie:iwasawa", "--window", "0,2",
                       "--degree", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 6


def test_predict_projective(capsys):
    code, out, _ = run(capsys, "predict", "projective", "--x", "torus:2",
                       "--window", "0,2", "--degree", "2", "--rank", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 7


def test_predict_missing_y(capsys):
    code, _, err = run(capsys, "predict", "kunneth", "--x", "torus:1",
                       "--window", "0,1", "--degree", "1")
    assert code == 2
    assert "--y" in err


def test_predict_bad_descriptor(capsys):
    code, _, err = run(capsys, "predict", "projective", "--x", "klein:2",
                       "--window", "0,1", "--degree", "1")
    assert code == 2
    assert "descriptor" in err


def test_bad_window_string(capsys, torus1_file):
    code, _, err = run(capsys, "truncate", torus1_file, "--window", "a,b")
    assert code == 2
    assert "window" in err


def test_bad_json_reports_position(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "cohomology", "/nonexistent/x.json")
    assert code == 2
    assert "cannot read" in err


def test_model_info_json(capsys):
    code, out, _ = run(capsys, "model", "torus", "--n", "1", "--info",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 1, "twist_rank": 1,
        "dims": {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1},
    }


def test_model_oversized_input_refused_by_name(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "model", "torus", "--n", "8", "--info")
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert err == "error: torus n=8: piece (4,4) has dim 4900 > SPECTRA_DR_MAX_DIM=4096\n"
    assert elapsed < 0.1
    spec = tmp_path / "n8.json"
    spec.write_text(json.dumps({"n": 8, "d": {"3": [{"wedge": [1, 2], "coeff": "-1"}]}}))
    code, out, err = run(capsys, "model", "lie", "--spec", str(spec), "--info")
    assert code == 2 and out == ""
    assert "lie n=8: piece (4,4) has dim 4900 > SPECTRA_DR_MAX_DIM=4096" in err


def test_oversized_total_degree_refused_by_name(capsys, monkeypatch, tmp_path):
    from spectra_dr.linalg import RatMatrix

    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    code, out, _ = run(capsys, "model", "torus", "--n", "7", "--twist-rank", "3")
    assert code == 0
    path = tmp_path / "t7.json"
    path.write_text(out)
    assembled = []
    real = RatMatrix.from_blocks

    def spy(rows, cols, blocks):
        assembled.append((rows, cols))
        return real(rows, cols, blocks)

    monkeypatch.setattr(RatMatrix, "from_blocks", staticmethod(spy))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2 and out == ""
    assert err == "error: total degree 5 has dim 6006 > SPECTRA_DR_MAX_DIM=4096\n"
    assert assembled == []


def test_oversized_degree_refused_by_name(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": {"0": 5000}, "diffs": {}}))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2 and out == ""
    assert err == "error: degree 0 has dim 5000 > SPECTRA_DR_MAX_DIM=4096\n"


def test_model_emits_parseable_complex(capsys):
    from spectra_dr.models import iwasawa_spec, lie_model

    code, out, _ = run(capsys, "model", "lie", "--builtin", "iwasawa")
    assert code == 0
    # round-trip is by value, not just shape
    assert DoubleComplex.from_json(json.loads(out)) == lie_model(iwasawa_spec()).complex


def test_verify_json_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "bicomplex", "--seed", "7",
                     "--runs", "8", "--format", "json")
    _, out2, _ = run(capsys, "verify", "--suite", "bicomplex", "--seed", "7",
                     "--runs", "8", "--format", "json")
    assert out1 == out2


def test_truncate_full_window_betti(capsys, tmp_path):
    from spectra_dr.models import iwasawa_spec, lie_model

    path = tmp_path / "iw.json"
    path.write_text(json.dumps(lie_model(iwasawa_spec()).complex.to_json()))
    code, out, _ = run(capsys, "truncate", str(path), "--window", "0,3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["hyper"]["1"] == 4


def test_predict_blowup_frozen(capsys):
    code, out, _ = run(capsys, "predict", "blowup", "--x", "torus:2",
                       "--y", "point", "--window", "0,2", "--degree", "2",
                       "--codim", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 7


def test_model_spec_file_with_twist_override(capsys, tmp_path):
    spec = {"n": 2, "d": {"2": [{"wedge": [1, -1], "coeff": "1"}]}}
    path = tmp_path / "kt.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "model", "lie", "--spec", str(path),
                       "--twist-rank", "2", "--info", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["twist_rank"] == 2
    assert data["dims"]["1,1"] == 8

    code, _, err = run(capsys, "model", "lie")
    assert code == 2
    assert "--builtin or --spec" in err


def test_model_product_matches_torus(capsys):
    code, out, _ = run(capsys, "model", "product", "--left", "torus:1",
                       "--right", "torus:1", "--info", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == {
        f"{p},{q}": torus_model(2).dim(p, q)
        for p in range(3) for q in range(3)
    }


def test_model_product_takes_its_twist_from_the_descriptors(capsys):
    # --twist-rank was accepted and ignored on product; argparse now refuses it
    with pytest.raises(SystemExit) as exc:
        main(["model", "product", "--left", "torus:1", "--right", "torus:1",
              "--twist-rank", "3", "--info"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --twist-rank 3" in err
    code, out, _ = run(capsys, "model", "product", "--left", "torus:1",
                       "--right", "torus:1:3", "--info", "--format", "json")
    assert code == 0
    assert json.loads(out)["twist_rank"] == 3


def test_twisted_descriptor(capsys):
    # torus:1:3 = rank-3 twist: triple the untwisted prediction (= 4)
    code, out, _ = run(capsys, "predict", "kunneth", "--x", "torus:1:3",
                       "--y", "torus:1", "--window", "0,2", "--degree", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 12


def test_point_descriptor(capsys):
    code, out, _ = run(capsys, "predict", "kunneth", "--x", "point",
                       "--y", "lie:iwasawa", "--window", "0,3", "--degree", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 8


def test_model_info_under_a_cap_the_pieces_fit(capsys, monkeypatch):
    # validation pairs two 27x27 pieces; the cap only has to hold each
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "40")
    code, out, err = run(capsys, "model", "lie", "--builtin", "iwasawa",
                         "--twist-rank", "3", "--info", "--format", "json")
    assert (code, err) == (0, "")
    assert max(json.loads(out)["dims"].values()) == 27
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "26")
    code, out, err = run(capsys, "model", "lie", "--builtin", "iwasawa",
                         "--twist-rank", "3", "--info")
    assert code == 2 and out == ""
    assert err == ("error: lie n=3 twist_rank=3: piece (1,1) has dim 27"
                   " > SPECTRA_DR_MAX_DIM=26\n")


def test_spectral_under_a_cap_the_pieces_fit(capsys, monkeypatch, tmp_path):
    # the boundaries of E_r^{1,-1} come in two parts, 4 + 2 columns together
    path = tmp_path / "dots.json"
    path.write_text(json.dumps({"dims": {"0,0": 2, "0,1": 2, "1,0": 2, "1,-1": 2}}))
    code, want, _ = run(capsys, "spectral", str(path), "--format", "json")
    assert code == 0
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4")
    from spectra_dr.spectral import clear_page_cache

    clear_page_cache()
    code, out, err = run(capsys, "spectral", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert out == want
    assert json.loads(out)["limit"] == {"0,0": 2, "0,1": 2, "1,-1": 2, "1,0": 2}
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "1")
    code, out, err = run(capsys, "spectral", str(path))
    assert code == 2 and out == ""
    assert err == "error: piece (0,0) has dim 2 > SPECTRA_DR_MAX_DIM=1\n"


IW_TERM = {"wedge": [1, 2], "coeff": "-1"}


@pytest.mark.parametrize("command,payload,message", [
    (["cohomology", "-", "--format", "json"], {"dims": {"0,0": True, "1,0": 1}},
     "bad dimension at (0,0): True"),
    (["cohomology", "-", "--format", "json"],
     {"dims": {"0": 1, "1": 1}, "diffs": {"0": {"rows": True, "cols": True, "entries": [["3"]]}}},
     "matrix rows/cols must be integers"),
    (["truncate", "-", "--window", "0,1"],
     {"dims": {"0,0": 1, "1,0": 1}, "d1": {"0,0": {"rows": 1, "cols": True, "entries": [["3"]]}}},
     "matrix rows/cols must be integers"),
])
def test_json_booleans_are_refused(capsys, monkeypatch, command, payload, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, *command)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec,message", [
    ({"n": 3.9, "twist_rank": 1, "d": {"3": [IW_TERM]}},
     "model spec field 'n' must be an integer, got 3.9"),
    ({"n": 3, "twist_rank": True, "d": {"3": [IW_TERM]}},
     "model spec field 'twist_rank' must be an integer, got True"),
    ({"n": 3, "d": {"3": [{"wedge": [1.7, 2], "coeff": "-1"}]}},
     "wedge of d(3) must list integer generators, got [1.7, 2]"),
])
def test_spec_floats_and_booleans_are_refused(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for argv in (["model", "lie", "--spec", str(path)],
                 ["predict", "projective", "--x", f"lie:{path}", "--window", "0,1",
                  "--degree", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
