import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cstarreg import cli, gallery, harness, serialize
from cstarreg.cli import main
from cstarreg.errors import InputParse
from cstarreg.gridalg import GridElement, decide_extension, disk_domain, interval_domain
from cstarreg.opcore import op_norm

from conftest import random_complex, random_projection


class TestSerialize:
    def test_matrix_round_trip_is_exact(self, rng):
        a = random_complex(rng, 4, 3)
        d = serialize.matrix_to_dict(a)
        back = serialize.matrix_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(back, a)

    def test_grid_element_round_trip(self):
        ge = gallery.gallery("rankdrop", 32)
        d = serialize.grid_element_to_dict(ge)
        back = serialize.grid_element_from_dict(json.loads(json.dumps(d)))
        assert back.domain == ge.domain
        assert np.array_equal(back.values, ge.values)

    def test_bad_matrix_shape(self):
        with pytest.raises(InputParse):
            serialize.matrix_from_dict({"rows": 2, "cols": 2,
                                        "re": [[1.0]], "im": [[0.0]]})

    def test_missing_keys(self):
        with pytest.raises(InputParse):
            serialize.matrix_from_dict({"rows": 1})

    def test_csv_lines(self):
        rows = [{"delta": 0.5, "cond2": True, "cond3": True,
                 "cond4": False, "residual": 1e-9}]
        lines = serialize.sweep_csv_lines(rows)
        assert lines[0] == "delta,cond2,cond3,cond4,residual"
        assert lines[1] == "0.5,1,1,0,1e-09"
        rows[0].update(cond2=False, cond3=False, residual=None)
        assert serialize.sweep_csv_lines(rows)[1] == "0.5,0,0,0,"


class TestGalleryConstruction:
    def test_osc_modulus_is_exact(self):
        ge = gallery.gallery("osc", 128)
        t = np.linspace(0.0, 1.0, 128)
        assert np.max(np.abs(np.abs(ge.values[:, 0, 0]) - t)) <= 1e-15

    def test_disk_z_values(self):
        ge = gallery.gallery("disk-z", 32)
        radii, angles = ge.domain.coordinates()
        z00 = radii[0] * np.exp(1j * angles[0])
        assert ge.values[0, 0, 0] == pytest.approx(z00)

    def test_unknown_name_raises(self):
        from cstarreg.errors import UnknownGalleryName
        with pytest.raises(UnknownGalleryName):
            gallery.gallery("nope", 64)


def _write_matrix(path, a):
    serialize.dump_json(serialize.matrix_to_dict(a), path)


class TestCliCommands:
    def test_mp_on_projection(self, tmp_path, capsys, rng):
        p = random_projection(rng, 4, 2)
        f = tmp_path / "p.json"
        _write_matrix(f, p)
        assert main(["mp", "--input", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        mp = serialize.matrix_from_dict(out["mp_inverse"])
        assert out["penrose_ok"] is True
        assert op_norm(mp - p) <= 1e-10

    def test_polar_reconstruction(self, tmp_path, capsys, rng):
        a = random_complex(rng, 3)
        f = tmp_path / "a.json"
        _write_matrix(f, a)
        assert main(["polar", "--input", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reconstruction_residual"] <= 1e-10 * (1 + op_norm(a))

    def test_cutdown_requires_delta(self, tmp_path, capsys, rng):
        f = tmp_path / "a.json"
        _write_matrix(f, random_complex(rng, 3))
        assert main(["cutdown", "--input", str(f)]) == 1

    def test_cutdown_contraction(self, tmp_path, capsys, rng):
        f = tmp_path / "a.json"
        _write_matrix(f, random_complex(rng, 3))
        assert main(["cutdown", "--input", str(f), "--delta", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["contraction"] <= 0.3 + 1e-9

    def test_dist_disk_z(self, capsys):
        assert main(["dist", "--input", "disk-z", "--gridN", "64",
                     "--tol", "0.02"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.9 <= out["cond1"]["lower"] <= out["cond1"]["upper"] <= 1.1

    def test_lemma3_reproducible(self, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["lemma3", "--seed", "7", "--n", "6", "--delta", "0.5"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        rep = json.loads(f1.read_text())
        assert rep["max_residual"] <= 1e-7

    def test_lemma3_short_circuit(self, capsys):
        """x = a + 5e-301 y rounds to a exactly, so c := x and only the three
        final checks are reported."""
        assert main(["lemma3", "--n", "8", "--seed", "0", "--delta", "1e-300"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["short_circuit"] is True
        assert set(rep["checks"]) == {"partial_isometry", "final_we_delta", "final_f_delta_w"}

    def test_lemma3_huge_delta(self, capsys):
        """gamma = 7.5e299 overflowed Python's float power in proof_g
        (OverflowError); gamma^2 is inf now, where t/gamma^2 rounds to 0."""
        assert main(["lemma3", "--n", "4", "--delta", "1e300"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["checks"] and all(0.0 <= v <= 1e-7 for v in rep["checks"].values())

    def test_parses_leave_no_state(self, capsys):
        """main builds no parser of its own: two in-process calls, with and
        then without --deltas, print what each prints alone in a new
        process."""
        runs = (["theorem", "--input", "linear", "--gridN", "32", "--deltas", "0.3,0.6"],
                ["theorem", "--input", "linear", "--gridN", "32"])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        alone = [subprocess.run([sys.executable, "-m", "cstarreg.cli", *argv], env=env,
                                capture_output=True, text=True) for argv in runs]
        for argv, proc in zip(runs, alone):
            assert main(argv) == proc.returncode
            assert capsys.readouterr().out == proc.stdout
        assert alone[0].stdout != alone[1].stdout

    def test_lemma3_seed_changes_output(self, tmp_path):
        f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["lemma3", "--seed", "1", "--out", str(f1)]) == 0
        assert main(["lemma3", "--seed", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() != f2.read_bytes()

    def test_theorem_consistent_exits_zero(self, capsys):
        assert main(["theorem", "--input", "linear", "--gridN", "64",
                     "--deltas", "0.2,0.5", "--tol", "0.05"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "consistent"
        assert len(out["sweep"]) == 2

    def test_theorem_csv_format(self, capsys):
        assert main(["theorem", "--input", "linear", "--gridN", "64",
                     "--deltas", "0.2,0.5", "--tol", "0.05",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta,cond2,cond3,cond4,residual"
        assert len(lines) == 3

    def test_theorem_csv_flags_and_residual_bound(self, capsys):
        argv = ["theorem", "--input", "osc", "--gridN", "128", "--tol", "0.01"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta,cond2,cond3,cond4,residual"
        rows = [line.split(",") for line in lines[1:]]
        for k, key in enumerate(("cond2", "cond3", "cond4"), start=1):
            assert [r[k] for r in rows] == [str(int(c)) for c in rep[key]]
        # the condition-(3) bound, its rounding term included
        assert all(0.0 < float(r[4]) < 1e-12 for r in rows)

    DISK_Z_ARGV = ["theorem", "--input", "disk-z", "--gridN", "64", "--gamma", "0.3",
                   "--deltas", "0.5,0.95"]

    def test_theorem_residual_null_without_decision(self, capsys):
        """No extension decision succeeds on disk-z at these levels, so no
        residual was computed: JSON null and an empty CSV field, not 0.0."""
        assert main(self.DISK_Z_ARGV) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["cond3"] == [False, False]
        assert [r["residual"] for r in rep["sweep"]] == [None, None]
        assert main(self.DISK_Z_ARGV + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip("\n").splitlines()
        assert lines[1:] == ["0.5,0,0,0,", "0.95,0,0,0,"]

    def test_theorem_residual_is_the_failing_bound(self, capsys, monkeypatch):
        """With RAMP_TOL = 0 every witness fails condition (3); the sweep
        reports the bound that failed, the same in JSON and CSV."""
        monkeypatch.setattr(harness, "RAMP_TOL", 0.0)
        argv = ["theorem", "--input", "osc", "--gridN", "128", "--tol", "0.01"]
        assert main(argv) == 2
        rep = json.loads(capsys.readouterr().out)
        ge = gallery.gallery("osc", 128)
        assert rep["cond2"] == [True] * 4 and rep["cond3"] == [False] * 4
        for row in rep["sweep"]:
            c3 = harness.check_condition3(ge, row["delta"], decide_extension(ge, row["delta"]))
            assert row["residual"] == c3.detail["ramp_residual"] > 0.0
        assert main(argv + ["--format", "csv"]) == 2
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [float(r[4]) for r in rows] == [r["residual"] for r in rep["sweep"]]

    def test_unknown_gallery_exits_one(self, capsys):
        assert main(["dist", "--input", "not-a-thing"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
    def test_infinite_matrix_entry_exits_one_without_warning(self, tmp_path, capsys,
                                                             part, value):
        """An infinite real or imaginary part is an input error with its own
        reason, and no numpy warning reaches stderr before it."""
        parts = {"re": "[[1.0]]", "im": "[[0.0]]"}
        parts[part] = f"[[{value}]]"
        f = tmp_path / "inf.json"
        f.write_text(f'{{"rows": 1, "cols": 1, "re": {parts["re"]}, "im": {parts["im"]}}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["mp", "--input", str(f)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == "error: matrix entries must be finite\n"

    def test_bad_input_file_exits_one(self, tmp_path, capsys):
        f = tmp_path / "garbage.json"
        f.write_text("{not json")
        assert main(["mp", "--input", str(f)]) == 1

    def test_bad_grid_n(self, capsys):
        assert main(["dist", "--input", "osc", "--gridN", "4"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_bad_tol(self, capsys, tol):
        assert main(["dist", "--input", "disk-z", "--gridN", "32", "--tol", tol]) == 1
        assert "--tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["theorem", "--deltas", "0.2,nan"], ["theorem", "--deltas", "0.2,inf"],
        ["theorem", "--gamma", "nan"], ["theorem", "--gamma=-inf"],
        ["cutdown", "--delta", "nan"], ["lemma3", "--delta", "inf"]])
    def test_bad_levels(self, capsys, flags):
        assert main([*flags, "--input", "osc", "--gridN", "32"]) == 1
        assert "--delta, --deltas and --gamma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("deltas", [",", ""])
    def test_empty_deltas(self, capsys, deltas):
        """A --deltas with no level is an input error, not the default sweep."""
        assert main(["theorem", "--input", "linear", "--gridN", "32", "--deltas", deltas]) == 1
        assert capsys.readouterr().err == "error: --deltas lists no cut level\n"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_bad_n(self, capsys, n):
        assert main(["lemma3", "--n", n]) == 1
        assert "--n must be at least 1" in capsys.readouterr().err

    def test_grid_input_from_file(self, tmp_path, capsys):
        ge = GridElement(domain=interval_domain(32),
                         values=np.full((32, 1, 1), 0.7 + 0j))
        f = tmp_path / "ge.json"
        serialize.dump_json(serialize.grid_element_to_dict(ge), f)
        assert main(["dist", "--input", str(f), "--tol", "0.05"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cond1"]["lower"] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["linear", "rankdrop"])
    @pytest.mark.parametrize("command", [["dist"], ["theorem", "--deltas", "0.5"]])
    def test_nonfinite_grid_file_exits_one(self, tmp_path, capsys, bad, name, command):
        """A NaN or inf in a grid file (d = 1 or d = 2) is an input error
        with its own reason, before any decision runs."""
        d = serialize.grid_element_to_dict(gallery.gallery(name, 32))
        d["points"][5]["re"][0][0] = bad
        f = tmp_path / "bad.json"
        serialize.dump_json(d, f)
        assert main([*command, "--input", str(f), "--tol", "0.05"]) == 1
        assert capsys.readouterr().err == "error: grid values must be finite\n"

    @pytest.mark.parametrize("top", [[1, 2], "x", 3])
    def test_grid_file_not_an_object_exits_one(self, tmp_path, capsys, top):
        """A grid file whose top-level JSON value is not an object is an
        input error line, not a traceback."""
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(top))
        assert main(["dist", "--input", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: bad grid element JSON: ")

    @pytest.mark.parametrize("shape", [[2, 2], [1, 2]])
    def test_grid_file_shape_mismatch_exits_one(self, tmp_path, capsys, shape):
        """A declared shape is checked against every point: [2, 2] over 1 x 1
        points loaded as a scalar element."""
        d = serialize.grid_element_to_dict(gallery.gallery("linear", 32))
        d["shape"] = shape
        f = tmp_path / "bad.json"
        serialize.dump_json(d, f)
        assert main(["dist", "--input", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: bad grid element JSON: ")

    def test_grid_file_mixed_point_sizes_exits_one(self, tmp_path, capsys):
        """Points of two sizes are an input error, not numpy's stacking message."""
        d = serialize.grid_element_to_dict(gallery.gallery("rankdrop", 32))
        d["points"][3] = serialize.matrix_to_dict(np.eye(3))
        f = tmp_path / "bad.json"
        serialize.dump_json(d, f)
        assert main(["theorem", "--input", str(f), "--deltas", "0.5"]) == 1
        assert capsys.readouterr().err == ("error: bad grid element JSON: point 3 has shape "
                                           "[3, 3], not [2, 2]\n")

    @pytest.mark.parametrize("count", [1, 0])
    def test_grid_file_point_count_exits_one(self, tmp_path, capsys, count):
        """One point or none over 32 nodes: the count is checked against the
        domain, where it ended in "bad grid value shape (1, 1, 1)" and in
        numpy's "need at least one array to stack"."""
        d = serialize.grid_element_to_dict(gallery.gallery("linear", 32))
        d["points"] = d["points"][:count]
        f = tmp_path / "bad.json"
        serialize.dump_json(d, f)
        assert main(["dist", "--input", str(f)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad grid element JSON: need 32 points, got {count}\n"

    def test_disk_file_round_trip(self, tmp_path, capsys):
        """disk-z written to a file and read back is the gallery element:
        `dist` on the file prints the bracket of `--input disk-z`."""
        ge = gallery.gallery("disk-z", 32)
        f = tmp_path / "disk.json"
        serialize.dump_json(serialize.grid_element_to_dict(ge), f)
        back = serialize.grid_element_from_dict(json.loads(f.read_text()))
        assert back.domain == ge.domain and np.array_equal(back.values, ge.values)
        assert main(["dist", "--input", "disk-z", "--gridN", "32", "--tol", "0.02"]) == 0
        expected = json.loads(capsys.readouterr().out)["cond1"]
        assert main(["dist", "--input", str(f), "--tol", "0.02"]) == 0
        assert json.loads(capsys.readouterr().out)["cond1"] == expected

    @pytest.mark.parametrize("command", [["dist"], ["theorem", "--deltas", "0.5"]])
    def test_matrix_disk_file_exits_one(self, tmp_path, capsys, command):
        """The disk procedure is scalar only: a 2 x 2 disk file is an input
        error with its reason."""
        dom = disk_domain(16, 64)
        values = np.tile(np.diag([1.0, 0.5]).astype(complex), (dom.size, 1, 1))
        f = tmp_path / "disk2.json"
        serialize.dump_json(serialize.grid_element_to_dict(GridElement(dom, values)), f)
        assert main([*command, "--input", str(f), "--tol", "0.05"]) == 1
        assert capsys.readouterr().err == (
            "error: polar_extension_2d_scalar needs a scalar disk element\n")

    def test_suite_is_consistent(self, capsys):
        assert main(["suite", "--gridN", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert sorted(out["suite"]) == ["const-unitary", "disk-z", "linear", "osc", "rankdrop"]

    def test_bad_deltas_exits_one(self, capsys):
        assert main(["theorem", "--input", "linear", "--gridN", "32", "--deltas", "0.5,abc"]) == 1
        assert capsys.readouterr().err.startswith("error: bad --deltas: ")

    def test_negative_cut_level_exits_one(self, capsys):
        """The grid side refuses a negative level as opcore.cutdown does; it
        used to report (2)-(4) true at delta = -0.5 and exit 0."""
        assert main(["theorem", "--input", "linear", "--gridN", "32", "--gamma", "-1",
                     "--deltas=-0.5,0.5"]) == 1
        assert capsys.readouterr().err == "error: cut level must be nonnegative, got -0.5\n"
