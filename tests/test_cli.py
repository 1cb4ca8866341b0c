"""CLI contract: exit codes, formats, determinism, round-trips."""

import inspect
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pettylab import (BodyFileError, GeneratorSet, GeometryError, bodies, convex_hull,
                      fixtures, invariants, load_body, save_body)
from pettylab.cli import build_parser, main
from pettylab.report import Row, fmt, render_json


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pettylab", *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bodies")
    for name in ("cube", "cube-zonotope", "octahedron", "tetrahedron", "ball",
                 "double-cone", "icosphere1"):
        save_body(fixtures.FIXTURES[name](), d / f"{name}.json")
    return d


class TestBodyFiles:
    def test_roundtrip_volume(self, tmp_path, rng):
        P = fixtures.random_symmetric_polytope(rng, 7)
        save_body(P, tmp_path / "b.json")
        Q = load_body(tmp_path / "b.json")
        assert Q.volume == pytest.approx(P.volume, rel=1e-12)
        assert Q.symmetric

    def test_zonotope_roundtrip(self, tmp_path, rng):
        Z = fixtures.random_zonotope(rng, 5)
        save_body(Z, tmp_path / "z.json")
        W = load_body(tmp_path / "z.json")
        assert np.array_equal(W.gens, Z.gens)

    def test_revolution_roundtrip(self, tmp_path):
        R = fixtures.double_cone_profile()
        save_body(R, tmp_path / "r.json")
        S = load_body(tmp_path / "r.json")
        assert S.d == 3 and S.a == 1.0
        assert np.array_equal(S.s, R.s) and np.array_equal(S.f, R.f)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dict_json_roundtrip(self, data):
        kind = data.draw(st.sampled_from(["zonotope", "polytope", "revolution", "ball"]))
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        point = st.lists(coord, min_size=3, max_size=3)
        if kind == "zonotope":
            gens = np.array(data.draw(st.lists(point, min_size=1, max_size=10)))
            assume(np.all(np.linalg.norm(gens, axis=1) > 0.0))
            B = GeneratorSet(gens)
        elif kind == "polytope":
            pts = np.array(data.draw(st.lists(point, min_size=2, max_size=10)))
            try:
                B = convex_hull(np.vstack([pts, -pts]), symmetric=True)
            except GeometryError:
                assume(False)
        elif kind == "revolution":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            B = fixtures.random_concave_profile(rng, n_nodes=data.draw(st.integers(2, 8)),
                                                a=data.draw(st.floats(0.1, 10.0)))
        else:
            B = fixtures.ball()
        doc = json.loads(json.dumps(bodies.body_to_dict(B)))
        field = {"zonotope": "generators", "polytope": "vertices"}.get(kind)
        if field and np.max(np.abs(doc[field])) < bodies.COORD_RANGE[0]:
            # a body smaller than the coordinate range is refused, not misread
            with pytest.raises(BodyFileError, match=field):
                bodies.body_from_dict(doc)
            return
        C = bodies.body_from_dict(doc)
        assert type(C) is type(B)
        if kind == "zonotope":
            assert np.array_equal(C.gens, B.gens)
        elif kind == "polytope":
            X = np.vstack([np.eye(3), B.vertices])
            assert C.symmetric
            assert C.volume == pytest.approx(B.volume, rel=1e-12)
            assert np.array_equal(C.support(X), B.support(X))
        elif kind == "revolution":
            assert (C.d, C.a) == (B.d, B.a)
            assert np.array_equal(C.s, B.s) and np.array_equal(C.f, B.f)

    def test_parse_error_context(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "zonotope"}')
        from pettylab import BodyFileError
        with pytest.raises(BodyFileError, match="generators"):
            load_body(p)

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "torus"}')
        from pettylab import BodyFileError
        with pytest.raises(BodyFileError, match="torus"):
            load_body(p)

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "polytope", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
          "symmetric": "false"}, "symmetric"),
        ({"kind": "ball", "dimension": 4}, "dimension"),
        ({"kind": "revolution", "dimension": 3.9, "a": 1.0,
          "profile": [[-1, 0], [0, 1], [1, 0]]}, "dimension"),
        ({"kind": "revolution", "dimension": "3", "a": 1.0,
          "profile": [[-1, 0], [0, 1], [1, 0]]}, "dimension"),
        ({"kind": "revolution", "dimension": True, "a": 1.0,
          "profile": [[-1, 0], [0, 1], [1, 0]]}, "dimension"),
        ({"kind": "revolution", "dimension": 3, "a": "1.0",
          "profile": [[-1, 0], [0, 1], [1, 0]]}, "a"),
        ({"kind": "revolution", "dimension": 3, "a": 1.0,
          "profile": [[-1, 0], ["0", 1], [1, 0]]}, "profile"),
        ({"kind": "zonotope", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, False]]},
         "generators"),
    ])
    def test_strict_field_types_exit2(self, tmp_path, capsys, doc, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["compute", str(p), "--invariants", "P"]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "zonotope", "generators": (1e70 * np.eye(3)).tolist()}, "generators"),
        ({"kind": "polytope", "symmetric": True,
          "vertices": np.vstack([1e70 * np.eye(3), -1e70 * np.eye(3)]).tolist()}, "vertices"),
        ({"kind": "polytope", "symmetric": False,
          "vertices": (1e300 * fixtures.tetrahedron().vertices).tolist()}, "vertices"),
        ({"kind": "zonotope", "generators": (1e-200 * np.eye(3)).tolist()}, "generators"),
        ({"kind": "zonotope", "generators": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "generators"),
        ({"kind": "zonotope", "generators": [[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "generators"),
        ({"kind": "revolution", "dimension": 3, "a": 1e40,
          "profile": [[-1e40, 0], [0, 1e40], [1e40, 0]]}, "profile"),
        ({"kind": "revolution", "dimension": 3, "a": 1e40,
          "profile": [[-1, 0], [0, 1], [1, 0]]}, "a"),
    ], ids=["zonotope-1e70", "octahedron-1e70", "tetrahedron-1e300", "zonotope-1e-200",
            "integer-1e400", "nan", "profile-1e40", "a-1e40"])
    def test_coordinates_out_of_range_exit2(self, tmp_path, capsys, doc, field):
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        for want in ("P", "M", "Q"):
            assert main(["compute", str(p), "--invariants", want]) == 2
            assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-30, 1e30])
    def test_coordinates_at_range_ends(self, tmp_path, capsys, scale):
        # P, M, m and Q are scale-invariant: the ends of the range read as 1
        doc = {"kind": "zonotope", "generators": (scale * np.eye(3)).tolist()}
        (tmp_path / "z.json").write_text(json.dumps(doc))
        assert main(["--no-timestamp", "compute", str(tmp_path / "z.json"),
                     "--grid", "64", "--refine", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {r.split(",")[0]: float(r.split(",")[1]) for r in rows} == pytest.approx(
            {"P": 8.0, "M": 8.0, "m": 8.0, "Q": 8.0}, rel=1e-9)

    def test_extra_fields_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "ball", "radius": 2}')
        from pettylab import BodyFileError
        with pytest.raises(BodyFileError, match="radius"):
            load_body(p)


class TestCompute:
    def test_cube_petty(self, fixture_dir):
        code, out, _ = run_cli("--no-timestamp", "compute",
                               str(fixture_dir / "cube.json"), "--invariants", "P")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "P"
        assert float(row[1]) == pytest.approx(8.0, abs=1e-9)

    def test_octahedron_m(self, fixture_dir):
        code, out, _ = run_cli("--no-timestamp", "compute",
                               str(fixture_dir / "octahedron.json"),
                               "--invariants", "m", "--grid", "512", "--refine", "20")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("m,")][0].split(",")
        assert float(row[1]) == pytest.approx(6.0, abs=1e-4)
        direction = np.abs(np.array([float(c) for c in row[2].split("/")]))
        assert np.max(np.abs(np.sort(direction) - np.array([0, 0, 1]))) < 1e-3

    def test_octahedron_equality_row_and_exact_M(self, fixture_dir, capsys):
        # m = 6 is the sharp bound, flagged; M is read at the facet normals
        # of K, and m at those of Pi^2 K
        code = main(["--no-timestamp", "compute", str(fixture_dir / "octahedron.json"),
                     "--invariants", "M,m", "--grid", "64", "--refine", "3"])
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in capsys.readouterr().out.splitlines()}
        assert float(rows["near-lower-equality"][1]) == pytest.approx(6.0, abs=1e-12)
        assert rows["M"][-1] == "max over facet normals"
        assert rows["m"][-1] == "min over facet normals of Pi^2 K"

    def test_row_details_name_the_source(self, fixture_dir, capsys):
        # P reads no direction; the ball's values are closed forms
        details = {}
        for name in ("cube", "ball"):
            assert main(["--no-timestamp", "compute", str(fixture_dir / f"{name}.json"),
                         "--grid", "64", "--refine", "3"]) == 0
            details[name] = {r.split(",")[0]: r.split(",")[-1]
                             for r in capsys.readouterr().out.splitlines()[1:]}
        assert details["cube"] == {"P": "exact", "M": "max over facet normals",
                                   "m": "min over facet normals of Pi^2 K",
                                   "Q": "grid=64 refine=3"}
        assert details["ball"] == dict.fromkeys("PMmQ", "closed form")
        # icosphere1's Pi^2 K has more facet normals than the grid has rows
        assert main(["--no-timestamp", "compute", str(fixture_dir / "icosphere1.json"),
                     "--invariants", "m", "--grid", "64", "--refine", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "grid=64 refine=3"
        # without the options, the grid and refinement are invariants' own defaults
        args = build_parser().parse_args(["compute", "body.json"])
        own = inspect.signature(invariants).parameters
        assert (args.grid, args.refine) == (own["grid"].default, own["refine"].default)

    def test_no_signed_zeros(self, fixture_dir, capsys):
        # the cube's facet normals carry -0.0 (outward w x u on flipped facets)
        cube = str(fixture_dir / "cube.json")
        assert main(["--no-timestamp", "compute", cube, "--invariants", "M"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "0/0/-1"
        assert main(["--no-timestamp", "compute", cube, "--invariants", "M",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert json.loads(out)["rows"][0]["direction"] == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("name, invariant, scale", [
        ("octahedron", "m", 1.0 - 1e-8), ("octahedron", "m", 0.9),
        ("cube-zonotope", "M", 1.0 + 1e-8), ("cube", "m", 0.7), ("octahedron", "Q", 0.7)])
    def test_bound_breach_exit4(self, fixture_dir, monkeypatch, capsys, name, invariant,
                                scale):
        # a ratio evaluator off by scale puts m below 6 or a zonotope's M
        # above 8, and a q evaluator Q below 6 (the octahedron's Q is 7.97):
        # a theorem limit crossed, as in search, not an equality
        from pettylab import functionals

        fn = "q_direction" if invariant == "Q" else "ratio"
        true_fn = getattr(functionals, fn)
        monkeypatch.setattr(functionals, fn, lambda B, X: scale * true_fn(B, X))
        code = main(["--no-timestamp", "compute", str(fixture_dir / f"{name}.json"),
                     "--invariants", invariant, "--grid", "64", "--refine", "3"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and invariant in err

    def test_zonoid_bound_only_for_zonotopes(self, fixture_dir, capsys):
        # the octahedron's M is 9: no zonoid, no upper bound
        code = main(["--no-timestamp", "compute", str(fixture_dir / "octahedron.json"),
                     "--invariants", "M"])
        assert code == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[1]) == \
            pytest.approx(9.0, rel=1e-12)

    def test_ball_petty(self, fixture_dir):
        code, out, _ = run_cli("--no-timestamp", "compute",
                               str(fixture_dir / "ball.json"), "--invariants", "P",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["value"] == pytest.approx(7.4022, abs=1e-4)

    def test_malformed_file_exit2(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{nope")
        code, _, err = run_cli("compute", str(p))
        assert code == 2
        assert "line" in err

    def test_flat_body_exit3(self, tmp_path):
        p = tmp_path / "flat.json"
        p.write_text(json.dumps({"kind": "zonotope",
                                 "generators": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
        code, _, err = run_cli("compute", str(p), "--invariants", "M")
        assert code == 3

    def test_asymmetric_Mm_exit3(self, fixture_dir):
        code, _, err = run_cli("compute", str(fixture_dir / "tetrahedron.json"),
                               "--invariants", "M")
        assert code == 3

    @pytest.mark.parametrize("n", [17, 20])
    def test_many_generator_zonotope_Q(self, tmp_path, capsys, n):
        # Q slices the vertex hull, which no longer caps the generator count
        save_body(fixtures.random_zonotope(np.random.default_rng(n), n), tmp_path / "z.json")
        assert main(["--no-timestamp", "compute", str(tmp_path / "z.json"),
                     "--invariants", "P,Q", "--grid", "256", "--refine", "5"]) == 0
        assert [l.split(",")[0] for l in capsys.readouterr().out.splitlines()[1:]] == ["P", "Q"]

    @pytest.mark.parametrize("body, want", [("z48", "M"), ("icosphere3", "P,M,m")])
    def test_bounded_memory(self, tmp_path, body, want):
        # Pi^2 of 48 generators (1,128 Pi generators) and of icosphere3 (640
        # merged) must fit in 3 GiB of address space; the child alone is capped
        if body == "z48":
            B = fixtures.random_zonotope(np.random.default_rng(48), 48)
        else:
            B = fixtures.icosphere(3)
        save_body(B, tmp_path / "b.json")
        cap = 3 * 2**30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pettylab", "compute", str(tmp_path / "b.json"),
             "--invariants", want],
            capture_output=True, text=True, timeout=600, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 0, proc.stderr


class TestVerify:
    def test_small_suite_passes(self):
        code, out, _ = run_cli("--no-timestamp", "verify", "ts-ratio",
                               "--samples", "2000", "--seed", "42")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_threads_flag_removed(self):
        assert main(["verify", "ts-ratio", "--threads", "2"]) == 2

    def test_unknown_suite_exit2(self):
        code, _, _ = run_cli("verify", "no-such-suite")
        assert code == 2

    def test_determinism_modulo_timestamp(self):
        _, out1, _ = run_cli("--no-timestamp", "verify", "formula-coherence",
                             "--samples", "20", "--seed", "7")
        _, out2, _ = run_cli("--no-timestamp", "verify", "formula-coherence",
                             "--samples", "20", "--seed", "7")
        assert out1 == out2

    def test_seed_env_default(self, tmp_path):
        import os
        env = dict(os.environ, PETTYLAB_SEED="7")
        p1 = subprocess.run([sys.executable, "-m", "pettylab", "--no-timestamp",
                             "verify", "formula-coherence", "--samples", "20"],
                            capture_output=True, text=True, env=env, timeout=600)
        p2 = subprocess.run([sys.executable, "-m", "pettylab", "--no-timestamp",
                             "verify", "formula-coherence", "--samples", "20",
                             "--seed", "7"],
                            capture_output=True, text=True, timeout=600)
        assert p1.stdout == p2.stdout

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_malformed_seed_env_exit2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("PETTYLAB_SEED", value)
        assert main(["verify", "formula-coherence", "--samples", "20"]) == 2
        assert "PETTYLAB_SEED" in capsys.readouterr().err


class TestSearchCmd:
    def test_ts_search_summary_and_files(self, tmp_path):
        out_json = tmp_path / "run.json"
        out_log = tmp_path / "run.jsonl"
        code, out, _ = run_cli("search", "max-ts-ratio", "--n", "4",
                               "--restarts", "1", "--iters", "300", "--seed", "5",
                               "--out", str(out_json), "--log", str(out_log))
        assert code == 0
        assert "best 1.33" in out
        doc = json.loads(out_json.read_text())
        assert doc["objective"] == "max-ts-ratio"
        assert out_log.read_text().count("\n") == len(doc["trace"])

    @pytest.mark.parametrize("start", [[], ["--start", "cube"]], ids=["random", "cube"])
    def test_min_Q_reports_gap(self, capsys, start):
        code = main(["search", "min-Q-symmetric", "--n", "4", "--iters", "3",
                     "--seed", "1", *start])
        assert code == 0
        assert ", gap-to-ball-bound=" in capsys.readouterr().out

    def test_bad_budget_exit2(self):
        code, _, _ = run_cli("search", "max-ts-ratio", "--iters", "0")
        assert code == 2

    def test_unknown_objective_exit2(self):
        code, _, _ = run_cli("search", "maximize-everything")
        assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["compute", "CUBE", "--grid", "1"], "--grid"),
    (["compute", "CUBE", "--grid", "3000000000"], "--grid"),
    (["compute", "CUBE", "--refine", "-5"], "--refine"),
    (["search", "max-M-zonoid", "--n", "2"], "--n"),
    (["search", "min-m-symmetric", "--n", "2"], "--n"),
    (["search", "max-M-zonoid", "--n", "9"], "--n"),
    (["verify", "ts-ratio", "--seed", "-1"], "--seed"),
    (["verify", "theorem-1-1", "--samples", "0"], "--samples"),
    (["verify", "ts-ratio", "--samples", "3000000000"], "--samples"),
    (["search", "max-M-zonoid", "--start", "cube"], "--start"),
    (["search", "max-ts-ratio", "--threads", "-4"], "--threads"),
    (["search", "max-ts-ratio", "--threads", "0"], "--threads"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--steps", "-4"], "--steps"),
    (["symmetrize", "CUBE", "--mode", "schwartz", "--steps", "5"], "--steps"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--steps", "3", "--direction", "1,0,0"],
     "--direction"),
    (["compute", "CUBE", "--invariants", ","], "--invariants"),
    (["compute", "CUBE", "--invariants", "P,P"], "--invariants"),
    (["compute", "CUBE", "--invariants", "P,V"], "--invariants"),
    (["symmetrize", "missing.json", "--mode", "steiner", "--direction", "0,0,0"],
     "--direction"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--direction", "nan,0,1"], "--direction"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--direction", "1,0"], "--direction"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--track-ratio", "0,0,0"], "--track-ratio"),
    (["symmetrize", "missing.json", "--mode", "steiner", "--track-ratio", "0,nan,1"],
     "--track-ratio"),
    (["symmetrize", "CUBE", "--mode", "steiner", "--track-ratio", "0,1"], "--track-ratio"),
], ids=["grid-1", "grid-3e9", "refine-negative", "zonoid-n2", "hull-n2", "zonoid-n9",
        "seed-negative", "samples-0", "samples-3e9",
        "zonoid-named-start", "threads-negative", "threads-0", "steps-negative",
        "schwartz-steps", "steps-with-direction", "invariants-empty",
        "invariants-repeated", "invariants-unknown", "direction-zero", "direction-nan",
        "direction-two", "track-zero", "track-nan", "track-two"])
def test_bad_option_exit2(fixture_dir, capsys, argv, flag):
    argv = [str(fixture_dir / "cube.json") if a == "CUBE" else a for a in argv]
    assert main(argv) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


class TestSymmetrizeCmd:
    def test_cube_steiner_unchanged(self, fixture_dir, tmp_path):
        out = tmp_path / "out.json"
        code, text, _ = run_cli("symmetrize", str(fixture_dir / "cube.json"),
                                "--mode", "steiner", "--direction", "0,0,1",
                                "--out", str(out))
        assert code == 0
        body = load_body(out)
        assert body.volume == pytest.approx(8.0, rel=1e-12)

    def test_octahedron_schwartz_profile(self, fixture_dir, tmp_path):
        out = tmp_path / "prof.json"
        code, text, _ = run_cli("symmetrize", str(fixture_dir / "octahedron.json"),
                                "--mode", "schwartz", "--direction", "0,0,1",
                                "--out", str(out), "--track-ratio", "0,0,1")
        assert code == 0
        assert "ratio before 6" in text
        R = load_body(out)
        expect = np.sqrt(2.0 / np.pi) * (1.0 - np.abs(R.s))
        assert np.max(np.abs(R.f - expect)) < 1e-9

    def test_volume_lines_printed(self, fixture_dir):
        code, text, _ = run_cli("symmetrize", str(fixture_dir / "cube.json"),
                                "--mode", "steiner")
        assert code == 0
        assert "volume before 8 after 8" in text

    def test_random_direction_rounding(self, tmp_path, rng):
        body = fixtures.random_symmetric_polytope(rng, 8)
        stretched = np.diag([3.0, 1.0, 0.4]) @ body.vertices.T
        save_body(bodies.body_from_dict(
            {"kind": "polytope", "vertices": stretched.T.tolist(), "symmetric": True}),
            tmp_path / "rand.json")
        code, text, _ = run_cli("symmetrize", str(tmp_path / "rand.json"),
                                "--mode", "steiner", "--steps", "25", "--seed", "3")
        assert code == 0
        line = [l for l in text.splitlines() if l.startswith("roundness")][0]
        start, end = float(line.split()[1]), float(line.split()[3])
        assert end < start

    @pytest.mark.parametrize("option", ["--direction", "--dir"])
    def test_negative_direction_two_words(self, fixture_dir, tmp_path, capsys, option):
        # argparse reads "-1,0,0" as an option unless "=" attaches it to its name
        def run(*argv):
            out = tmp_path / "out.json"
            assert main(["symmetrize", str(fixture_dir / "octahedron.json"),
                         "--mode", "steiner", *argv, "--out", str(out)]) == 0
            return capsys.readouterr().out, out.read_bytes()
        joined = run("--direction=-1,0,0", "--track-ratio=-.5,1,0")
        assert run(option, "-1,0,0", "--track-ratio", "-.5,1,0") == joined


def test_fixtures_command(tmp_path):
    code, out, _ = run_cli("fixtures", "--out", str(tmp_path / "fx"))
    assert code == 0
    assert (tmp_path / "fx" / "cube.json").exists()
    assert (tmp_path / "fx" / "icosphere3.json").exists()


def test_main_callable_directly(fixture_dir, capsys):
    code = main(["--no-timestamp", "compute", str(fixture_dir / "cube.json"),
                 "--invariants", "P"])
    assert code == 0
    assert "P,8," in capsys.readouterr().out


def test_failing_suite_exit4(monkeypatch, capsys):
    from pettylab import suites as suites_mod
    from pettylab.report import check

    def broken(samples, seed):
        return [check("always-broken", False, value=1.0, tolerance=0.0,
                      detail=f"seed={seed}")]

    monkeypatch.setitem(suites_mod.SUITES, "ts-ratio", suites_mod.Suite(broken, 1))
    code = main(["--no-timestamp", "verify", "ts-ratio"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_theorem_limit_exit4(monkeypatch, capsys):
    from pettylab import search as search_mod

    monkeypatch.setattr(search_mod, "_evaluate", lambda objective, config, body: 9.0)
    code = main(["search", "max-M-zonoid", "--n", "3", "--restarts", "1", "--iters", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max-M-zonoid" in err


@pytest.mark.parametrize("change", ["constant", "margin"])
def test_one_limit_table(fixture_dir, monkeypatch, capsys, change):
    # compute, search and the theorem-1-1 row read the same entry: moving
    # M's limit below 8, or its margin below 0, breaches in all three
    from pettylab import functionals, optimize
    from pettylab.errors import LimitError
    from pettylab.suites import run_suite

    def three():
        code = main(["--no-timestamp", "compute", str(fixture_dir / "cube-zonotope.json"),
                     "--invariants", "M"])
        capsys.readouterr()
        try:
            optimize("max-M-zonoid", n=3, restarts=1, iters=5, seed=1)
            raised = False
        except LimitError:
            raised = True
        return code, raised, run_suite("theorem-1-1", samples=20, seed=1)[0].status

    assert three() == (0, False, "PASS")
    if change == "constant":
        entry = functionals.LIMITS["M"]
        monkeypatch.setitem(functionals.LIMITS, "M", entry._replace(constant=7.99))
    else:
        monkeypatch.setattr(functionals, "LIMIT_MARGIN", -1e-6)
    assert three() == (4, True, "FAIL")


@pytest.mark.parametrize("argv", [
    ["compute", "CUBE", "--invariants", "P", "--out", "NOWHERE"],
    ["verify", "berwald", "--samples", "5", "--out", "NOWHERE"],
    ["symmetrize", "CUBE", "--mode", "steiner", "--out", "NOWHERE"],
    ["search", "max-ts-ratio", "--restarts", "1", "--iters", "5", "--out", "NOWHERE"],
    ["search", "max-ts-ratio", "--restarts", "1", "--iters", "5", "--log", "NOWHERE"],
    ["fixtures", "--out", "UNDER-FILE"],
], ids=["compute", "verify", "symmetrize", "search-out", "search-log", "fixtures"])
def test_unwritable_output_exit2(fixture_dir, tmp_path, capsys, argv):
    paths = {"CUBE": str(fixture_dir / "cube.json"),
             "NOWHERE": str(tmp_path / "missing" / "out.txt"),
             "UNDER-FILE": str(fixture_dir / "cube.json" / "fixtures")}
    argv = [paths.get(a, a) for a in argv]
    target = next(a for a in argv if a in (paths["NOWHERE"], paths["UNDER-FILE"]))
    assert main(["--no-timestamp", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_search_checks_outputs_before_running(monkeypatch, tmp_path, capsys, flag):
    from pettylab import cli

    def never(*args, **kwargs):
        raise AssertionError("optimize ran although its output cannot be written")

    monkeypatch.setattr(cli, "optimize", never)
    target = str(tmp_path / "missing" / "run.json")
    assert main(["search", "max-ts-ratio", flag, target]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_search_output_check_leaves_files_alone(monkeypatch, tmp_path):
    # a run that stops after the check leaves no new file and an old one as it was
    from pettylab import cli

    def stop(*args, **kwargs):
        raise cli.LimitError("stopped")

    monkeypatch.setattr(cli, "optimize", stop)
    out, log = tmp_path / "run.json", tmp_path / "run.jsonl"
    log.write_text("old\n")
    assert main(["search", "max-ts-ratio", "--out", str(out), "--log", str(log)]) == 4
    assert not out.exists()
    assert log.read_text() == "old\n"


def test_report_drops_the_sign_of_zero():
    row = Row("x", value=-0.0, direction=np.array([-0.0, 0.0, -1.0]), tolerance=-0.0)
    assert fmt(-0.0) == "0" and fmt(np.float64(-0.0)) == "0" and fmt(-1e-300) == "-1e-300"
    assert row.as_list()[1:4] == ["0", "0/0/-1", "0"]
    doc = row.as_dict()
    assert [math.copysign(1.0, v) for v in (doc["value"], doc["tolerance"], *doc["direction"])] \
        == [1.0, 1.0, 1.0, 1.0, -1.0]
    assert '"-0.0"' not in render_json([row]) and "-0.0" not in render_json([row])
