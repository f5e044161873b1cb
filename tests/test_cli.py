import json
import math
import os
import struct
import zlib

import numpy as np
import pytest

from conjlogit import __version__, cli, diophantine
from conjlogit.cli import main
from conjlogit.data_model import (
    CheriyanRamabhadran,
    Dataset,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    load_dataset,
    save_dataset,
    save_spec,
)
from conjlogit.diophantine import (
    CACHE_FORMAT_VERSION,
    build_cache,
    canonical_x_vectors,
    fnv1a_x_vectors,
    load_cache,
    save_cache,
)
from conjlogit.series import (
    CountMatrix,
    SeriesConfig,
    TruncationFailure,
    group_spread,
    h_naive,
    log_marginal_prepared,
    prepare_dataset,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sim_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = main(
        ["simulate", "--I", "30", "--P", "1", "--b", "5", "--n", "14",
         "--seed", "7", "-o", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    return out


@pytest.fixture
def perm_csv(tmp_path, capsys):
    # three observations per household, so many signatures are column
    # permutations of one another
    out = tmp_path / "perm.csv"
    code = main(
        ["simulate", "--I", "30", "--N", "3", "--P", "1", "--b", "5", "--n", "14",
         "--seed", "7", "-o", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    return out


def permuted_panel() -> Dataset:
    """Six households over six ordered signatures and three canonical ones;
    h0 and h1 also share Y, so they make one order-free group."""
    rows = [
        [(1, (1, 2)), (0, (2, 1)), (1, (3, 0))],
        [(0, (2, 1)), (1, (1, 2)), (1, (3, 0))],
        [(0, (3, 0)), (0, (1, 2)), (0, (2, 1))],
        [(1, (1, 1))],
        [(0, (1, 1)), (1, (0, 2))],
        [(1, (0, 2)), (1, (1, 1))],
    ]
    hs = tuple(Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
               for i, obs in enumerate(rows))
    return Dataset(hs, P=2, x_scale=0.1)


def count_calls(monkeypatch, module, name) -> list:
    """Record the positional arguments of every call to ``module.name``."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def built_signatures(monkeypatch) -> list:
    """Record (x_vectors, R) of every signature handed to a knapsack run,
    which builds a batch of them."""
    built, original = [], diophantine._shell_states

    def counting(X, R):
        built.extend((tuple(map(tuple, x.tolist())), R) for x in X)
        return original(X, R)

    monkeypatch.setattr(diophantine, "_shell_states", counting)
    return built


def test_version_embeds_cache_format(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out
    assert f"cache-format {CACHE_FORMAT_VERSION}" in out


def test_every_export_resolves():
    import conjlogit

    assert len(conjlogit.__all__) == len(set(conjlogit.__all__))
    for name in conjlogit.__all__:
        assert hasattr(conjlogit, name), name
    namespace = {}
    exec("from conjlogit import *", namespace)
    assert set(conjlogit.__all__) <= set(namespace)


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--P", "1", "--b", "5", "--n", "14", "-o", "x.csv"])
    assert e.value.code == 2


def test_threads_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--threads", "2", "simulate", "--I", "5", "--b", "5", "--n", "14",
              "-o", str(tmp_path / "d.csv")])
    assert e.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


class TestSimulate:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--I", "25", "--P", "1", "--b", "5", "--n", "14",
                "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_replicate_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--I", "25", "--P", "1", "--b", "5", "--n", "14",
                "--seed", "7"]
        assert main(args + ["--replicate", "2", "-o", str(a)]) == 0
        assert main(args + ["--replicate", "3", "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_truth_file_written(self, tmp_path, capsys):
        out, truth = tmp_path / "d.csv", tmp_path / "t.json"
        code = main(
            ["simulate", "--I", "5", "--P", "1", "--b", "5", "--n", "14",
             "-o", str(out), "--truth", str(truth)]
        )
        capsys.readouterr()
        assert code == 0
        blob = json.loads(truth.read_text())
        assert blob["family"] == "independent_gamma"
        assert blob["b"] == [5.0]


    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-0.5"])
    def test_bad_scale_exits_2(self, tmp_path, capsys, scale):
        out = tmp_path / "d.csv"
        code, stdout, err = run(["simulate", "--I", "3", "--b", "5", "--n", "14",
                                 f"--scale={scale}", "-o", str(out)], capsys)
        assert (code, stdout) == (2, "")
        error = json.loads(err)["error"]
        assert error["message"] == f"covariate scale must be a finite number > 0, got {float(scale)}"
        assert not out.exists()

    @pytest.mark.parametrize("support, shown", [("0", "(0,)"), ("-1,2", "(-1, 2)")])
    def test_bad_x_support_exits_2(self, tmp_path, capsys, support, shown):
        # all-zero rows that eval rejects, or negative covariates
        out = tmp_path / "d.csv"
        code, stdout, err = run(["simulate", "--I", "3", "--b", "5", "--n", "14",
                                 f"--x-support={support}", "-o", str(out)], capsys)
        assert (code, stdout) == (2, "")
        error = json.loads(err)["error"]
        assert error["message"] == ("covariate support must be one or more positive "
                                    f"integers, got {shown}")
        assert not out.exists()


class TestPrecompute:
    def test_dry_run_lists_signatures(self, tmp_path, capsys):
        h = Household("a", tuple(Observation(0, (1,)) for _ in range(40)))
        p = tmp_path / "d.csv"
        save_dataset(Dataset((h,), P=1), str(p))
        argv = ["precompute", "--data", str(p), "--dry-run", "--cache-dir", str(tmp_path / "c")]
        code, out, _ = run(argv + ["--R", "9"], capsys)
        assert code == 0
        x_hash = fnv1a_x_vectors(((1,) * 40,))
        assert out == f"signature {x_hash:016x}: 1 households, M=40\ndry run: no caches built\n"
        assert not (tmp_path / "c").exists()
        code, out, err = run(argv + ["--R", "-1"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "R must be non-negative"

    def test_identical_signatures_share_one_cache(self, tmp_path, sim_csv, capsys):
        # force identical covariates so all households share a signature
        h1 = Household("a", (Observation(1, (2,)),))
        h2 = Household("b", (Observation(0, (2,)),))
        p = tmp_path / "same.csv"
        save_dataset(Dataset((h1, h2), P=1), str(p))
        cdir = tmp_path / "caches"
        code, out, _ = run(
            ["precompute", "--data", str(p), "--R", "20", "--cache-dir", str(cdir)],
            capsys,
        )
        assert code == 0
        assert len(list(cdir.glob("*.bin"))) == 1
        # rerun: reused, not rebuilt
        code, out, _ = run(
            ["precompute", "--data", str(p), "--R", "20", "--cache-dir", str(cdir)],
            capsys,
        )
        assert code == 0
        assert "reused 1" in out

    def test_state_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # at R=9 the one-observation signature needs 10 states, x = (1, 1, 1)
        # 10 per column, and x = (1, 2, 3) 55 in its second column; under a cap
        # of 20 the last is refused: its state bound of 100 is over the batch
        # cap of min(2**14, 20), so it is built alone, not in a batch with
        # (1, 1, 1), whose bound is 10, and precompute writes nothing, not
        # even the other files
        hs = (Household("a", (Observation(1, (2,)),)),
              Household("c", tuple(Observation(1, (1,)) for _ in range(3))),
              Household("b", tuple(Observation(0, (v,)) for v in (1, 2, 3))))
        p = tmp_path / "d.csv"
        save_dataset(Dataset(hs, P=1), str(p))
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
        monkeypatch.setattr(diophantine, "MAX_STATES", 20)
        cdir = tmp_path / "c"
        for argv in (["precompute"], ["eval", "--spec", str(spec_p)]):
            code, out, err = run(argv + ["--data", str(p), "--R", "9", "--cache-dir", str(cdir)],
                                 capsys)
            assert code == 3 and "built" not in out and "loglik" not in out
            error = json.loads(err)["error"]
            assert error["type"] == "BudgetError" and error["exit_code"] == 3
            assert "needs 55 (shell, r) states for column 2 of 3" in error["message"]
            assert "MAX_STATES = 20" in error["message"]
            assert not cdir.exists()

    @pytest.mark.parametrize("damage", ["v1", "v2", "v3", "truncated", "extra bytes"])
    def test_unreadable_cache_file_is_rebuilt(self, tmp_path, capsys, damage):
        hs = (Household("a", (Observation(1, (2,)),)), Household("b", (Observation(0, (1,)),)))
        p = tmp_path / "d.csv"
        save_dataset(Dataset(hs, P=1), str(p))
        cdir = tmp_path / "caches"
        argv = ["precompute", "--data", str(p), "--R", "20", "--cache-dir", str(cdir)]
        assert run(argv, capsys)[0] == 0
        files = sorted(cdir.glob("*.bin"))
        good = files[0].read_bytes()
        if damage.startswith("v"):
            # v1 records are (r-tuple, count) without the final-shell column,
            # v2 records (r-tuple, count, final-shell count) without shell R-1,
            # and v1 to v3 headers hold the k-tuple count C(R+M, M)
            c = load_cache(str(files[0]))
            version = int(damage[1])
            header = b"DIOC" + struct.pack(
                "<HIIIQQQ", version, c.M, c.P, c.R, c.x_hash, math.comb(c.R + c.M, c.M),
                len(c.records),
            )
            xdata = struct.pack(f"<{c.M}q", *c.x_vectors[0])
            body = c.records[:, :c.P + version].astype("<i8").tobytes()
            files[0].write_bytes(header + xdata + body + struct.pack("<I", zlib.crc32(body)))
        elif damage == "truncated":
            files[0].write_bytes(good[:-10])
        else:
            files[0].write_bytes(good + b"\x00" * 8)
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert "built 1 cache(s), reused 1, rebuilt 1 unreadable" in out
        assert files[0].read_bytes() == good

    def test_cache_of_another_budget_is_rebuilt(self, tmp_path, sim_csv, capsys):
        # budget-4 files renamed to the budget-30 names: eval must not read
        # them, and precompute rebuilds them
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
        ev = ["eval", "--data", str(sim_csv), "--spec", str(spec_p), "--R", "30"]
        code, fresh, err = run(ev + ["--cache-dir", str(tmp_path / "fresh")], capsys)
        assert code == 0, err
        cdir = tmp_path / "c"
        pre = ["precompute", "--data", str(sim_csv), "--cache-dir", str(cdir)]
        assert run(pre + ["--R", "4"], capsys)[0] == 0
        files = sorted(cdir.glob("*_R4.bin"))
        for f in files:
            f.rename(str(f).replace("_R4.bin", "_R30.bin"))
        code, out, err = run(ev + ["--cache-dir", str(cdir)], capsys)
        assert (code, out) == (2, "")
        assert "built at R=4, but the evaluation asks for R=30" in json.loads(err)["error"]["message"]
        code, out, err = run(pre + ["--R", "30"], capsys)
        assert code == 0, err
        n = len(files)
        assert f"built {n} cache(s), reused 0, rebuilt {n} unreadable or of another budget" in out
        code, warm, err = run(ev + ["--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        assert warm == fresh

    def test_each_signature_is_hashed_once(self, tmp_path, sim_csv, capsys, monkeypatch):
        cdir = tmp_path / "caches"
        argv = ["precompute", "--data", str(sim_csv), "--R", "10", "--cache-dir", str(cdir)]
        assert run(argv, capsys)[0] == 0
        n_files = len(list(cdir.glob("*.bin")))
        calls = []

        def counting(xv):
            calls.append(xv)
            return fnv1a_x_vectors(xv)

        monkeypatch.setattr(cli, "fnv1a_x_vectors", counting)
        monkeypatch.setattr(diophantine, "fnv1a_x_vectors", counting)
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert f"built 0 cache(s), reused {n_files}," in out
        assert len(calls) == len(set(calls)) == n_files

    def test_env_var_cache_dir(self, tmp_path, sim_csv, capsys, monkeypatch):
        cdir = tmp_path / "envcaches"
        monkeypatch.setenv("CONJLOGIT_CACHE_DIR", str(cdir))
        code, _, _ = run(["precompute", "--data", str(sim_csv), "--R", "10"], capsys)
        assert code == 0
        assert list(cdir.glob("*.bin"))


class TestEvalAndFit:
    def test_eval_outputs_json(self, tmp_path, sim_csv, capsys):
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
        code, out, _ = run(
            ["eval", "--data", str(sim_csv), "--spec", str(spec_p), "--R", "50",
             "--cache-dir", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["loglik"] < 0
        assert set(blob) == {"loglik", "terms", "parity_spread", "R"}

    def test_eval_evaluates_the_mgf_once(self, tmp_path, sim_csv, capsys, monkeypatch):
        # the value and the spread share one MGF evaluation, and equal the
        # separate routes' to the bit
        spec = IndependentGamma((5.0,), (14.0,))
        spec_p = tmp_path / "spec.json"
        save_spec(spec, str(spec_p))
        calls = count_calls(monkeypatch, CountMatrix, "mgf")
        code, out, err = run(["eval", "--data", str(sim_csv), "--spec", str(spec_p),
                              "--R", "30", "--cache-dir", str(tmp_path / "c")], capsys)
        assert code == 0, err
        assert [s for _, s in calls] == [spec]
        blob = json.loads(out)
        prep = prepare_dataset(load_dataset(str(sim_csv)), SeriesConfig(R=30))
        assert blob["loglik"] == log_marginal_prepared(prep, spec).value
        assert blob["parity_spread"] == group_spread(prep, spec).max()

    def test_eval_modes_agree(self, tmp_path, sim_csv, capsys):
        # eval's count-based value against the brute-force h_naive per household
        spec = IndependentGamma((5.0,), (14.0,))
        spec_p = tmp_path / "spec.json"
        save_spec(spec, str(spec_p))
        code, out, _ = run(
            ["eval", "--data", str(sim_csv), "--spec", str(spec_p),
             "--R", "40", "--cache-dir", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        d = load_dataset(str(sim_csv))
        naive = [h_naive(h, spec, SeriesConfig(R=40), d.x_scale) for h in d.households]
        blob = json.loads(out)
        assert blob["loglik"] == pytest.approx(math.fsum(math.log(ev.value) for ev in naive),
                                               rel=1e-12)
        # the worst household's spread
        assert blob["parity_spread"] == pytest.approx(max(ev.parity_spread for ev in naive),
                                                      rel=1e-9)

    def test_eval_mode_flag_is_rejected(self, tmp_path, sim_csv, capsys):
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
        with pytest.raises(SystemExit) as e:
            main(["eval", "--data", str(sim_csv), "--spec", str(spec_p),
                  "--mode", "naive"])
        assert e.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--spec", "s.json", "--parity-check"],
        ["fit", "--center", "5,14", "--parity-check"],
        ["fit", "--center", "5,14", "--family", "gamma"],
        ["precompute", "--R", "5", "--limit", "5"],
    ], ids=["eval-parity-check", "fit-parity-check", "fit-family", "precompute-limit"])
    def test_removed_flags_are_rejected(self, sim_csv, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--data", str(sim_csv)])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_eval_parity_check_reads_the_cache_dir(self, tmp_path, sim_csv, capsys):
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
        ev = ["eval", "--data", str(sim_csv), "--spec", str(spec_p), "--R", "30"]
        code, cold, err = run(ev + ["--cache-dir", str(tmp_path / "e")], capsys)
        assert code == 0, err
        cdir = tmp_path / "c"
        code, _, err = run(["precompute", "--data", str(sim_csv), "--R", "30",
                            "--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        code, warm, err = run(ev + ["--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        assert json.loads(warm) == json.loads(cold)
        assert json.loads(warm)["parity_spread"] > 0.0
        for f in cdir.glob("*.bin"):
            f.write_bytes(b"garbage")
        code, _, err = run(ev + ["--cache-dir", str(cdir)], capsys)
        assert code == 2
        assert "bad magic" in json.loads(err)["error"]["message"]

    def test_fit_writes_result_within_grid(self, tmp_path, sim_csv, capsys):
        out_p = tmp_path / "fit.json"
        code, out, _ = run(
            ["fit", "--data", str(sim_csv),
             "--grid", "3x3", "--spacing", "0.5", "--center", "5,14",
             "--R", "50", "-o", str(out_p), "--cache-dir", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        blob = json.loads(out_p.read_text())
        b_hat, n_hat = blob["omega_hat"]
        assert 4.5 <= b_hat <= 5.5
        assert 13.5 <= n_hat <= 14.5
        assert len(blob["trace"]) == 9

    def test_fit_requires_center(self, sim_csv, capsys):
        code, _, err = run(
            ["fit", "--data", str(sim_csv), "--grid", "3x3", "--spacing", "0.1"],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"]["exit_code"] == 2

    def test_missing_data_file_exit_2_with_json_stderr(self, tmp_path, capsys):
        code, _, err = run(
            ["eval", "--data", str(tmp_path / "nope.csv"),
             "--spec", str(tmp_path / "nope.json")],
            capsys,
        )
        assert code == 2
        blob = json.loads(err)
        assert blob["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv,error", [
    pytest.param(["precompute", "--data", "{data}", "--R", "10", "--cache-dir", "{file}"],
                 "FileExistsError", id="precompute-cache-dir-is-a-file"),
    pytest.param(["precompute", "--data", "{data}", "--R", "10", "--cache-dir", "{file}/sub"],
                 "NotADirectoryError", id="precompute-cache-dir-under-a-file"),
    pytest.param(["fit", "--data", "{data}", "--grid", "2x2", "--spacing", "0.5",
                  "--center", "5,14", "--R", "10", "--cache-dir", "{c}", "-o", "{dir}"],
                 "IsADirectoryError", id="fit-output-is-a-dir"),
    pytest.param(["plotdata", "--data", "{data}", "--grid", "2x2", "--spacing", "0.5",
                  "--center", "5,14", "--R", "10", "--cache-dir", "{c}", "-o", "{dir}"],
                 "IsADirectoryError", id="plotdata-output-is-a-dir"),
    pytest.param(["simulate", "--I", "5", "--b", "5", "--n", "14", "-o", "{dir}"],
                 "IsADirectoryError", id="simulate-output-is-a-dir"),
    pytest.param(["study", "--I", "20", "--replicates", "2", "--R", "10", "--grid", "2x2",
                  "--spacing", "0.5", "--center-at-truth", "-o", "{dir}"],
                 "IsADirectoryError", id="study-output-is-a-dir"),
    pytest.param(["eval", "--data", "{data}", "--spec", "{dir}", "--cache-dir", "{c}"],
                 "IsADirectoryError", id="eval-spec-is-a-dir"),
])
def test_os_errors_exit_2_with_json_stderr(tmp_path, sim_csv, capsys, argv, error):
    # a path that is a file where a directory is needed, or the reverse
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    argv = [a.format(data=sim_csv, file=tmp_path / "file", dir=tmp_path / "dir",
                     c=tmp_path / "c") for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["type"] == error


@pytest.mark.parametrize("cache_dir", ["{file}", "{file}/sub"], ids=["is-a-file", "under-a-file"])
def test_fit_with_a_file_for_cache_dir_builds_in_memory(tmp_path, sim_csv, capsys, monkeypatch,
                                                         cache_dir):
    # fit probes each cache file with os.path.exists, which reads a path
    # under a regular file as absent, so it builds every cache in memory
    (tmp_path / "file").write_text("")
    fit = ["fit", "--data", str(sim_csv), "--grid", "2x2", "--spacing", "0.5",
           "--center", "5,14", "--R", "10", "--cache-dir"]
    code, fresh, err = run(fit + [str(tmp_path / "none")], capsys)
    assert code == 0, err
    built = built_signatures(monkeypatch)
    code, out, err = run(fit + [cache_dir.format(file=tmp_path / "file")], capsys)
    assert (code, err) == (0, "")
    assert out == fresh
    canon = {canonical_x_vectors(h.x_vectors(1)) for h in load_dataset(str(sim_csv)).households}
    assert sorted(xv for xv, _ in built) == sorted(canon)
    assert (tmp_path / "file").read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "file"]


class TestPlotdataAndStudy:
    def test_plotdata_row_count_is_grid_cardinality(self, tmp_path, sim_csv, capsys):
        out_p = tmp_path / "surface.csv"
        code, _, _ = run(
            ["plotdata", "--data", str(sim_csv), "--grid", "3x5",
             "--spacing", "0.2", "--center", "5,14", "--R", "40",
             "-o", str(out_p), "--cache-dir", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        lines = out_p.read_text().strip().splitlines()
        assert lines[0] == "b1,n1,loglik"
        assert len(lines) == 1 + 15

    def test_study_smoke(self, tmp_path, capsys):
        out_p = tmp_path / "study.csv"
        code, out, _ = run(
            ["study", "--I", "200", "--replicates", "4", "--R", "40",
             "--grid", "7x7", "--spacing", "0.5", "--center-at-truth",
             "-o", str(out_p)],
            capsys,
        )
        assert code == 0
        assert out_p.exists()
        assert "b1" in out


def test_config_overlay_supplies_defaults(tmp_path, sim_csv, capsys):
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 37, "cache_dir": str(tmp_path / "c")}))
    code, out, _ = run(
        ["--config", str(cfg), "eval", "--data", str(sim_csv),
         "--spec", str(spec_p)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["R"] == 37


def test_config_equals_form_is_applied(tmp_path, sim_csv, capsys):
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 7, "cache-dir": str(tmp_path / "c")}))
    code, out, _ = run(
        [f"--config={cfg}", "eval", "--data", str(sim_csv), "--spec", str(spec_p)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["R"] == 7


def test_config_without_a_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--config"])
    assert e.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_config_value_is_parsed_by_the_flag_type(tmp_path, sim_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 7.5}))
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg), "eval", "--data", str(sim_csv), "--spec", "s.json"])
    assert e.value.code == 2
    assert "invalid int value: '7.5'" in capsys.readouterr().err


@pytest.mark.parametrize("content, words", [
    (None, "No such file"),
    ("{R: 7", "is not JSON"),
    ("[7]", "JSON object"),
    ('{"mode": "naive", "parity-chek": true, "R": 7}', "'mode', 'parity-chek'"),
    ('{"parity-check": true, "family": "gamma"}', "'parity-check', 'family'"),
    ('{"limit": 5}', "no subcommand has a flag for key(s) 'limit'"),
    ('{"newton": "yes"}', "true or false"),
    # a null once reached the flag as the string "None", so eval exited 0
    # and precompute wrote its caches into ./None
    ('{"cache-dir": null}', "'cache-dir' is null"),
    ('{"newton": null}', "'newton' is null"),
], ids=["missing", "not-json", "not-object", "unknown-keys", "removed-flags", "removed-limit",
        "not-a-switch", "null-value", "null-switch"])
def test_bad_config_exits_2_with_one_line(tmp_path, sim_csv, capsys, content, words):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
    code, out, err = run(
        ["--config", str(cfg), "eval", "--data", str(sim_csv), "--spec", str(spec_p)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["exit_code"] == 2
    assert words in error["message"]


def test_oracle_check_log2_household(tmp_path, capsys):
    h = Household("a", (Observation(0, (1,)),))
    p = tmp_path / "d.csv"
    save_dataset(Dataset((h,), P=1), str(p))
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((1.0,), (1.0,)), str(spec_p))
    code, out, _ = run(
        ["oracle-check", "--data", str(p), "--spec", str(spec_p), "--R", "200",
         "--rel-tol", "5e-3", "--mc-draws", "20000",
         "--cache-dir", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0
    assert "ok" in out


def test_oracle_check_generalized_mv_gamma(tmp_path, capsys):
    h = Household("a", (Observation(1, (1, 2)), Observation(0, (2, 1))))
    p = tmp_path / "d.csv"
    save_dataset(Dataset((h,), P=2, x_scale=0.1), str(p))
    spec_p = tmp_path / "spec.json"
    save_spec(GeneralizedMVGamma(((1.0,), (1.0,)), (2.0, 2.0), (2.0,), (3.0, 3.0)), str(spec_p))
    code, out, _ = run(
        ["oracle-check", "--data", str(p), "--spec", str(spec_p), "--R", "60",
         "--mc-draws", "20000"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "ok"


def test_oracle_check_point_mass_gamma(tmp_path, capsys):
    # Monte Carlo draws the beta = 0 atom with probability w; quadrature has
    # no route for the family and prints n/a
    hs = (
        Household("a", (Observation(1, (2,)), Observation(0, (3,)))),
        Household("b", (Observation(0, (1,)), Observation(1, (1,)), Observation(0, (2,)))),
    )
    p = tmp_path / "d.csv"
    save_dataset(Dataset(hs, P=1, x_scale=0.1), str(p))
    spec_p = tmp_path / "spec.json"
    save_spec(PointMassGamma(0.3, IndependentGamma((5.0,), (14.0,))), str(spec_p))
    code, out, err = run(
        ["oracle-check", "--data", str(p), "--spec", str(spec_p), "--R", "100",
         "--mc-draws", "20000", "--cache-dir", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0, err
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["a", "b"]
    for r in rows:
        assert r[2] == "n/a" and r[4] == "n/a"
        assert float(r[5]) < 5.0 and r[-1] == "ok"


@pytest.mark.parametrize("P, spec", [
    (1, CheriyanRamabhadran(1.0, 2.0, 3.0)),
    (3, CheriyanRamabhadran(1.0, 2.0, 3.0)),
    (1, IndependentGamma((5.0, 5.0), (14.0, 14.0))),
])
@pytest.mark.parametrize("command", ["eval", "oracle-check"])
def test_prior_of_another_dimension_exits_2(tmp_path, capsys, command, P, spec):
    h = Household("a", (Observation(1, (1,) * P), Observation(0, (2,) * P)))
    p = tmp_path / "d.csv"
    save_dataset(Dataset((h,), P=P, x_scale=0.1), str(p))
    spec_p = tmp_path / "spec.json"
    save_spec(spec, str(spec_p))
    code, out, err = run(
        [command, "--data", str(p), "--spec", str(spec_p), "--R", "10",
         "--cache-dir", str(tmp_path / "c")],
        capsys,
    )
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "SpecError"
    assert error["message"] == f"prior has P=2 attributes but the panel has P={P}"


@pytest.mark.parametrize("flag, value, words", [
    ("--max-households", "0", "--max-households must be at least 1, got 0"),
    ("--max-households", "-1", "--max-households must be at least 1, got -1"),
    ("--mc-draws", "0", "at least 2 draws, got 0"),
    ("--mc-draws", "1", "at least 2 draws, got 1"),
])
def test_oracle_check_rejects_bad_counts(tmp_path, capsys, flag, value, words):
    h = Household("a", (Observation(0, (1,)),))
    p = tmp_path / "d.csv"
    save_dataset(Dataset((h,), P=1), str(p))
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((1.0,), (1.0,)), str(spec_p))
    code, out, err = run(
        ["oracle-check", "--data", str(p), "--spec", str(spec_p), "--R", "20", flag, value],
        capsys,
    )
    assert code == 2 and out == ""
    assert words in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("precomputed", ["some", "all"])
def test_fit_parity_check_over_precomputed_caches(tmp_path, capsys, precomputed):
    hs = tuple(
        Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
        for i, obs in enumerate(
            [((1, (1,)), (0, (2,))), ((0, (1,)), (0, (2,))), ((1, (3,)),), ((0, (2,)),)]
        )
    )
    data = tmp_path / "d.csv"
    save_dataset(Dataset(hs, P=1, x_scale=0.1), str(data))
    part = tmp_path / "part.csv"
    save_dataset(Dataset(hs if precomputed == "all" else hs[:2], P=1, x_scale=0.1), str(part))
    cdir = tmp_path / "c"
    assert main(["precompute", "--data", str(part), "--R", "30", "--cache-dir", str(cdir)]) == 0
    fit = ["fit", "--data", str(data), "--grid", "3x3", "--spacing", "0.5",
           "--center", "5,14", "--R", "30"]
    code, _, err = run(fit + ["--cache-dir", str(cdir), "-o", str(tmp_path / "a.json")], capsys)
    assert code == 0, err
    code, _, _ = run(fit + ["--cache-dir", str(tmp_path / "empty"),
                            "-o", str(tmp_path / "b.json")], capsys)
    assert code == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_fit_parity_check_builds_no_cache_after_precompute(tmp_path, perm_csv, capsys,
                                                         monkeypatch):
    # the budget-R caches carry the parity companion, so the spread needs no
    # knapsack run once every signature is on disk; without them, each
    # canonical signature goes to a run once
    cdir = tmp_path / "c"
    assert main(["precompute", "--data", str(perm_csv), "--R", "30", "--cache-dir", str(cdir)]) == 0
    files = list(cdir.glob("*.bin"))
    canonical = {canonical_x_vectors(load_cache(str(f)).x_vectors) for f in files}
    assert len(canonical) < len(files)
    calls = built_signatures(monkeypatch)
    fit = ["fit", "--data", str(perm_csv), "--grid", "3x3", "--spacing", "0.5",
           "--center", "5,14", "--R", "30"]
    code, out, err = run(fit + ["--cache-dir", str(cdir)], capsys)
    assert code == 0, err
    assert "parity_spread=" in out
    assert calls == []
    code, _, err = run(fit + ["--cache-dir", str(tmp_path / "empty")], capsys)
    assert code == 0, err
    # one build at budget 30 for each canonical signature, and no other
    assert [R for _, R in calls] == [30] * len(canonical)
    assert {xv for xv, _ in calls} == canonical


class TestOrderFreeSignatures:
    def test_precompute_builds_once_per_canonical_signature(self, tmp_path, capsys,
                                                             monkeypatch):
        d = permuted_panel()
        data = tmp_path / "d.csv"
        save_dataset(d, str(data))
        ordered = {h.x_vectors(2) for h in d.households}
        assert len(ordered) == 6 and len({canonical_x_vectors(xv) for xv in ordered}) == 3
        cdir = tmp_path / "c"
        builds = built_signatures(monkeypatch)
        code, out, err = run(["precompute", "--data", str(data), "--R", "8",
                              "--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        assert "built 6 cache(s), reused 0, 3 canonical signature(s) counted," in out
        assert [R for _, R in builds] == [8] * 3
        # one file per ordered signature, byte-identical to a direct build
        files = sorted(cdir.glob("*.bin"))
        assert len(files) == 6
        for f in files:
            xv = load_cache(str(f)).x_vectors
            assert f.name == f"dio_{fnv1a_x_vectors(xv):016x}_R8.bin"
            save_cache(build_cache(xv, 8), str(tmp_path / "direct.bin"))
            assert f.read_bytes() == (tmp_path / "direct.bin").read_bytes()
        ordered_builds = len(builds)
        loads = count_calls(monkeypatch, cli, "load_cache")
        fit = ["fit", "--data", str(data), "--grid", "3x3", "--spacing", "0.5",
               "--center", "5,14,5,14", "--R", "8", "--cache-dir", str(cdir)]
        code, _, err = run(fit + ["-o", str(tmp_path / "a.json")], capsys)
        assert code == 0, err
        assert len(loads) == 3
        assert len(builds) == ordered_builds
        code, _, err = run(fit[:-2] + ["--cache-dir", str(tmp_path / "empty"),
                                       "-o", str(tmp_path / "b.json")], capsys)
        assert code == 0, err
        assert len(builds) == ordered_builds + 3
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_oracle_check_reads_the_cache_dir(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        save_dataset(permuted_panel(), str(data))
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0, 5.0), (14.0, 14.0)), str(spec_p))
        check = ["oracle-check", "--data", str(data), "--spec", str(spec_p), "--R", "60",
                 "--mc-draws", "20000", "--max-households", "2"]
        code, fresh, err = run(check + ["--cache-dir", str(tmp_path / "fresh")], capsys)
        assert code == 0, err
        cdir = tmp_path / "c"
        code, _, err = run(["precompute", "--data", str(data), "--R", "60",
                            "--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        builds = count_calls(monkeypatch, diophantine, "_shell_states")
        code, warm, err = run(check + ["--cache-dir", str(cdir)], capsys)
        assert code == 0, err
        assert warm == fresh and builds == []
        for f in cdir.glob("*.bin"):
            f.write_bytes(b"garbage")
        code, _, err = run(check + ["--cache-dir", str(cdir)], capsys)
        assert code == 2
        assert "bad magic" in json.loads(err)["error"]["message"]

    def test_oracle_check_on_permuted_households(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(permuted_panel(), str(data))
        spec_p = tmp_path / "spec.json"
        save_spec(IndependentGamma((5.0, 5.0), (14.0, 14.0)), str(spec_p))
        code, out, err = run(
            ["oracle-check", "--data", str(data), "--spec", str(spec_p), "--R", "60",
             "--mc-draws", "20000"],
            capsys,
        )
        assert code == 0, err
        rows = [line.split() for line in out.splitlines()[1:]]
        # h1 is h0 reordered with the same Y: one group, checked on h0
        assert [r[0] for r in rows] == ["h0", "h2", "h3", "h4", "h5"]
        assert all(r[-1] == "ok" for r in rows)


def test_recode_negative_takes_attribute_indices(tmp_path, capsys):
    h = Household("a", (Observation(1, (2, -1)), Observation(0, (1, -3))))
    p = tmp_path / "d.csv"
    save_dataset(Dataset((h,), P=2), str(p))
    argv = ["precompute", "--data", str(p), "--R", "5", "--cache-dir", str(tmp_path / "c")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DataError"
    code, out, err = run(argv + ["--recode-negative", "1"], capsys)
    assert code == 0, err
    assert "built 1 cache(s)" in out
    (path,) = (tmp_path / "c").glob("*.bin")
    assert load_cache(str(path)).x_vectors == ((2, 1), (1, 3))
    for bad in ("2", "0,x"):
        code, _, err = run(argv + ["--recode-negative", bad], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DataError"


def test_over_long_csv_field_exits_2(tmp_path, capsys):
    # the csv module refuses a field over 131,072 characters
    p = tmp_path / "d.csv"
    p.write_text("household,category,occasion,y,x1\na,1,1,0,1\n" + "h" * 200_000 + ",1,1,1,2\n")
    code, out, err = run(["fit", "--data", str(p), "--grid", "3x3", "--R", "10"], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert error["message"] == f"{p}:3: field larger than field limit (131072)"


def test_recode_negative_beyond_int64_exits_2(tmp_path, capsys):
    # -(-2**63) is one past the int64 range
    p = tmp_path / "d.csv"
    p.write_text("household,category,occasion,y,x1,x2\n"
                 "a,1,1,1,-1,2\n"
                 f"b,1,1,0,-1,3\nb,1,2,1,{-(2**63)},1\n")
    code, _, err = run(["precompute", "--data", str(p), "--R", "5", "--dry-run",
                        "--recode-negative", "0"], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert error["message"] == (
        "household b obs 1: transformed x[0]=9223372036854775808 is not an int64 value"
    )


@pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "abc"])
def test_bad_x_scale_header_exits_2(tmp_path, capsys, value):
    # at x_scale=0 every household's H is 2^-n_obs, whatever the prior
    p = tmp_path / "d.csv"
    p.write_text(f"# x_scale={value}\nhousehold,category,occasion,y,x1\n"
                 "a,1,1,1,1\na,1,2,0,2\nb,1,1,0,3\n")
    spec = tmp_path / "s.json"
    save_spec(IndependentGamma((5.0,), (14.0,)), str(spec))
    code, out, err = run(["eval", "--data", str(p), "--spec", str(spec), "--R", "20",
                          "--cache-dir", str(tmp_path / "c")], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert error["message"] == f"{p}:1: x_scale {value!r} is not a finite number > 0"


@pytest.mark.parametrize("command", ["fit", "plotdata", "study"])
def test_grid_commands_need_center(tmp_path, sim_csv, capsys, command):
    argv = [command, "-o", str(tmp_path / "out")]
    if command != "study":
        argv += ["--data", str(sim_csv), "--cache-dir", str(tmp_path / "c")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error == {"type": "SpecError", "exit_code": 2,
                     "message": "--center is required (or --center-at-truth)"}
    assert not (tmp_path / "out").exists() and not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["simulate", "study"])
@pytest.mark.parametrize("P", ["0", "-1"])
def test_attribute_count_below_one_is_a_usage_error(tmp_path, capsys, command, P):
    argv = {"simulate": ["simulate", "--I", "3", "--b", "5", "--n", "14"],
            "study": ["study", "--I", "20", "--replicates", "2", "--center-at-truth"]}[command]
    code, out, err = run(argv + ["--P", P, "-o", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "SpecError", "exit_code": 2,
                                        "message": f"--P must be at least 1, got {P}"}
    assert not (tmp_path / "out").exists()


def test_study_output_is_opened_before_the_study_runs(tmp_path, capsys, monkeypatch):
    def study_ran(*args, **kwargs):
        raise AssertionError("run_study was called")

    monkeypatch.setattr(cli, "run_study", study_ran)
    (tmp_path / "dir").mkdir()
    code, out, err = run(["study", "--I", "20", "--replicates", "2", "--center-at-truth",
                          "-o", str(tmp_path / "dir")], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "IsADirectoryError"


def test_rescale_zero_is_rejected(tmp_path, sim_csv, capsys):
    code, out, err = run(["fit", "--data", str(sim_csv), "--center", "5,14", "--rescale", "0",
                          "--cache-dir", str(tmp_path / "c")], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "DataError", "exit_code": 2,
                                        "message": "rescale factor must be positive"}


def test_fit_reports_parity_spread(tmp_path, sim_csv, capsys):
    fit = ["fit", "--data", str(sim_csv), "--grid", "3x3", "--spacing", "0.5",
           "--center", "5,14", "--R", "30", "--cache-dir", str(tmp_path / "c")]
    code, out, _ = run(fit + ["-o", str(tmp_path / "grid.json")], capsys)
    assert code == 0
    blob = json.loads((tmp_path / "grid.json").read_text())
    assert 0.0 < blob["parity_spread"] < 1.0
    assert f"parity_spread={blob['parity_spread']:.3g}" in out
    code, out, _ = run(fit + ["--newton", "-o", str(tmp_path / "nt.json")], capsys)
    assert code == 0
    assert 0.0 < json.loads((tmp_path / "nt.json").read_text())["parity_spread"] < 1.0


@pytest.fixture
def truncating_csv(tmp_path):
    # at R=1 the household of three failures has a negative series for
    # shapes n below about 0.9, so part of a grid fails truncation
    hs = (
        Household("bad", (Observation(0, (1,)),) * 3),
        Household("fine", (Observation(1, (1,)),)),
    )
    p = tmp_path / "trunc.csv"
    save_dataset(Dataset(hs, P=1), str(p))
    return p


def test_fit_reports_dropped_grid_points(tmp_path, truncating_csv, sim_csv, capsys):
    # b = 1, n in {0.05, 0.5, 0.95}: only n = 0.95 survives truncation
    fit = ["fit", "--grid", "1x3", "--spacing", "1,0.45", "--center", "1,0.5", "--R", "1",
           "--cache-dir", str(tmp_path / "c"), "-o", str(tmp_path / "fit.json")]
    code, out, _ = run(fit + ["--data", str(truncating_csv)], capsys)
    assert code == 0
    assert "dropped 2 of 3 grid point(s) for truncation" in out.splitlines()
    blob = json.loads((tmp_path / "fit.json").read_text())
    assert blob["dropped"] == 2
    assert [pt["params"] for pt in blob["trace"]] == [[1.0, 0.95]]
    # a Newton refinement keeps the grid's count
    code, out, _ = run(fit + ["--data", str(truncating_csv), "--newton"], capsys)
    assert code == 0
    assert "dropped 2 of 3 grid point(s) for truncation" in out.splitlines()
    assert json.loads((tmp_path / "fit.json").read_text())["dropped"] == 2
    code, out, _ = run(["fit", "--data", str(sim_csv), "--grid", "3x3", "--spacing", "0.5",
                        "--center", "5,14", "--R", "30", "--cache-dir", str(tmp_path / "s")],
                       capsys)
    assert code == 0
    assert "dropped" not in out


def test_plotdata_writes_nan_where_truncation_fails(tmp_path, truncating_csv, capsys):
    out_p = tmp_path / "surface.csv"
    code, out, _ = run(
        ["plotdata", "--data", str(truncating_csv), "--grid", "2x3", "--spacing", "0.5,0.45",
         "--center", "1.25,0.5", "--R", "1", "-o", str(out_p),
         "--cache-dir", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0
    assert out == f"wrote 6 rows to {out_p}\n"
    lines = out_p.read_text().strip().splitlines()
    assert lines[0] == "b1,n1,loglik"
    prep = prepare_dataset(load_dataset(str(truncating_csv)), SeriesConfig(R=1))
    cells = []
    for line in lines[1:]:
        b, n, cell = line.split(",")
        cells.append(cell)
        try:
            expected = log_marginal_prepared(prep, IndependentGamma((float(b),), (float(n),)))
        except TruncationFailure:
            assert cell == "nan"
        else:
            assert float(cell) == pytest.approx(expected.value, rel=1e-9)
    assert cells[0] == cells[1] == "nan" != cells[2]  # b = 1: n = 0.05 and 0.5 fail


def test_fit_newton_reports_non_convergence(tmp_path, sim_csv, capsys, monkeypatch):
    # no iterations allowed, so Newton stops before its gradient test passes
    newton = cli.newton_fit
    monkeypatch.setattr(cli, "newton_fit", lambda *a, **k: newton(*a, max_iters=0, **k))
    code, out, _ = run(["fit", "--data", str(sim_csv), "--grid", "3x3", "--spacing", "0.5",
                        "--center", "5,14", "--R", "30", "--cache-dir", str(tmp_path / "c"),
                        "--newton", "-o", str(tmp_path / "nt.json")], capsys)
    assert code == 0
    assert json.loads((tmp_path / "nt.json").read_text())["converged"] is False
    assert out.splitlines()[-1] == "newton: not converged after 0 iteration(s)"


GAMMA_5_14 = '"family": "independent_gamma", "b": [5.0], "n": [14.0]'


@pytest.mark.parametrize("text, words", [
    ('{"family": "independent_gamma", "b": [5]}', "independent_gamma: missing key(s) 'n'"),
    ('{"family": "freund", "alpha1": 1.0, "alpha2": 2.0, "alpha1p": 1.5}',
     "freund: missing key(s) 'alpha2p'"),
    ("{" + GAMMA_5_14 + ', "eps": 0.0, "bogus": 1}', "independent_gamma: unknown key(s) 'bogus'"),
    ('{"family": "independent_gamma", "b": 5, "n": 14}', "independent_gamma: a value has"),
    ("[1]", "spec must be a JSON object, got list"),
    ('{"family": "point_mass_gamma", "w": 0.2}', "point_mass_gamma: missing key(s) 'inner'"),
    ('{"family": "independent_gamma", "b": ["x"], "n": [14.0]}', "independent_gamma: a value has"),
    ('{"family": "point_mass_gamma", "w": 0.2, "inner": {"family": "gamma_mixture", '
     '"weights": [[1.0]], "b": [[5.0]], "n": [[14.0]]}}',
     "point_mass_gamma inner spec must be independent_gamma"),
], ids=["short", "freund-missing", "extra-key", "scalars", "array", "no-inner", "string",
        "mixture-inner"])
def test_malformed_spec_exits_2_with_one_line(tmp_path, capsys, text, words):
    p = tmp_path / "d.csv"
    save_dataset(Dataset((Household("a", (Observation(1, (1,)),)),), P=1, x_scale=0.1), str(p))
    spec = tmp_path / "s.json"
    spec.write_text(text)
    code, out, err = run(["eval", "--data", str(p), "--spec", str(spec), "--R", "10",
                          "--cache-dir", str(tmp_path / "c")], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "SpecError" and error["message"].startswith(words)


@pytest.mark.parametrize("raw, words", [
    (b'{"family": "independent_gamma", "b": [5.0', "s.json:1: not JSON (Expecting"),
    (b'{"family": "independent_gamma",\n "b": [5.0], "n": [\xff]}',
     "s.json:2: not UTF-8 text (invalid start byte: byte 0xff)"),
], ids=["truncated", "not-utf8"])
def test_unreadable_spec_file_names_its_path(tmp_path, capsys, raw, words):
    p = tmp_path / "d.csv"
    save_dataset(Dataset((Household("a", (Observation(1, (1,)),)),), P=1, x_scale=0.1), str(p))
    spec = tmp_path / "s.json"
    spec.write_bytes(raw)
    code, out, err = run(["eval", "--data", str(p), "--spec", str(spec), "--R", "10",
                          "--cache-dir", str(tmp_path / "c")], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "SpecError"
    assert error["message"].startswith(f"{tmp_path}/{words}")


def test_non_utf8_panel_exits_2_naming_path_and_line(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_bytes(b"household,category,occasion,y,x1\na,1,1,0,1\n\xff,1,1,1,2\n")
    code, out, err = run(["fit", "--data", str(p), "--R", "10", "--center", "5,14",
                          "--cache-dir", str(tmp_path / "c")], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "DataError"
    assert error["message"] == f"{p}:3: not UTF-8 text (invalid start byte: byte 0xff)"


def bad_value_argv(tmp_path, sim_csv, command):
    """A run of ``command`` that succeeds until a flag appended to it is bad;
    its output file is ``tmp_path / "out"``."""
    out = str(tmp_path / "out")
    spec_p = tmp_path / "spec.json"
    save_spec(IndependentGamma((5.0,), (14.0,)), str(spec_p))
    return {
        "simulate": ["simulate", "--I", "3", "--b", "5", "--n", "14", "-o", out],
        "fit": ["fit", "--data", str(sim_csv), "--R", "10", "--center", "5,14", "-o", out,
                "--cache-dir", str(tmp_path / "c")],
        "precompute": ["precompute", "--data", str(sim_csv), "--R", "10",
                       "--cache-dir", out],
        "oracle-check": ["oracle-check", "--data", str(sim_csv), "--spec", str(spec_p),
                         "--R", "10", "--cache-dir", out],
        "study": ["study", "--I", "20", "--R", "10", "--replicates", "2",
                  "--center-at-truth", "-o", out],
    }[command]


@pytest.mark.parametrize("command, flag, value, sep, what", [
    ("simulate", "--x-support", "", ",", "integers"),
    ("simulate", "--x-support", "1.5", ",", "integers"),
    ("simulate", "--x-support", "1,,2", ",", "integers"),
    ("simulate", "--b", "5,x", ",", "numbers"),
    ("simulate", "--n", "", ",", "numbers"),
    ("fit", "--grid", "5xa", "x", "integers"),
    ("fit", "--grid", "5x", "x", "integers"),
    ("fit", "--center", "5,abc", ",", "numbers"),
    ("fit", "--spacing", "0.1,", ",", "numbers"),
    ("precompute", "--recode-negative", "0,x", ",", "integers"),
    ("study", "--x-support", "1,a", ",", "integers"),
])
def test_bad_list_value_exits_2_naming_the_flag(tmp_path, sim_csv, capsys, command, flag,
                                                 value, sep, what):
    argv = bad_value_argv(tmp_path, sim_csv, command) + [f"{flag}={value}"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["message"] == f"{flag} needs {what} separated by {sep!r}, got {value!r}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--seed", "-1", "seed must be an integer in [0, 2**64), got -1"),
    ("simulate", "--seed", str(2**64),
     f"seed must be an integer in [0, 2**64), got {2**64}"),
    ("simulate", "--replicate", "-1", "replicate must be an integer in [0, 2**64), got -1"),
    ("oracle-check", "--seed", "-1",
     "Monte Carlo seed must be an integer in [0, 2**64), got -1"),
    ("study", "--seed", "-1", "seed must be an integer in [0, 2**64), got -1"),
    ("study", "--replicates", "0", "a study needs at least 2 replicates, got 0"),
    ("study", "--replicates", "1", "a study needs at least 2 replicates, got 1"),
    ("study", "--n-tests", "0",
     "n_tests, the Bonferroni family size, must be at least 1, got 0"),
])
def test_bad_seed_or_count_is_a_usage_error(tmp_path, sim_csv, capsys, command, flag, value,
                                            message):
    argv = bad_value_argv(tmp_path, sim_csv, command) + [f"{flag}={value}"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("ValueError", message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "study"])
@pytest.mark.parametrize("flag, value, message", [
    ("--spacing", "nan", "--spacing, axis b1: spacing must be a finite number > 0, got nan"),
    ("--spacing", "inf", "--spacing, axis b1: spacing must be a finite number > 0, got inf"),
    ("--spacing", "-0.1", "--spacing, axis b1: spacing must be a finite number > 0, got -0.1"),
    ("--spacing", "0.1,nan", "--spacing, axis n1: spacing must be a finite number > 0, got nan"),
    ("--grid", "0x7", "--grid, axis b1: count must be at least 1, got 0"),
    ("--grid", "5x0", "--grid, axis n1: count must be at least 1, got 0"),
    ("--center", "5,inf", "--center, axis n1: center must be a finite number, got inf"),
    ("--center", "0.1,14", "--center and --spacing, axis b1: the lowest point must be > 0, "
                           "got -0.1"),
])
def test_bad_grid_axis_names_the_flag_and_the_axis(tmp_path, sim_csv, capsys, command, flag,
                                                   value, message):
    argv = bad_value_argv(tmp_path, sim_csv, command) + [f"{flag}={value}"]
    if command == "study":
        argv.remove("--center-at-truth")
        argv += ["--center", "5,14"] if flag != "--center" else []
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("SpecError", message)
    assert not (tmp_path / "out").exists()


# one run of each subcommand, flags in both forms
PARSER_ARGV = {
    "simulate": ["--I", "5", "--b", "5", "--n", "14", "-o", "x.csv", "--x-support=1,2"],
    "precompute": ["--data", "d.csv", "--R", "30", "--dry-run"],
    "fit": ["--data", "d.csv", "--center", "5,14", "--grid=3x3", "--newton", "-o", "f.json"],
    "eval": ["--data", "d.csv", "--spec", "s.json", "--cache-dir", "c"],
    "oracle-check": ["--data", "d.csv", "--spec", "s.json", "--mc-draws", "10"],
    "study": ["--center-at-truth", "--P", "2"],
    "plotdata": ["--data", "d.csv", "-o", "p.csv", "--rescale", "2"],
}


def subparser(parser, command):
    return parser._subparsers._group_actions[0].choices[command]


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_lean_parser_reads_its_subcommand_as_the_full_parser(command):
    assert set(PARSER_ARGV) == set(cli.SUBCOMMANDS)
    full, lean = cli.build_parser(), cli.build_parser(command)
    argv = [command] + PARSER_ARGV[command]
    assert cli._invoked(argv) == command
    assert lean.parse_args(argv) == full.parse_args(argv)
    assert subparser(lean, command).format_help() == subparser(full, command).format_help()
    assert lean.format_usage() == full.format_usage()


# argv that main reads with the lean parser (any other gets the full one)
@pytest.mark.parametrize("argv", [
    ["fit", "-h"], ["eval", "--help"], ["fit"], ["fit", "--bogus"], ["plotdata", "--grid"],
    ["--config", "fit", "eval", "-h"], ["--config=c.json", "eval"], ["fit", "eval"],
], ids=repr)
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    assert cli._invoked(argv) is not None
    with pytest.raises(SystemExit) as want:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == want.value.code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv, command", [
    (["fit", "--data", "d.csv"], "fit"),
    (["--config", "c.json", "fit"], "fit"),
    (["--config=c.json", "eval"], "eval"),
    (["--config", "fit", "study"], "study"),
    (["--conf", "c.json", "fit"], None),
    (["--version", "fit"], None),
    (["-h", "fit"], None),
    (["-", "fit"], None),
    (["--config", "c.json"], None),
    (["fitt"], None),
    ([], None),
])
def test_invoked_subcommand(argv, command):
    assert cli._invoked(argv) == command
