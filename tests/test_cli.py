import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from snaflow import __version__
from snaflow.cli import main, write_csv
from snaflow.config import ConfigError, load_config

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def oracle_cfg(tmp_path, **extra):
    payload = {
        "seed": 0,
        "rho": [GOLDEN, 1.0],
        "family": {"kind": "autonomous_riccati", "a2": -1.0, "a0": 1.0,
                   "beta_slope": -2.0},
        "grid_n": 16,
        "tol_beta": 1e-5,
        "beta_range": [0.0, 1.0],
        "out_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    return write_cfg(tmp_path, payload)


def radial_cfg(tmp_path, **extra):
    payload = {
        "seed": 1,
        "rho": [GOLDEN, math.pi],
        "family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.3,
                   "center": [0.5, 0.8]},
        "grid_n": 256,
        "n_iter": 1000,
        "beta": 0.05,
        "out_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    return write_cfg(tmp_path, payload)


# a radial family and drive the audit accepts: only its beta_grid is at fault
B6_AUDIT = {
    "family": {"kind": "radial_logistic", "b": 6.0, "bump_radius": 0.28, "center": [0.3, 0.65]},
    "rho": [GOLDEN * 0.25, 0.25],
}


def read_meta(path):
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition(": ")
            meta[key] = value
    return meta


class TestConfigValidation:
    def test_field_path_in_error(self):
        with pytest.raises(ConfigError, match="family.b"):
            load_config({"family": {"kind": "radial_logistic", "bump_radius": 0.3,
                                    "center": [0.5, 0.8]}, "rho": [0.1, 1.0]})

    def test_rho_dimension_check(self):
        with pytest.raises(ConfigError, match="rho"):
            load_config({"family": {"kind": "cos11", "b": 100.0}, "rho": [0.1, 0.2, 1.0]})

    def test_beta_inside_family_range(self):
        with pytest.raises(ConfigError, match="beta"):
            load_config({
                "family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.3,
                           "center": [0.5, 0.8]},
                "rho": [GOLDEN, math.pi],
                "beta": 3.0,
            })

    def test_readme_example_config_loads(self):
        # the README's example config is a valid config, so it cannot go stale
        text = open(README, encoding="utf-8").read()
        block = re.search(r"Example config \(JSON\):\n\n```json\n(.*?)```", text, re.S)
        cfg = load_config(json.loads(block.group(1)))
        assert (cfg.integrator.rel_tol, cfg.beta) == (1e-10, 0.2)

    def test_exit_code_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"family": {"kind": "nope"}, "rho": [0.1, 1.0]})
        assert main(["graphs", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_tol_beta_is_a_config_error(self, tmp_path, capsys):
        path = oracle_cfg(tmp_path, tol_beta=0)
        assert main(["bifurcate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: tol_beta:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unusable_out_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # an --out that names a regular file fails before any computation runs
        import snaflow.cli as cli

        calls = []
        monkeypatch.setattr(cli, "locate_beta_c", lambda *args, **kwargs: calls.append(1))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["bifurcate", "--config", oracle_cfg(tmp_path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "config error: out:" in err and "Traceback" not in err
        assert calls == []

    def test_unwritable_artifact_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trajectory.csv.tmp").mkdir(parents=True)
        path = radial_cfg(tmp_path, simulate={"theta0": [0.1, 0.2], "x0": 0.5,
                                              "t_final": 0.1, "n_samples": 4})
        assert main(["simulate", "--config", path]) == 2
        assert "config error: out:" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["graphs", "figure1"])
    def test_non_object_config_is_a_config_error(self, tmp_path, capsys, subcommand):
        path = write_cfg(tmp_path, [1, 2])
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: top-level config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, block, path", [
        ("boxdim", {"boxdim": {"n_points": 500}}, "boxdim.n_points"),
        ("boxdim", {"boxdim": {"epsilons_pow": [3]}}, "boxdim.epsilons_pow"),
        ("simulate", {"simulate": {"n_samples": "ten"}}, "simulate.n_samples"),
        ("audit", {"audit": {"delta1": "x", "delta2": 0.012}}, "audit.delta1"),
        ("classify", {"classify": {"thresholds": {"nope": 1}}}, "classify.thresholds.nope"),
        ("graphs", {"rho": [3.14159, 0.618]}, "rho"),
        ("simulate", {"rho": [0.618, -3.14159]}, "rho"),
        ("lyapunov", {"rho": [0.618, 0]}, "rho"),
        ("bifurcate", {"beta_range": [180, 170]}, "beta_range"),
        ("bifurcate", {"family": {"kind": "cos11", "b": 100.0}, "beta_range": [170, 500]},
         "beta_range"),
        ("audit", {"audit": {"delta1": 0.5, "delta2": 0.012}}, "audit.delta1"),
        ("audit", {"audit": {"M": 1}}, "audit.M"),
        ("audit", {"audit": {"p": 1.0}}, "audit.p"),
        ("audit", {"audit": {"K": 2}}, "audit.K"),
        ("graphs", {"grid": 64}, "grid"),
        ("boxdim", {"boxdim": {"n_point": 500}}, "boxdim.n_point"),
        ("graphs", {"integrator": {"reltol": 1e-9}}, "integrator.reltol"),
        ("graphs", {"section_offset": 0.3}, "section_offset"),
        ("graphs", {"integrator": {"max_step": 0}}, "integrator.max_step"),
        ("audit", {"family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.28,
                              "center": [0.3, 0.1]},
                   "audit": {"delta1": 0.008, "delta2": 0.004}},
         "audit: bump straddles the section"),
        ("audit", dict(B6_AUDIT, audit={"delta1": 0.05, "delta2": 0.012, "beta_grid": []}),
         "audit.beta_grid: must hold at least one beta"),
        ("audit", dict(B6_AUDIT, audit={"delta1": 0.05, "delta2": 0.012,
                                        "beta_grid": [0.0, 1.5]}),
         "audit.beta_grid: 1.5 outside the family's range"),
        ("audit", {"family": {"kind": "logistic_harvest", "b": 6.0, "r": 1.0,
                              "bump_radius": 0.28, "center": [0.3, 0.65]},
                   "rho": B6_AUDIT["rho"], "audit": {"delta1": 0.05, "delta2": 0.012}},
         "audit: family must be radial_logistic"),
        ("graphs", {"projection_tol": 1e-9}, "projection_tol"),
        ("graphs", {"family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.3,
                               "center": [0.3]}, "rho": [0.25]},
         "family.center: needs at least 2 components"),
        ("simulate", {"family": {"kind": "logistic_harvest", "b": 4.0, "r": 1.0,
                                 "bump_radius": 0.3, "center": [0.3]}, "rho": [0.25]},
         "family.center: needs at least 2 components"),
        ("graphs", {"integrator": {"method": "rk45"}}, "integrator.method: unknown key"),
        ("graphs", {"integrator": {"rk4_step": 0.01}}, "integrator.rk4_step: unknown key"),
        ("graphs", {"threads": 2}, "threads: unknown key"),
        # 1/rho_D overflows to inf: the section return time is no number
        ("graphs", {"rho": [0.0, 1e-320]}, "rho: the last component must be positive, with"),
        ("figure1", {"rho": [0.0, 1e-320]}, "rho: the last component must be positive, with"),
        ("audit", {"rho": [0.0, 1e-320]}, "rho: the last component must be positive, with"),
        # the Möbius table's sub-return count S overflows or passes its cap
        ("graphs", {"family": {"kind": "radial_logistic", "b": 1e300, "bump_radius": 0.3,
                               "center": [0.5, 0.8]}, "beta": 0.1},
         "family, rho: T max||A||_F / pi = inf needs more than the 1048576 sub-returns"),
        ("graphs", {"family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.3,
                               "center": [0.5, 0.8], "beta_range": [0.0, 1e300]},
                    "beta": 1e300},
         "family, rho: T max||A||_F / pi = inf needs more than the 1048576 sub-returns"),
        ("graphs", {"rho": [0.0, 1e-300]}, "family, rho: T max||A||_F / pi = 1.80063e+300 needs"),
        ("figure1", {"rho": [0.0, 1e-300]}, "family, rho: T max||A||_F / pi = 1.80063e+300 needs"),
        ("audit", {"rho": [0.0, 1e-300]}, "family, rho: T max||A||_F / pi = 1.80063e+300 needs"),
        ("simulate", {"rho": [0.0, 1e-300]}, "family, rho: T max||A||_F / pi = 1.80063e+300 needs"),
        ("graphs", {"family": {"kind": "autonomous_riccati", "a2": -1.0, "a0": 1.0,
                               "beta_slope": -2.0, "beta_power": 2,
                               "beta_range": [0.0, 1e300]}, "rho": [GOLDEN, 1.0], "beta": 0.5},
         "family, rho: T max||A||_F / pi = inf needs"),
        # past R = 1/2 the bump reaches the cut locus and its derivative jumps
        ("graphs", {"family": {"kind": "radial_logistic", "b": 4.0, "bump_radius": 0.6,
                               "center": [0.5, 0.8]}},
         "family: bump support radius must lie in (0, 1/2], got 0.6"),
        ("graphs", {"family": {"kind": "logistic_harvest", "b": 4.0, "r": -1.0,
                               "bump_radius": 0.3, "center": [0.5, 0.8]}},
         "family: carrying capacity r must be positive"),
    ])
    def test_malformed_block_is_a_config_error(self, tmp_path, capsys, subcommand, block,
                                               path):
        cfg = radial_cfg(tmp_path, **block)
        assert main([subcommand, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, drop, block, message", [
        ("simulate", ["beta"], {}, "beta: required for this subcommand"),
        ("graphs", ["beta"], {}, "beta: required for this subcommand"),
        ("lyapunov", ["beta"], {}, "beta: required for this subcommand"),
        ("boxdim", ["beta"], {}, "beta: required for this subcommand"),
        ("bifurcate", [], {}, "beta_range: required for bifurcate"),
        ("classify", [], {}, "beta_range: required for classify"),
        ("audit", [], {}, "audit: block required for the audit subcommand"),
        ("audit", [], {"audit": {"delta1": 0.008}}, "audit.delta2: required field missing"),
        ("figure1", [], {}, "family.kind: figure1 requires the cos11 family"),
    ])
    def test_missing_requirement_is_a_config_error(self, tmp_path, capsys, subcommand, drop,
                                                   block, message):
        # each subcommand's requirement fails before any work, like a malformed value
        payload = json.load(open(radial_cfg(tmp_path, **block)))
        for key in drop:
            del payload[key]
        assert main([subcommand, "--config", write_cfg(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, payload, message", [
        # the audit's default beta_grid reaches 0.75, past this family's range
        ("audit", {"family": {"kind": "radial_logistic", "b": 6.0, "bump_radius": 0.28,
                              "center": [0.3, 0.65], "beta_range": [0.0, 0.5]},
                   "rho": [0.1545084971874737, 0.25], "grid_n": 16,
                   "audit": {"c": 0.2, "delta1": 0.05, "delta2": 0.012, "sample_n": 4}},
         "audit.beta_grid: 0.75 outside the family's range [0.0, 0.5]"),
        # a null figure1 beta is the reference 176.01538, past this family's range
        ("figure1", {"family": {"kind": "cos11", "b": 100.0, "beta_range": [0.0, 100.0]},
                     "beta": None, "grid_n": 16, "lift_grid": 16},
         "beta: 176.01538 outside the family's range [0.0, 100.0]"),
    ])
    def test_default_is_checked_like_a_given_value(self, tmp_path, capsys, subcommand,
                                                   payload, message):
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_cfg(tmp_path, payload), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_default_is_resolved(self):
        cfg = load_config(dict(B6_AUDIT, audit={"delta1": 0.05, "delta2": 0.012}))
        assert cfg.extras == {
            "simulate": {"theta0": [0.0, 0.0], "x0": 0.0, "t_final": 1.0, "n_samples": 200},
            "boxdim": {"target": "attractor", "n_points": 100_000, "epsilons_pow": [3, 12],
                       "normalize_fibre": False},
            "audit": {"delta1": 0.05, "delta2": 0.012, "c": 0.2,
                      "beta_grid": [0.0, 0.25, 0.5, 0.75], "sample_n": 1000,
                      "K": 50, "M": 2, "p": 2.0, "eta": 2.0, "C_prime": None},
            "classify": {"thresholds": {}},
        }
        # a lift's ladder stops at 2^-9
        lift = load_config(dict(B6_AUDIT, boxdim={"target": "lift"}))
        assert lift.extras["boxdim"]["epsilons_pow"] == [3, 9]
        assert "audit" not in lift.extras

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        path = oracle_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bifurcate", "--config", path, "--threads", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 4" in err
        assert "Traceback" not in err


class TestSubcommands:
    def test_bifurcate_oracle(self, tmp_path, capsys):
        path = oracle_cfg(tmp_path)
        assert main(["bifurcate", "--config", path]) == 0
        doc = json.load(open(tmp_path / "out" / "trace.json"))
        assert abs(doc["beta_c"] - 0.5) <= 1e-5
        assert doc["predicate_monotone"] is True
        assert doc["config_sha256"]

    def test_simulate_trajectory(self, tmp_path):
        path = radial_cfg(tmp_path, simulate={"theta0": [0.1, 0.2], "x0": 0.5,
                                              "t_final": 0.5, "n_samples": 16})
        assert main(["simulate", "--config", path]) == 0
        csv_path = tmp_path / "out" / "trajectory.csv"
        meta = read_meta(csv_path)
        assert "config_sha256" in meta
        rows = [l for l in open(csv_path) if not l.startswith("#")]
        assert rows[0].strip() == "t,x,log_dx,dtheta,dtheta2"
        assert len(rows) == 18  # header + 17 samples

    @pytest.mark.parametrize("make_cfg, beta", [(radial_cfg, 0.05), (oracle_cfg, 0.25)])
    def test_simulate_integrates_once_through_the_samples(self, tmp_path, monkeypatch,
                                                         make_cfg, beta):
        import snaflow.flow as flow

        calls = []
        original = flow._rk45_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(flow, "_rk45_batch", counting)
        sim = {"theta0": [0.1, 0.2], "x0": 0.5, "t_final": 0.8, "n_samples": 10}
        path = make_cfg(tmp_path, beta=beta, simulate=sim)
        assert main(["simulate", "--config", path]) == 0
        monkeypatch.undo()
        cfg = load_config(json.loads(open(path).read()))
        # the bump family integrates each chord of the trajectory through the
        # bump once, for all samples in one driver call; the flat oracle (roots
        # +-sqrt(0.5)) flows in closed form and makes no driver call
        if make_cfg is radial_cfg:
            chords, _ = flow._chords(cfg.family.shape, np.array([sim["theta0"]]),
                                     np.array(cfg.rho), np.array([sim["t_final"]]))
            assert chords.shape[1] >= 2 and len(calls) == chords.shape[1]
        else:
            assert len(calls) == 0
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            rows = [[float(v) for v in line.split(",")] for line in fh
                    if not line.startswith(("#", "t,"))]
        for t, x, log_dx, dtheta, dtheta2 in rows:
            state = flow.integrate(cfg.family, beta, cfg.rho, sim["theta0"], sim["x0"], t,
                                   cfg.integrator)
            want = (state.x, state.log_dx, state.dtheta, state.dtheta2)
            assert max(abs(a - b) for a, b in zip((x, log_dx, dtheta, dtheta2), want)) <= 1e-8

    def test_graphs_and_artifacts(self, tmp_path):
        path = radial_cfg(tmp_path)
        assert main(["graphs", "--config", path]) == 0
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == [
            "attractor.csv", "gap_stats.json", "pair.csv", "repeller.csv",
        ]
        stats = json.load(open(out / "gap_stats.json"))
        assert 0.0 < stats["gap_min"] <= stats["gap_median"] <= stats["gap_max"]

    def test_escape_gives_exit_three(self, tmp_path, capsys):
        path = radial_cfg(tmp_path, beta=1.0, family={
            "kind": "radial_logistic", "b": 100.0, "bump_radius": 0.45,
            "center": [0.5, 0.5]}, rho=[GOLDEN, 1.2], grid_n=64)
        assert main(["graphs", "--config", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_escaping_simulate_gives_exit_three(self, tmp_path, capsys):
        # x' = -x^2 + 0.5 from x0 = -2, below the repeller -c (c = sqrt(0.5)),
        # reaches -20 at (atanh(c/2) - atanh(c/20))/c: the samples after it
        # escape, stamped with that exact crossing
        sim = {"theta0": [0.1, 0.2], "x0": -2.0, "t_final": 1.0, "n_samples": 10}
        path = oracle_cfg(tmp_path, beta=0.25, simulate=sim,
                          integrator={"escape": [-20.0, 20.0]})
        assert main(["simulate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        prefix = "numerical failure: trajectory left the escape window by t="
        assert err.startswith(prefix)
        c = math.sqrt(0.5)
        want = (math.atanh(c / 2.0) - math.atanh(c / 20.0)) / c
        assert float(err[len(prefix):]) == pytest.approx(want, rel=1e-12)
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        path = radial_cfg(tmp_path, grid_n=128)
        assert main(["graphs", "--config", path]) == 0
        blobs = {}
        for name in ("attractor.csv", "pair.csv", "gap_stats.json"):
            blobs[name] = open(tmp_path / "out" / name, "rb").read()
        assert main(["graphs", "--config", path]) == 0
        for name, blob in blobs.items():
            assert open(tmp_path / "out" / name, "rb").read() == blob

    def test_boxdim_artifacts(self, tmp_path):
        for target in ("attractor", "lift"):
            path = radial_cfg(tmp_path, grid_n=512, out_dir=str(tmp_path / target), boxdim={
                "target": target, "n_points": 20_000, "epsilons_pow": [3, 9]})
            assert main(["boxdim", "--config", path]) == 0
            out = tmp_path / target
            assert sorted(os.listdir(out)) == ["boxdim_summary.json", "ladder.csv"]
            summary = json.load(open(out / "boxdim_summary.json"))
            assert (summary["target"], summary["n_points"]) == (target, 20_000)

    def test_figure1_defaults_small_grid(self, tmp_path):
        # schema check at a desk-friendly grid; the acceptance suite runs 256^2
        path = write_cfg(tmp_path, {
            "seed": 0,
            "grid_n": 64,
            "lift_grid": 16,
            "n_iter": 4000,
            "integrator": {"escape": [-25.0, 25.0]},
            "out_dir": str(tmp_path / "fig"),
        })
        assert main(["figure1", "--config", path]) == 0
        names = sorted(os.listdir(tmp_path / "fig"))
        assert names == [
            "attractor_lift.csv",
            "repeller_lift.csv",
            "slice_theta1_0p0000.csv",
            "slice_theta1_0p3333.csv",
            "slice_theta1_0p6667.csv",
        ]
        rows = [l for l in open(tmp_path / "fig" / "attractor_lift.csv")
                if not l.startswith("#")]
        assert rows[0].strip() == "theta_1,theta_2,value"
        assert len(rows) == 1 + 16 * 16


class TestWriteCsv:
    def _reference(self, cfg, header, columns):
        # the row-wise formatting: repr of every element, one row at a time
        lines = [f"# snaflow_version: {__version__}",
                 "# command: test", f"# config_sha256: {cfg.sha256}", ",".join(header)]
        rows = np.column_stack(columns).astype(float).tolist()
        lines.extend(",".join(map(repr, row)) for row in rows)
        return ("\n".join(lines) + "\n").encode()

    def test_bytes_match_row_wise_repr(self, tmp_path):
        cfg = load_config(json.load(open(oracle_cfg(tmp_path))))
        signed = np.array([0.0, -0.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 0.1])
        repeats = np.array([0.1 + 0.2, 0.3, 0.1 + 0.2, 1e-300, 1e300, 0.3, 5e-324, 2.5])
        counts = np.array([16, 16, 1, 0, -3, 2**53, 7, 16])
        for columns in ([signed, repeats, counts], [signed[:0], repeats[:0], counts[:0]]):
            header = ["signed", "repeats", "counts"]
            path = tmp_path / "t.csv"
            write_csv(str(path), cfg, "test", header, columns)
            assert path.read_bytes() == self._reference(cfg, header, columns)
        assert path.read_text().endswith("signed,repeats,counts\n")


class TestBenchSpans:
    def test_every_traced_name_exists(self):
        # bench/spans.py wraps named functions of the package for `run.py --trace 1`;
        # installing it fails as soon as one of those names is renamed or deleted
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        paths = [os.path.join(root, "bench"), os.path.join(root, "src")]
        code = (f"import sys; sys.path[:0] = {paths!r}; "
                "import spans; spans.install(spans.Recorder())")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
