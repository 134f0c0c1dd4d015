import json
from pathlib import Path

import numpy as np
import pytest

from gkdvlab import probes
from gkdvlab.cli import build_data, main
from gkdvlab.config import load_config
from gkdvlab.grid import Field, Grid, half_spectrum, make_grid
from gkdvlab.io import load_field, load_trajectory, save_field
from gkdvlab.streams import child_seed
from gkdvlab.wiener import sampler


def _must_not_run(*args, **kwargs):
    raise AssertionError("drew past the entry checks")


def write_cfg(tmp_path: Path, body: str) -> str:
    p = tmp_path / "run.ini"
    p.write_text(body)
    return str(p)


SMALL_GRID = """
[grid]
half_length = 16.0
n_modes = 64

[time]
t_span = 4.0
m_t = 256
"""


class TestRandomize:
    def test_writes_fields_and_norms(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID
            + "[data]\nband_limit = 3.0\n\n[ensemble]\nn_fields = 3\n",
        )
        out = tmp_path / "o1"
        assert main(["randomize", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"phi.field", "sample_000.field", "sample_001.field",
                "sample_002.field", "norms.csv", "manifest.json"} <= names

    def test_ones_distribution_reproduces_input(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + "[data]\nband_limit = 3.0\n\n[random]\ndistribution = ones\n",
        )
        out = tmp_path / "o2"
        assert main(["randomize", "--config", cfg, "--out", str(out)]) == 0
        phi = load_field(out / "phi.field")
        sample = load_field(out / "sample_000.field")
        assert np.max(np.abs(sample.values - phi.values)) <= 1e-12

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + "[data]\nband_limit = 3.0\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["randomize", "--config", cfg, "--out", str(out1), "--seed", "17"]) == 0
        assert main(["randomize", "--config", cfg, "--out", str(out2), "--seed", "17"]) == 0
        for name in ("phi.field", "sample_000.field", "norms.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]

    def test_sech_power_data(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + "[data]\nkind = sech-power\nwidth = 2.0\n")
        out = tmp_path / "o3"
        assert main(["randomize", "--config", cfg, "--out", str(out)]) == 0
        want = np.cosh(make_grid(16.0, 64).x / 2.0) ** (-2.0 / 7.0)
        assert np.array_equal(load_field(out / "phi.field").values, want)
        assert load_field(out / "sample_000.field").values.dtype == np.float64

    @pytest.mark.parametrize("kind, width", [("sech-power", 0.01), ("gaussian-bump", 1e-160)])
    def test_narrow_profile_exit_0(self, tmp_path, kind, width):
        # far from x = 0, cosh(x / w) and (x / w)^2 overflow to inf, whose
        # limits exp(-inf) = inf^(-2/7) = 0 the profile takes without a
        # RuntimeWarning, which the suite's filter would raise
        grid = "[grid]\nhalf_length = 32.0\nn_modes = 64\n"
        cfg = write_cfg(tmp_path, grid + f"[data]\nkind = {kind}\nwidth = {width}\n")
        out = tmp_path / "x"
        assert main(["randomize", "--config", cfg, "--out", str(out)]) == 0
        phi = load_field(out / "phi.field")
        assert phi.values[32] == 1.0 and np.all(np.isfinite(phi.values))


    @pytest.mark.parametrize("seed", [20260810, 7])
    def test_fields_are_the_per_seed_draws(self, tmp_path, seed):
        # the seeds and coefficients of every field come from one batched
        # pass, with the bytes of the per-seed child_seed and sample(seed)
        cfg_path = write_cfg(tmp_path, SMALL_GRID + "[ensemble]\nn_fields = 5\n")
        out = tmp_path / "o"
        assert main(["randomize", "--config", cfg_path, "--out", str(out), "--seed", str(seed)]) == 0
        cfg = load_config(cfg_path, {"random.master_seed": seed})
        sample = sampler(build_data(cfg), cfg["random"]["distribution"])
        for k in range(5):
            expected = sample(child_seed(seed, k))
            dumped = load_field(out / f"sample_{k:03d}.field")
            assert dumped.values.tobytes() == expected.values.tobytes()
        rows = (out / "norms.csv").read_text().splitlines()[2:]
        assert [int(row.split(",")[1]) for row in rows] == [child_seed(seed, k) for k in range(5)]


class TestBuildData:
    @pytest.mark.parametrize("kind", ["gaussian-bump", "sech-power"])
    def test_data_transformed_once(self, tmp_path, monkeypatch, kind):
        # the finiteness check's real transform is the half the sampler and
        # the solvers read: one rfft of the data, with the same bytes
        cfg = load_config(write_cfg(tmp_path, SMALL_GRID + f"[data]\nkind = {kind}\n"))
        calls = []
        forward = Grid.real_forward
        monkeypatch.setattr(Grid, "real_forward", lambda self, v: calls.append(1) or forward(self, v))
        phi = build_data(cfg)
        sample = sampler(phi, "gaussian")
        assert half_spectrum(phi) is sample.half and len(calls) == 1
        assert sample.half.tobytes() == forward(phi.grid, phi.values).tobytes()


class TestSimulate:
    def test_zero_data_zero_trajectory(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + "[data]\namplitude = 0.0\n\n[simulate]\nt_end = 0.01\ndt = 1e-3\n",
        )
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        traj = load_trajectory(out / "trajectory.bin")
        assert np.max(np.abs(traj.u.values)) == 0.0
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert all(row.split(",")[2:] == ["0", "0", "0"] for row in diag[1:])

    def test_blowup_exits_3_and_truncates(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + "[data]\namplitude = 10.0\n\n[simulate]\nt_end = 0.5\ndt = 1e-2\n",
        )
        out = tmp_path / "blow"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        traj = load_trajectory(out / "trajectory.bin")
        assert traj.blown_up
        assert traj.first_bad_step is not None


class TestConfigErrors:
    def test_bad_config_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[grid]\nn_modes = 63\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_estimate_id_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[estimates]\nids = embed99\n")
        assert main(["verify-estimates", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_estimate_id_reports_the_probes_message(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[estimates]\nids = embed12, embed99\n")
        out = tmp_path / "x"
        assert main(["verify-estimates", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown estimate id") == 1
        assert "unknown estimate id 'embed99'; valid ids: embed01, " in err
        assert not out.exists()

    def test_repeated_estimate_id_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[estimates]\nids = embed01,bilinear_l2,embed01\n")
        out = tmp_path / "x"
        assert main(["verify-estimates", "--config", cfg, "--out", str(out)]) == 2
        assert "repeated estimate id 'embed01'" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_below_one_exit_2(self, tmp_path):
        # the flag and key have no effect, but are still checked
        cfg = write_cfg(tmp_path, "[ensemble]\nthreads = 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert main(["simulate", "--out", str(tmp_path / "y"), "--threads", "0"]) == 2

    def test_small_ensemble_for_tails_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[ensemble]\nn_samples = 10\n")
        assert main(["strichartz-tail", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_tail_problems_reported_in_one_run(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "[ensemble]\nn_samples = 10\n[strichartz]\nq = 0.5\nt_grid = 0.25,0.5\n"
        )
        out = tmp_path / "x"
        assert main(["strichartz-tail", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[strichartz] q must be >= 1 and finite" in err
        assert "[strichartz] t_grid needs at least three T values" in err
        assert "[ensemble] n_samples must be >= 1000" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("lwp", "tol", "0"),
            ("lwp", "n_samples", "50"),
            ("lwp", "max_iter", "0"),
            ("estimates", "n_modes", "63"),
            ("estimates", "m_t", "15"),
            ("estimates", "n_trials", "0"),
            ("lwp", "xi_band", "0"),
            ("lwp", "t_grid", "0.0625,0.125"),
            ("lwp", "t_grid", "0.25,nan"),
            ("lwp", "t_grid", "inf,0.25"),
            ("lwp", "t_grid", "0.25,0.25"),
            ("strichartz", "t_grid", "0.125,0.25,nan"),
            ("strichartz", "t_grid", "0.125,inf,0.5"),
            ("estimates", "half_length", "0"),
            ("estimates", "half_length", "inf"),
            ("grid", "half_length", "inf"),
            ("strichartz", "q", "0.5"),
            ("strichartz", "q", "inf"),
            ("strichartz", "r", "0.5"),
            ("strichartz", "n_time_samples", "0"),
            ("simulate", "dt", "0"),
            ("simulate", "output_stride", "-1"),
            ("simulate", "diag_stride", "0"),
            ("time", "t_span", "0"),
            ("time", "t_span", "-4"),
            ("time", "t_span", "inf"),
            ("estimates", "t_span", "0"),
            ("estimates", "t_span", "-2"),
            ("estimates", "t_span", "inf"),
            ("estimates", "xi_band", "-1"),
            ("estimates", "xi_band", "nan"),
            ("simulate", "t_end", "0"),
            # 1.5 steps of the default dt = 1e-4
            ("simulate", "t_end", "0.00015"),
            # the default 10000 steps are no multiple of 3
            ("simulate", "output_stride", "3"),
            ("data", "band_limit", "nan"),
            ("data", "band_limit", "-3"),
            ("random", "master_seed", "-1"),
            ("ensemble", "n_fields", "-3"),
            ("estimates", "ids", ","),
        ],
    )
    def test_bad_run_key_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n")
        command = {"lwp": "lwp-ensemble", "estimates": "verify-estimates",
                   "strichartz": "strichartz-tail", "simulate": "simulate",
                   "time": "lwp-ensemble", "grid": "lwp-ensemble", "data": "simulate",
                   "random": "randomize", "ensemble": "randomize"}[section]
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        # "must be" for a bound, "must name" for the estimate ids
        assert f"[{section}] {key} must " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["randomize", "--seed", "-1", "--out", str(out)]) == 2
        assert "[random] master_seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_grid", ["0.125,0.125,0.125", "0.125,0.125,0.25"])
    def test_repeated_strichartz_T_exit_2(self, tmp_path, capsys, t_grid):
        cfg = write_cfg(tmp_path, f"[strichartz]\nt_grid = {t_grid}\n")
        out = tmp_path / "x"
        assert main(["strichartz-tail", "--config", cfg, "--out", str(out)]) == 2
        assert "[strichartz] t_grid needs at least three T values" in capsys.readouterr().err
        assert not out.exists()

    def test_data_index_is_unknown_key_exit_2(self, tmp_path, capsys):
        # s derives from epsilon like every other exponent
        cfg = write_cfg(tmp_path, "[model]\ns = 0.3\n")
        out = tmp_path / "x"
        assert main(["randomize", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key 's' in section [model]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_max", [-3, 1])
    @pytest.mark.parametrize("command", ["randomize", "strichartz-tail", "lwp-ensemble"])
    def test_bad_n_max_exit_2_before_sampling(self, tmp_path, capsys, command, n_max):
        # the sampler reads the coefficient range off the data: n_max is no key
        preset = (Path(__file__).parents[1] / "configs" / "lwp.ini").read_text()
        body = preset.replace("[random]\n", f"[random]\nn_max = {n_max}\n")
        cfg = write_cfg(tmp_path, body + "\n[ensemble]\nn_samples = 1000\n")
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key 'n_max' in section [random]" in capsys.readouterr().err
        assert not out.exists()


class TestDataErrors:
    @pytest.mark.parametrize("key, value", [("amplitude", "inf"), ("amplitude", "nan"),
                                            ("width", "0"), ("width", "inf")])
    @pytest.mark.parametrize("command", ["simulate", "lwp-ensemble"])
    def test_bad_profile_key_exit_2(self, tmp_path, capsys, command, key, value):
        cfg = write_cfg(tmp_path, f"[data]\n{key} = {value}\n")
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"[data] {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["randomize", "simulate", "strichartz-tail", "lwp-ensemble"]
    )
    def test_non_finite_file_data_exit_2(self, tmp_path, capsys, command):
        grid = make_grid(16.0, 64)
        values = np.exp(-(grid.x**2))
        values[5] = np.nan
        path = save_field(tmp_path / "phi.field", Field(grid, values))
        cfg = write_cfg(tmp_path, SMALL_GRID + f"[data]\nkind = file\npath = {path}\n")
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "holds non-finite samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["randomize", "simulate"])
    def test_band_limit_that_overflows_exit_2(self, tmp_path, capsys, command):
        # finite config values: the forward transform of 64 samples near
        # 1e308 overflows, and the band-limited data come out NaN. The
        # suite's RuntimeWarning filter stays on, so no warning may escape
        body = SMALL_GRID + "[data]\namplitude = 1e308\nband_limit = 2.0\n"
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[data] the data band-limited to |xi| <= 2.0 are not finite" in err
        assert "[random]" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["randomize", "simulate", "strichartz-tail", "lwp-ensemble"]
    )
    def test_data_whose_transform_overflows_exit_2(self, tmp_path, capsys, command):
        # no band limit: such data once passed, and randomize wrote inf and
        # NaN norms, simulate blew up at step 1 and lwp-ensemble booked every
        # sample as a failure of local solvability
        body = SMALL_GRID + "[data]\namplitude = 1e308\n"
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[data] the half spectrum of the data is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            None,  # missing
            b"not a field dump",  # no header end
            b"gkdvlab-trajectory 1\n---\n",  # another dump's magic
            b"gkdvlab-field 1\nL 16.0\n---\n",  # no N, rows or cols
            b"gkdvlab-field 1\nL 16.0\nN 64\nrows 1\ncols 64\n---\n",  # no samples
        ],
        ids=["missing", "no-header-end", "other-magic", "no-shape", "no-samples"],
    )
    def test_unreadable_file_data_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "phi.field"
        if content is not None:
            path.write_bytes(content)
        cfg = write_cfg(tmp_path, SMALL_GRID + f"[data]\nkind = file\npath = {path}\n")
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "[data] cannot load field file" in capsys.readouterr().err
        assert not out.exists()


class TestStrichartzTail:
    def test_scales_count_the_samples_used(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + "[ensemble]\nn_samples = 1000\n[strichartz]\nn_time_samples = 16\n",
        )
        out = tmp_path / "tail"
        assert main(["strichartz-tail", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "scales.csv").read_text().splitlines()
        assert lines[0] == "T,scale,ci_lo,ci_hi,n_used"
        assert [line.split(",")[-1] for line in lines[1:]] == ["1000"] * 3


    @pytest.mark.parametrize(
        "randomization",
        [
            # one atom: every sample is phi itself
            "[random]\ndistribution = ones\n",
            # |xi| <= 0.5 takes n_max = 2, 32 atoms: the tail quantiles coincide
            "[random]\ndistribution = rademacher\n[data]\nband_limit = 0.5\n",
        ],
    )
    def test_tail_without_fit_exit_2(self, tmp_path, capsys, randomization):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + randomization
            + "[ensemble]\nn_samples = 1000\n[strichartz]\nn_time_samples = 16\n",
        )
        out = tmp_path / "tail"
        assert main(["strichartz-tail", "--config", cfg, "--out", str(out)]) == 2
        assert "no tail fit: degenerate observations" in capsys.readouterr().err
        assert not out.exists()


    def test_every_sample_blown_up_exit_2(self, tmp_path, capsys):
        # every sample's L^4 norm overflows, so no observation is left for
        # the tail fit of any T
        cfg = write_cfg(
            tmp_path,
            "[grid]\nhalf_length = 16.0\nn_modes = 128\n[data]\namplitude = 1e100\n"
            "[ensemble]\nn_samples = 1000\n[strichartz]\nn_time_samples = 16\n",
        )
        out = tmp_path / "tail"
        assert main(["strichartz-tail", "--config", cfg, "--out", str(out)]) == 2
        assert "no tail fit: tail fit needs >= 1000 samples, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyEstimates:
    def test_single_id_writes_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[estimates]\nids = embed12\nn_trials = 10\n",
        )
        out = tmp_path / "ve"
        assert main(["verify-estimates", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "embed12.csv").read_text().splitlines()
        assert lines[0] == "estimate_id,trial,lhs,rhs,ratio"
        assert len(lines) == 11
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("embed12,10,0,")

    def test_precondition_violation_exit_4(self, tmp_path):
        # xi_band too wide for the tau axis: the dispersive weight would alias
        cfg = write_cfg(
            tmp_path,
            "[estimates]\nids = embed12\nn_trials = 2\nxi_band = 6.0\n",
        )
        assert main(["verify-estimates", "--config", cfg, "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize(
        "body, message",
        [
            # the linear probe's cutoffs reach T = 1/4: support [-1/2, 1/2]
            ("ids = linear_free\nt_span = 0.9\n",
             "linear_free: cutoff support [-2T, 2T] with T = 0.25 needs t_span >= 1"),
            # the octilinear probes' unit cutoff: support [-2, 2]
            ("ids = embed12, octilinear_mixed\nt_span = 2.0\n",
             "octilinear_mixed: cutoff support [-2T, 2T] with T = 1 needs t_span >= 4"),
            # tau_max = 4 pi on 16 samples of the 4-wide box, far below 2 * 3.5^3
            ("ids = linear_free\nm_t = 16\n", "needs tau_max >= 85.8"),
        ],
        ids=["linear-cutoff", "octilinear-cutoff", "aliasing"],
    )
    def test_probe_precondition_exit_4_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                       body, message):
        monkeypatch.setattr(probes, "rng_for", _must_not_run)
        cfg = write_cfg(tmp_path, "[estimates]\nn_trials = 2\n" + body)
        out = tmp_path / "ve"
        assert main(["verify-estimates", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("estimate-probe precondition violated: ")
        assert message in err
        assert not out.exists()


class TestLwpEnsemble:
    def test_tiny_run_writes_fractions(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID
            + "[data]\namplitude = 0.2\nband_limit = 2.0\n\n"
            + "[random]\ndistribution = rademacher\n\n"
            + "[lwp]\nt_grid = 0.125,0.0625\nn_samples = 100\n",
        )
        out = tmp_path / "lwp"
        assert main(["lwp-ensemble", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        lines = (out / "failures.csv").read_text().splitlines()
        assert lines[0] == "T,n,failures,fraction,wilson_lo,wilson_hi"
        assert len(lines) == 3
        assert all(row.split(",")[2] == "0" for row in lines[1:])
        records = (out / "records.csv").read_text().splitlines()
        assert records[0].startswith("T,sample,seed,")
        assert len(records) == 1 + 2 * 100

    def test_artifacts_identical_across_worker_counts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID
            + "[data]\namplitude = 1.8\nband_limit = 2.0\n\n"
            + "[random]\ndistribution = rademacher\n\n"
            + "[lwp]\nt_grid = 0.25,0.125\nn_samples = 100\n",
        )
        outs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["lwp-ensemble", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append(out)
        names = ("records.csv", "failures.csv", "trend.csv")
        for out in outs[1:]:
            assert all((out / n).read_bytes() == (outs[0] / n).read_bytes() for n in names)

    def test_band_too_wide_for_time_axis_exit_4(self, tmp_path, capsys):
        # 2 * min(8, xi_max = 2 pi)^3 ~ 496 exceeds tau_max ~ 201: every
        # Picard distance would alias, so the run stops before the ensemble
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID + "[lwp]\nt_grid = 0.125\nn_samples = 100\nxi_band = 8.0\n",
        )
        out = tmp_path / "lwp"
        assert main(["lwp-ensemble", "--config", cfg, "--out", str(out)]) == 4
        assert "[lwp] xi_band" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("xi_band, code", [(4.7, 0), (4.72, 4)])
    def test_band_boundary_is_the_solvers(self, tmp_path, xi_band, code):
        # tau_max ~ 201.1 on this axis; the solver checks the band's highest
        # mode: 23 dxi ~ 4.516 (2 r^3 ~ 184.2) at xi_band = 4.7, and
        # 24 dxi ~ 4.712 (~ 209.3) at 4.72
        cfg = write_cfg(
            tmp_path,
            SMALL_GRID
            + "[data]\namplitude = 0.2\nband_limit = 2.0\n\n"
            + f"[lwp]\nt_grid = 0.03125\nn_samples = 100\nxi_band = {xi_band}\n",
        )
        out = tmp_path / "lwp"
        assert main(["lwp-ensemble", "--config", cfg, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
