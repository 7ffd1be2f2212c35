import json

import numpy as np
import pytest

from smefilter import __version__
from smefilter.cli import (
    RunConfig,
    cmd_converge,
    cmd_filter,
    cmd_lipschitz,
    cmd_simulate,
    main,
    parse_config,
)
from smefilter.diffusion import DensityState

FAST_DIFFUSION = json.dumps({"dt": 0.01, "T": 0.5, "seed": 42})
FAST_JUMP = json.dumps({"mode": "jump", "scheme": "em", "C": "pauli_x", "dt": 0.01, "T": 0.5, "seed": 7})


def data_rows(path):
    return [line for line in path.read_text().splitlines() if line and not line.startswith("#")]


class TestParseConfig:
    def test_empty_object_gives_experiment_defaults(self):
        cfg = parse_config("{}")
        assert cfg.mode == "diffusion" and cfg.scheme == "robust"
        assert cfg.dt == 0.01 and cfg.T == 25.0 and cfg.n_traj == 1
        assert cfg.phi == 0.0 and cfg.eta == 0.85
        assert cfg.gamma == 1.0 and cfg.alpha == pytest.approx(7.0 / np.sqrt(2.0))
        assert cfg.seed == 0

    def test_out_of_range_eta_names_field(self):
        with pytest.raises(ValueError, match="eta"):
            parse_config('{"eta": 1.5}')

    def test_named_jump_operator(self):
        cfg = parse_config('{"mode": "jump", "scheme": "em", "C": "pauli_x"}')
        model = cfg.build_model()
        assert np.array_equal(model.C, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_matrix_jump_operator_with_complex_entries(self):
        cfg = parse_config(
            '{"mode": "jump", "scheme": "em", "C": [[1, [0, -0.5]], [[0, 0.5], 1]]}'
        )
        model = cfg.build_model()
        assert model.C[0, 1] == -0.5j and model.C[1, 0] == 0.5j

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: foo"):
            parse_config('{"foo": 1}')

    def test_unknown_operator_name(self):
        with pytest.raises(ValueError, match="C"):
            parse_config('{"mode": "jump", "scheme": "em", "C": "hadamard"}')

    def test_jump_requires_c(self):
        with pytest.raises(ValueError, match="C: required"):
            parse_config('{"mode": "jump", "scheme": "em"}')

    def test_jump_robust_rejected(self):
        with pytest.raises(ValueError, match="robust"):
            parse_config('{"mode": "jump", "C": "pauli_x"}')

    def test_mode_specific_keys_policed(self):
        with pytest.raises(ValueError, match="lambda"):
            parse_config('{"lambda": 2.0}')
        with pytest.raises(ValueError, match="gamma"):
            parse_config('{"mode": "jump", "scheme": "em", "C": "pauli_x", "gamma": 2.0}')

    def test_type_errors_name_field(self):
        with pytest.raises(ValueError, match="dt"):
            parse_config('{"dt": "fast"}')
        with pytest.raises(ValueError, match="n_traj"):
            parse_config('{"n_traj": 0}')
        with pytest.raises(ValueError, match="seed"):
            parse_config('{"seed": 1.5}')
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_config("{")


class TestSimulate:
    def test_single_trajectory_outputs(self, tmp_path):
        cfg = parse_config(FAST_DIFFUSION)
        written = cmd_simulate(cfg, tmp_path)
        names = {p.name for p in written}
        assert names == {"trajectory.csv", "measurement_record.csv", "summary.json"}
        rows = data_rows(tmp_path / "trajectory.csv")
        assert rows[0] == "t,x,y,z,log_lambda,purity"
        assert len(rows) == 52  # header + 51 grid points
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 42
        assert summary["version"] == __version__
        assert summary["config"]["T"] == 0.5
        # provenance comments on every csv
        for name in ("trajectory.csv", "measurement_record.csv"):
            text = (tmp_path / name).read_text()
            assert "# seed: 42" in text and "# config:" in text

    def test_ensemble_outputs(self, tmp_path):
        cfg = parse_config('{"dt": 0.01, "T": 0.3, "n_traj": 4, "seed": 2}')
        written = cmd_simulate(cfg, tmp_path)
        names = {p.name for p in written}
        assert names == {"mean_path.csv", "final_bloch.csv", "ensemble_summary.json"}
        summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
        assert summary["n_traj"] == 4
        assert "histograms" in summary["steady_state"]
        assert len(data_rows(tmp_path / "final_bloch.csv")) == 5

    def test_jump_mode_outputs(self, tmp_path):
        cfg = parse_config(FAST_JUMP)
        written = cmd_simulate(cfg, tmp_path)
        names = {p.name for p in written}
        assert names == {"trajectory.csv", "counting_record.csv", "summary.json"}

    def test_singular_jump_operator_pathwise(self, tmp_path):
        cfg = parse_config(json.dumps(
            {"mode": "jump", "scheme": "pathwise", "C": "sigma", "E": "pauli_x", "dt": 0.01, "T": 3.0, "seed": 4}
        ))
        cmd_simulate(cfg, tmp_path)
        assert sum(int(r.split(",")[1]) for r in data_rows(tmp_path / "counting_record.csv")[1:]) > 0
        for row in data_rows(tmp_path / "trajectory.csv")[1:]:
            t, x, y, z, log_lambda = (float(v) for v in row.split(",")[:5])
            rho = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
            DensityState(rho, log_lambda, t).validate()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(FAST_DIFFUSION)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        cmd_simulate(cfg, a_dir)
        cmd_simulate(cfg, b_dir)
        for p in sorted(a_dir.iterdir()):
            assert p.read_bytes() == (b_dir / p.name).read_bytes()


class TestFilter:
    def test_robust_replay_reproduces_states_bitwise(self, tmp_path):
        cfg = parse_config(FAST_DIFFUSION)
        sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
        cmd_simulate(cfg, sim_dir)
        cmd_filter(cfg, sim_dir / "measurement_record.csv", flt_dir)
        assert data_rows(sim_dir / "trajectory.csv") == data_rows(flt_dir / "filtered_trajectory.csv")

    def test_jump_replay_reproduces_states_bitwise(self, tmp_path):
        cfg = parse_config(FAST_JUMP)
        sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
        cmd_simulate(cfg, sim_dir)
        cmd_filter(cfg, sim_dir / "counting_record.csv", flt_dir)
        assert data_rows(sim_dir / "trajectory.csv") == data_rows(flt_dir / "filtered_trajectory.csv")

    @pytest.mark.parametrize("c", ["sigma", [[0.6, [0, -0.8]], [[0, -0.8], 0.6]]])
    def test_jump_pathwise_replay_reproduces_states_bitwise(self, tmp_path, c):
        cfg = parse_config(json.dumps(
            {"mode": "jump", "scheme": "pathwise", "C": c, "E": "pauli_x", "dt": 0.01, "T": 3.0, "seed": 5}
        ))
        sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
        cmd_simulate(cfg, sim_dir)
        assert sum(int(r.split(",")[1]) for r in data_rows(sim_dir / "counting_record.csv")[1:]) > 0
        cmd_filter(cfg, sim_dir / "counting_record.csv", flt_dir)
        assert data_rows(sim_dir / "trajectory.csv") == data_rows(flt_dir / "filtered_trajectory.csv")

    def test_em_replay_is_close(self, tmp_path):
        cfg = parse_config('{"scheme": "em", "dt": 0.002, "T": 0.5, "seed": 9}')
        sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
        cmd_simulate(cfg, sim_dir)
        cmd_filter(cfg, sim_dir / "measurement_record.csv", flt_dir)
        got = [r.split(",") for r in data_rows(flt_dir / "filtered_trajectory.csv")[1:]]
        want = [r.split(",") for r in data_rows(sim_dir / "trajectory.csv")[1:]]
        for g, w in zip(got, want):
            for a, b in zip(g[:4], w[:4]):
                assert abs(float(a) - float(b)) <= 0.02

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = parse_config(FAST_DIFFUSION)
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        jump_cfg = parse_config(FAST_JUMP)
        with pytest.raises(ValueError, match="mode"):
            cmd_filter(jump_cfg, sim_dir / "measurement_record.csv", tmp_path / "out")


class TestDiagnostics:
    def test_converge_report_monotone_for_smooth_record(self, tmp_path):
        cfg = parse_config('{"T": 2.0, "fine_dt": 0.005, "deltas": [0.04, 0.02, 0.01], "substeps": 4}')
        (path,) = cmd_converge(cfg, tmp_path)
        rows = [r.split(",") for r in data_rows(path)[1:]]
        errs = [float(r[1]) for r in rows]
        assert errs[2] < errs[1] < errs[0]

    def test_lipschitz_report_columns(self, tmp_path):
        cfg = parse_config('{"T": 2.0, "dt": 0.01, "epsilons": [1e-2, 1e-3], "seed": 5}')
        (path,) = cmd_lipschitz(cfg, tmp_path)
        rows = data_rows(path)
        assert rows[0] == "epsilon,sup_gap_rho,sup_gap_rho_tilde,ratio"
        assert len(rows) == 3

    def test_diagnostics_require_diffusion_mode(self, tmp_path):
        cfg = parse_config(FAST_JUMP)
        with pytest.raises(ValueError, match="diffusion"):
            cmd_converge(cfg, tmp_path)
        with pytest.raises(ValueError, match="diffusion"):
            cmd_lipschitz(cfg, tmp_path)


class TestMain:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(FAST_DIFFUSION)
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectory.csv" in out

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(FAST_DIFFUSION)
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "43"])
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert a != b
        assert "# seed: 43" in b

    def test_invalid_config_reports_one_line_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"eta": 2.0}')
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_filter_requires_record_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["filter"])

    def test_default_config_runs_full_experiment_trajectory(self, tmp_path):
        # no --config: the experiment defaults (T=25, dt=0.01, one trajectory)
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == 0
        rows = data_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 2502


def test_runconfig_echo_roundtrip():
    cfg = parse_config('{"mode": "jump", "scheme": "em", "C": "sigma", "lambda": 0.5, "eta": 0.9}')
    echo = cfg.to_dict()
    assert echo["C"] == "sigma" and echo["lambda"] == 0.5
    again = parse_config(json.dumps(echo))
    assert again == cfg
