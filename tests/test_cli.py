import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import smefilter
from smefilter import __version__
from smefilter.cli import (
    _KEYS,
    _MODES,
    _OPERATORS,
    _RECORD_KINDS,
    SCHEMES,
    RunConfig,
    _provenance_comments,
    _state_columns,
    _trajectory_csv,
    cmd_converge,
    cmd_filter,
    cmd_lipschitz,
    cmd_simulate,
    main,
    parse_config,
)
from smefilter.diffusion import _CSV_BLOCK, DensityState, MeasurementRecord, StatePath, write_record
from smefilter.jump import CountingRecord
from smefilter.model import purity
from smefilter.traj import _bloch_fast, run_ensemble, run_trajectory

FAST_DIFFUSION = json.dumps({"dt": 0.01, "T": 0.5, "seed": 42})
FAST_JUMP = json.dumps({"mode": "jump", "scheme": "em", "C": "pauli_x", "dt": 0.01, "T": 0.5, "seed": 7})
JUMP_BASE = {"mode": "jump", "scheme": "em", "C": "pauli_x"}
C_MATRIX = [[0.6, [0, -0.8]], [[0, -0.8], 0.6]]

# a value of the wrong type for every config key
WRONG_TYPES = {
    "mode": 1, "scheme": ["em"], "gamma": "1", "alpha": None, "Delta": True, "phi": [0.0], "eta": "0.85",
    "C": 5, "E": {"re": 1}, "lambda": "2", "dt": "fast", "T": None, "n_traj": 2.0, "seed": 1.5,
    "output_dir": 5, "deltas": 0.01, "fine_dt": [1e-3], "record_kind": 1, "epsilons": "1e-2",
}


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

    @pytest.mark.parametrize("field", ["C", "E"])
    def test_jump_operator_must_be_two_by_two(self, field):
        # the CLI's initial state and its Bloch columns are 2-level only
        ops = {"C": "pauli_x", "E": "zero", field: np.eye(3).tolist()}
        config = {"mode": "jump", "scheme": "pathwise", "T": 0.1, **ops}
        with pytest.raises(ValueError, match=f"^{field}: expected a 2x2 matrix, got 3x3"):
            parse_config(json.dumps(config))

    def test_jump_requires_c(self):
        with pytest.raises(ValueError, match="C: required"):
            parse_config('{"mode": "jump", "scheme": "em"}')

    def test_jump_robust_rejected(self):
        with pytest.raises(ValueError, match="robust"):
            parse_config('{"mode": "jump", "C": "pauli_x"}')

    @pytest.mark.parametrize(
        "key, mode",
        [("gamma", "diffusion"), ("alpha", "diffusion"), ("Delta", "diffusion"), ("phi", "diffusion"),
         ("C", "jump"), ("E", "jump"), ("lambda", "jump")],
    )
    def test_mode_specific_keys_policed(self, key, mode):
        # a valid value, given in the other mode
        base = JUMP_BASE if mode == "diffusion" else {"mode": "diffusion"}
        value = {"C": "pauli_x", "E": "pauli_x"}.get(key, 0.5)
        with pytest.raises(ValueError, match=f"^{key}: only valid with mode '{mode}'$"):
            parse_config(json.dumps({**base, key: value}))

    @pytest.mark.parametrize(
        "text, match",
        [
            *[
                (json.dumps({**(JUMP_BASE if _KEYS[key].mode == "jump" else {}), key: WRONG_TYPES[key]}), f"^{key}:")
                for key in _KEYS
            ],
            ('{"dt": "fast"}', "^dt: expected a number, got 'fast'$"),
            ('{"n_traj": 0}', "^n_traj: must be >= 1, got 0$"),
            ('{"T": 0.1, "dt": 0.03}', r"^T: T must be a whole number of steps of dt = 0\.03, got 0\.1$"),
            ('{"T": 0.005}', r"^T: T must be finite and at least dt = 0\.01, got 0\.005$"),
            ('{"deltas": [0.02, Infinity]}', r"^deltas\[1\]: expected a finite positive number, got inf$"),
            ('{"epsilons": [NaN]}', r"^epsilons\[0\]: expected a finite positive number, got nan$"),
            ('{"epsilons": [1e-3, -Infinity]}', r"^epsilons\[1\]: expected a finite positive number, got -inf$"),
            ("{", "not valid JSON"),
        ],
        ids=[*_KEYS, "dt-text", "n_traj-zero", "T-off-grid", "T-below-dt", "deltas-inf", "epsilons-nan",
             "epsilons-minus-inf", "json"],
    )
    def test_type_errors_name_field(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config(text)


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
    @pytest.mark.parametrize(
        "fields",
        [
            {"scheme": "robust"},
            {"scheme": "em"},
            {"scheme": "pathwise"},
            *[{"mode": "jump", "scheme": "em", "C": c, "E": "pauli_x"} for c in ("pauli_x", "sigma")],
            *[
                {"mode": "jump", "scheme": "pathwise", "C": c, "E": "pauli_x"}
                for c in ("sigma", [[0.6, [0, -0.8]], [[0, -0.8], 0.6]])
            ],
        ],
        ids=[*(f"diffusion-{s}" for s in ("robust", "em", "pathwise")), "jump-em-pauli_x", "jump-em-sigma",
             "jump-pathwise-sigma", "jump-pathwise-matrix"],
    )
    def test_replay_of_every_scheme_is_its_run(self, tmp_path, fields):
        # a filter replay of an online run's record gives that run's states
        # and final summary fields, byte for byte
        cfg = parse_config(json.dumps({**fields, "dt": 0.01, "T": 3.0, "seed": 5}))
        sim_dir, flt_dir = tmp_path / "sim", tmp_path / "flt"
        cmd_simulate(cfg, sim_dir)
        if cfg.mode == "diffusion":
            record = sim_dir / "measurement_record.csv"
        else:
            record = sim_dir / "counting_record.csv"
            assert sum(int(r.split(",")[1]) for r in data_rows(record)[1:]) > 0
        cmd_filter(cfg, record, flt_dir)
        assert data_rows(sim_dir / "trajectory.csv") == data_rows(flt_dir / "filtered_trajectory.csv")
        online, replay = (json.loads((d / "summary.json").read_text()) for d in (sim_dir, flt_dir))
        finals = [k for k in online if k.startswith("final_")]
        assert len(finals) == 3
        assert {k: online[k] for k in finals} == {k: replay[k] for k in finals}

    def test_jump_pathwise_replay_of_a_long_count_run(self, tmp_path):
        # 1,200 counts in a row: the gauge C^(-N) of a non-unitary C is far
        # out of range, but the replay never builds it (RuntimeWarnings are
        # errors here)
        cfg = parse_config(json.dumps(
            {"mode": "jump", "scheme": "pathwise", "C": [[2, 0], [0, 0.5]], "E": "pauli_x", "eta": 0.5,
             "dt": 0.01, "T": 12.0}
        ))
        path = tmp_path / "counting_record.csv"
        write_record(path, CountingRecord(0.01, np.ones(1200, dtype=int)))
        cmd_filter(cfg, path, tmp_path / "flt")
        rows = data_rows(tmp_path / "flt" / "filtered_trajectory.csv")[1:]
        assert len(rows) == 1201
        assert all(np.isfinite([float(v) for v in r.split(",")]).all() for r in rows)

    @pytest.mark.parametrize(
        "config, name, line",
        [
            (FAST_DIFFUSION, "measurement_record.csv", "# dt: nan"),
            (FAST_DIFFUSION, "measurement_record.csv", "# t0: inf"),
            (FAST_JUMP, "counting_record.csv", "# dt: inf"),
            (FAST_JUMP, "counting_record.csv", "# t0: nan"),
        ],
    )
    def test_non_finite_grid_rejected(self, tmp_path, config, name, line):
        cfg = parse_config(config)
        cmd_simulate(cfg, tmp_path / "sim")
        path = tmp_path / "sim" / name
        key = line[2:4]
        path.write_text(re.sub(rf"^# {key}: .*$", line, path.read_text(), count=1, flags=re.M))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            cmd_filter(cfg, path, tmp_path / "out")

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = parse_config(FAST_DIFFUSION)
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        jump_cfg = parse_config(FAST_JUMP)
        with pytest.raises(ValueError, match="mode"):
            cmd_filter(jump_cfg, sim_dir / "measurement_record.csv", tmp_path / "out")


class TestDiagnostics:
    def test_converge_report_monotone_for_smooth_record(self, tmp_path):
        cfg = parse_config('{"T": 2.0, "fine_dt": 0.005, "deltas": [0.04, 0.02, 0.01]}')
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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"fine_dt": 0.05, "T": 0.02, "deltas": [0.05]}, "T must be finite and at least dt = 0.05, got 0.02"),
            ({"fine_dt": 0.03, "T": 0.1, "deltas": [0.03]}, "T must be a whole number of steps of dt = 0.03, got 0.1"),
        ],
        ids=["shorter", "off-grid"],
    )
    def test_converge_grid_names_fine_dt(self, tmp_path, fields, message):
        cfg = parse_config(json.dumps(fields))
        with pytest.raises(ValueError, match=f"^fine_dt: {re.escape(message)}$"):
            cmd_converge(cfg, tmp_path)

    def test_converge_delta_that_does_not_divide_the_record_names_itself(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"record_kind": "brownian", "fine_dt": 0.001, "T": 0.1, "deltas": [0.007]}')
        assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: delta 0.007 (7 fine steps) does not divide the record's 100 steps\n"

    def test_diagnostics_require_diffusion_mode(self, tmp_path):
        cfg = parse_config(FAST_JUMP)
        with pytest.raises(ValueError, match="diffusion"):
            cmd_converge(cfg, tmp_path)
        with pytest.raises(ValueError, match="diffusion"):
            cmd_lipschitz(cfg, tmp_path)


def test_readme_key_list_is_the_config_keys():
    # the backticked names of README's "Keys:" sentence, less the values it
    # also lists, are the keys parse_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Keys:(.*?)Unknown\s+keys", readme, re.DOTALL).group(1)
    names = set(re.findall(r"`([^`]+)`", sentence))
    values = {*_MODES, *SCHEMES, *_OPERATORS, *_RECORD_KINDS, "[re, im]"}
    assert sorted(names - values) == sorted(_KEYS)


def test_import_loads_no_scipy_linalg():
    # a fresh interpreter, so that no other test's import counts; importing
    # scipy.linalg took longer than a 10,000-step filter replay
    src = str(Path(smefilter.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, smefilter.cli; print(sorted(m for m in sys.modules if 'scipy.linalg' in m))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120, check=True,
    )
    assert probe.stdout == "[]\n"


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

    def test_substeps_is_an_unknown_key(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="^unknown config keys: substeps$"):
            parse_config('{"substeps": 4}')
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**json.loads(FAST_DIFFUSION), "substeps": 4}))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config keys: substeps\n"
        assert not (tmp_path / "run").exists()

    def test_negative_seed_names_its_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(FAST_DIFFUSION)
        neg_path = tmp_path / "negative.json"
        neg_path.write_text(json.dumps({**json.loads(FAST_DIFFUSION), "seed": -3}))
        for argv in (["--config", str(neg_path)], ["--config", str(cfg_path), "--seed", "-3"]):
            code = main(["simulate", *argv, "--out", str(tmp_path / "run")])
            assert code == 1
            assert capsys.readouterr().err == "error: seed: must be >= 0, got -3\n"

    def test_filter_requires_record_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["filter"])

    def test_default_config_runs_full_experiment_trajectory(self, tmp_path):
        # no --config: the experiment defaults (T=25, dt=0.01, one trajectory)
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == 0
        rows = data_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 2502


@pytest.mark.parametrize(
    "fields",
    [
        {"mode": "jump", "scheme": "em", "C": "sigma", "lambda": 0.5, "eta": 0.9},
        {},
        # 2.5 / 0.01 is 249.99999999999997, a whole number of steps up to rounding
        {"mode": "jump", "scheme": "pathwise", "C": C_MATRIX, "E": "pauli_x", "T": 2.5, "dt": 0.01},
    ],
    ids=["jump-sigma", "default", "jump-matrix"],
)
def test_runconfig_echo_roundtrip(fields):
    cfg = parse_config(json.dumps(fields))
    echo = cfg.to_dict()
    assert {key: echo[key] for key in fields} == fields
    assert ("C" in echo, "gamma" in echo) == (cfg.mode == "jump", cfg.mode == "diffusion")
    again = parse_config(json.dumps(echo))
    assert again == cfg


# The per-row formatting the column-wise CSV writer replaced, kept as the
# reference its bytes must equal: one _bloch_fast and one purity call per
# state, and one f-string per value.
def _f(x):
    return f"{x:.17g}"


def reference_csv(comments, header, rows):
    return ("\n".join([f"# {c}" for c in comments] + [header] + rows) + "\n").encode()


def reference_state_cells(rho):
    b = _bloch_fast(rho)
    return f"{_f(b.x)},{_f(b.y)},{_f(b.z)}", _f(purity(rho))


def reference_trajectory(config, times, states):
    rows = []
    for t, s in zip(times, states):
        bloch, pur = reference_state_cells(s.rho)
        rows.append(f"{_f(t)},{bloch},{_f(s.log_lambda)},{pur}")
    return reference_csv(_provenance_comments(config), "t,x,y,z,log_lambda,purity", rows)


def reference_record(record, column, values, cell, comments):
    head = [f"format: {column[0]} v1", f"dt: {record.dt:.17g}", f"t0: {record.t0:.17g}", *comments]
    rows = [f"{t:.17g},{v:{cell}}" for t, v in zip(record.times[1:], values)]
    return reference_csv(head, f"t,{column[1]}", rows)


# Values at the edges of the float range: signed zeros, subnormals, the
# largest and smallest normals, and 1e+-300.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300, -1e-300, 0.1]


def edge_states(n, rows, rng):
    """``rows`` ``n``-level matrices: random ones at scales from 1e-300 to
    1e300, then ones built from the edge values up to 1e300 (twice the
    largest float overflows)."""
    scale = 10.0 ** rng.integers(-300, 301, size=(rows, 1, 1))
    rho = scale * (rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n)))
    for k, v in enumerate(v for v in EDGE_VALUES if abs(v) <= 1e300):
        rho[k] = v * np.eye(n)
        rho[k, 1, 0] = complex(v, -v)
    return rho


class TestCsvBytes:
    """Every CSV equals, byte for byte, what the per-row formatting wrote."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_trajectory_csv_matches_per_row_reference(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rows = 2 * _CSV_BLOCK + 3
        rho = edge_states(n, rows, rng)
        times = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 301, size=rows)
        times[: len(EDGE_VALUES)] = EDGE_VALUES
        log_lambda = -times[::-1]
        states = StatePath(rho, log_lambda, times)
        config = parse_config(FAST_DIFFUSION)
        _trajectory_csv(tmp_path / "t.csv", config, states)
        assert (tmp_path / "t.csv").read_bytes() == reference_trajectory(config, times, states)

    @pytest.mark.parametrize("extra", [{}, {"mode": "jump", "scheme": "pathwise", "C": "sigma", "E": "pauli_x"}])
    def test_simulate_csvs_match_per_row_reference(self, tmp_path, extra):
        # over two write blocks of rows, single run and ensemble
        raw = {"dt": 0.001, "T": 2.1, "seed": 3, **extra}
        single = parse_config(json.dumps(raw))
        cmd_simulate(single, tmp_path / "single")
        model, rho0 = single.build_model(), single.initial_state()
        res = run_trajectory(model, single.scheme, single.dt, single.T, rho0, single.seed)
        assert len(res.states) > 2 * _CSV_BLOCK
        want = reference_trajectory(single, res.times, res.states)
        assert (tmp_path / "single" / "trajectory.csv").read_bytes() == want

        ensemble = parse_config(json.dumps({**raw, "n_traj": 3}))
        cmd_simulate(ensemble, tmp_path / "ensemble")
        ens = run_ensemble(model, ensemble.scheme, ensemble.dt, ensemble.T, rho0, 3, ensemble.seed)
        comments = _provenance_comments(ensemble)
        rows = []
        for t, rho in zip(ens.times, ens.mean_rho_path):
            bloch, pur = reference_state_cells(rho)
            rows.append(f"{_f(t)},{bloch},{pur}")
        want = reference_csv(comments, "t,x,y,z,purity", rows)
        assert (tmp_path / "ensemble" / "mean_path.csv").read_bytes() == want
        rows = [f"{i},{_f(b.x)},{_f(b.y)},{_f(b.z)},{_f(purity(s.rho))}"
                for i, (b, s) in enumerate(zip(ens.final_bloch, ens.final_states))]
        want = reference_csv(comments, "trajectory,x,y,z,purity", rows)
        assert (tmp_path / "ensemble" / "final_bloch.csv").read_bytes() == want

    def test_records_match_per_row_reference(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = 2 * _CSV_BLOCK + 3
        increments = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 301, size=rows)
        increments[: len(EDGE_VALUES)] = EDGE_VALUES
        comments = ["origin: test", "seed: 4"]
        for record in (MeasurementRecord(1e-3, increments, t0=-0.0), MeasurementRecord(0.1, increments, t0=1e300)):
            write_record(tmp_path / "m.csv", record, comments)
            want = reference_record(record, ("measurement-record", "dy"), increments, ".17g", comments)
            assert (tmp_path / "m.csv").read_bytes() == want
        counts = (rng.random(rows) < 0.3).astype(int)
        record = CountingRecord(0.01, counts, t0=5e-324)
        write_record(tmp_path / "c.csv", record, comments)
        want = reference_record(record, ("counting-record", "dN"), counts, "d", comments)
        assert (tmp_path / "c.csv").read_bytes() == want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: arrays(
            complex,
            st.tuples(st.integers(1, 9), st.just(n), st.just(n)),
            elements=st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
        )
    )
)
def test_batched_state_columns_equal_per_state_bitwise(rho):
    x, y, z, pur = _state_columns(rho)
    for b, r in enumerate(rho):
        bloch = _bloch_fast(r)
        assert (x[b], y[b], z[b], pur[b]) == (bloch.x, bloch.y, bloch.z, purity(r))
