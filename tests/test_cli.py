import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcwk
from pcwk import SpectralDensity, TruncationError, oracle, write_density_csv
from pcwk.cli import (
    TASKS,
    MAX_GRID,
    MAX_HARMONICS,
    MAX_QUADRATURE_POINTS,
    MAX_SAMPLES,
    MAX_SIMULATED_BLOCKS,
    MAX_WEIGHT_BLOCKS,
    SpecValidationError,
    _KEYS,
    main,
    parse_spec,
    run,
)

GRID = 256


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_summary(out):
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    return dict(row.split(",", 1) for row in rows)


def write_white(tmp_path, name, scale=1.0, dim=1):
    path = tmp_path / name
    write_density_csv(SpectralDensity.white(dim, scale=scale, grid_size=GRID), path)
    return name


def blocks(count):
    """Inline weights of ``count`` scalar blocks, 1 then halves."""
    return {"inline": [[1.0]] + [[0.5]] * (count - 1)}


D0EPS_CLASS = {"signal_power": 1.0, "noise_power": 1.0, "eps": 0.5}


def filter_spec(tmp_path, **overrides):
    payload = {
        "task": "filter",
        "densities": {
            "f": write_white(tmp_path, "f.csv"),
            "g": write_white(tmp_path, "g.csv"),
        },
        "weights": {"inline": [[1.0]]},
        "numerics": {"grid": GRID, "seed": 11},
    }
    payload.update(overrides)
    return write_spec(tmp_path, payload)


class TestParseSpec:
    def test_minimal_valid_fills_defaults(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "task": "interpolate",
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]]},
            },
        )
        spec = parse_spec(path)
        assert spec.numerics.grid == 2048
        assert spec.numerics.seed == 0

    def test_zero_harmonics_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "task": "interpolate",
                "lift": {"period": 1.0, "harmonics": 0},
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]]},
            },
        )
        with pytest.raises(SpecValidationError, match=">= 1"):
            parse_spec(path)

    def test_doubly_specified_weights(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "task": "interpolate",
                "lift": {"period": 1.0, "harmonics": 1},
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]], "csv": "a.csv", "blocks": 2},
            },
        )
        with pytest.raises(SpecValidationError, match="doubly specified"):
            parse_spec(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "task": "interpolate",
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]]},
                "mystery": 1,
            },
        )
        with pytest.raises(SpecValidationError, match="unknown key"):
            parse_spec(path)

    def test_all_errors_collected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "task": "no-such-task",
                "densities": {"f": 3},
                "weights": {},
                "numerics": {"grid": 100},
            },
        )
        with pytest.raises(SpecValidationError) as excinfo:
            parse_spec(path)
        assert len(excinfo.value.errors) >= 3


class TestMainEstimation:
    def test_filter_white(self, tmp_path, capsys):
        spec = filter_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = dict(
            line.split(",", 1)
            for line in (out / "summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["mse"]) == pytest.approx(0.5, abs=1e-8)
        body = (out / "filter_h.csv").read_text().splitlines()
        assert body[0] == "lambda,component,re_h,im_h"
        assert len(body) == GRID + 1

    def test_dry_run(self, tmp_path, capsys):
        spec = filter_spec(tmp_path)
        assert main(["--spec", str(spec), "--dry-run"]) == 0
        captured = capsys.readouterr()
        assert "grid = 256" in captured.out
        assert "seed = 11" in captured.out

    def test_usage_error_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"task": "filter"})
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1

    def test_invalid_density_exits_2(self, tmp_path, capsys):
        spec = filter_spec(tmp_path)
        bad = SpectralDensity.from_coeffs(
            {0: 1.0, 1: 0.6, -1: 0.6}, grid_size=GRID
        )
        write_density_csv(bad, tmp_path / "f.csv")
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "lambda" in err  # names the offending grid node

    def test_seed_and_grid_overrides(self, tmp_path, capsys):
        spec = filter_spec(tmp_path)
        assert main(["--spec", str(spec), "--dry-run", "--seed", "99",
                     "--grid", "512"]) == 0
        captured = capsys.readouterr()
        assert "seed = 99" in captured.out
        assert "grid = 512" in captured.out


class TestMainFactorize:
    def test_factor_csv(self, tmp_path):
        f = SpectralDensity.from_moving_average(
            [np.eye(1), 0.5 * np.eye(1)], grid_size=GRID
        )
        write_density_csv(f, tmp_path / "f.csv")
        spec = write_spec(
            tmp_path,
            {
                "task": "factorize",
                "densities": {"f": "f.csv"},
                "numerics": {"grid": GRID},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        lines = (out / "factor.csv").read_text().splitlines()
        assert lines[0] == "u,row,col,re,im"
        taps = {int(row.split(",")[0]): float(row.split(",")[3]) for row in lines[1:]}
        assert taps[0] == pytest.approx(1.0, abs=1e-9)
        assert taps[1] == pytest.approx(0.5, abs=1e-9)


class TestMainMinimax:
    def minimax_spec(self, tmp_path):
        return write_spec(
            tmp_path,
            {
                "task": "minimax-y",
                "weights": {"inline": [[1.0], [1.0]]},
                "numerics": {"grid": GRID, "seed": 5},
                "class_params": {"total_power": 1.0, "samples": 20},
            },
        )

    def test_minimax_y_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--spec", str(self.minimax_spec(tmp_path)),
                     "--out", str(out)]) == 0
        summary = dict(
            line.split(",", 1)
            for line in (out / "summary.csv").read_text().splitlines()[1:]
        )
        golden = (3.0 + np.sqrt(5.0)) / 2.0
        assert float(summary["minimax_mse"]) == pytest.approx(golden, abs=1e-10)
        assert float(summary["min_saddle_margin"]) >= -1e-8
        assert (out / "least_favorable_f.csv").exists()

    def test_d01_singular_power_matrix_solved_and_sampled(self, tmp_path):
        # a semidefinite P is in the class; its saddle samples used to
        # require a definite one, so the solved problem exited 1
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-extrap-d01",
                "weights": {"inline": [[1.0, 0.0], [0.5, 0.5]]},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {"power_matrix": [[1, 0], [0, 0]], "samples": 20},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["samples"] == "20"
        assert summary["samples_rejected"] == "0"
        assert float(summary["min_saddle_margin"]) >= -1e-8
        # one eigenvector family cannot realize the rank-one power matrix
        assert float(summary["power_constraint_residual"]) > 0.1
        assert summary["in_class"] == "False"

    def test_d01_round_off_below_zero_solved_and_sampled(self, tmp_path):
        # the solver admits an eigenvalue down to -1e-10 tr P, and so must
        # the sampler, or the solved problem exits 1 with no output
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-extrap-d01",
                "weights": {"inline": [[1.0, 0.0], [0.5, 0.5]]},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {"power_matrix": [[1, 0], [0, -5e-11]], "samples": 20},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["samples"] == "20"
        assert summary["samples_rejected"] == "0"
        assert float(summary["min_saddle_margin"]) >= -1e-8

    def test_d01_complex_hermitian_power_matrix_solved_and_sampled(self, tmp_path):
        # entries of a power matrix are numbers or [re, im] pairs, as those of
        # a moment: P = [[2, 0.5i], [-0.5i, 1]]
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-extrap-d01",
                "weights": {"inline": [[1.0, 0.0], [0.5, 0.5]]},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {
                    "power_matrix": [[2, [0, 0.5]], [[0, -0.5], 1]], "samples": 20
                },
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["samples"] == "20"
        assert summary["samples_rejected"] == "0"
        assert float(summary["min_saddle_margin"]) >= -1e-8

    def test_dm_tiny_moments_solved_and_sampled(self, tmp_path):
        # grid condition 4: solved, so its class must also be sampled
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-interp-dm",
                "weights": {"inline": [[1.0]]},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {"moments": [[[1e-10]], [[0.3e-10]]], "samples": 10},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["samples"] == "10"
        assert summary["samples_rejected"] == "0"

    def test_dm_coupled_complex_moments_solved_and_sampled(self, tmp_path):
        # complex entries are [re, im] pairs, as in inline weights
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-interp-dm",
                "weights": {"inline": [[1.0, 0.0], [0.5, 0.5]]},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {
                    "moments": [[[2, 0], [0, 2]], [[0.3, [0, 0.2]], [[0, -0.2], 0.1]]],
                    "samples": 10,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["samples"] == "10"
        assert summary["samples_rejected"] == "0"
        assert float(summary["min_saddle_margin"]) >= -1e-8

    @pytest.mark.parametrize(
        "weights, moments",
        [([[1.0], [0.5], [0.25]], [[[1.5]], [[0.3]]]),
         ([[1.0, 0.0], [0.5, 0.5]], [[[2.0, 0.0], [0.0, 2.0]]])],
        ids=["K1", "K2"],
    )
    def test_dm_fewer_moments_than_horizon_refused(self, tmp_path, capsys,
                                                   weights, moments):
        # the free moments reach a singular Toeplitz section: unbounded errors
        spec = write_spec(
            tmp_path,
            {
                "task": "minimax-interp-dm",
                "weights": {"inline": weights},
                "numerics": {"grid": 64, "seed": 3},
                "class_params": {"moments": moments, "samples": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "unbounded" in err[0]
        assert not (out / "summary.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        spec = self.minimax_spec(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["--spec", str(spec), "--out", str(out2)]) == 0
        for name in ("summary.csv", "least_favorable_f.csv", "minimax-y_h.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMainOracleAndSimulate:
    def test_oracle_check(self, tmp_path):
        spec = filter_spec(
            tmp_path,
            task="oracle-check",
            class_params={"task": "filter", "tolerance": 1e-5},
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "task,spectral_mse,oracle_mse,rel_diff,window"
        fields = lines[1].split(",")
        assert float(fields[3]) < 1e-5
        summary = read_summary(out)
        assert summary["oracle_converged"] == "True"
        assert summary["oracle_window"] == "16"  # windows 8 and 16 agree
        assert summary["passed"] == "True"

    def test_oracle_check_unsettled_window_exits_2(self, tmp_path, monkeypatch, capsys):
        # near a unit root the oracle has not settled by window 32
        monkeypatch.setattr(
            oracle,
            "time_domain_projection_converged",
            functools.partial(oracle.time_domain_projection_converged, max_window=32),
        )
        ma = SpectralDensity.from_moving_average([[[1.0]], [[0.95]]], grid_size=GRID)
        write_density_csv(ma, tmp_path / "f.csv")
        spec = write_spec(
            tmp_path,
            {
                "task": "oracle-check",
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]]},
                "numerics": {"grid": GRID},
                "class_params": {"task": "interpolate"},
            },
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 2
        assert "did not settle by window 32" in capsys.readouterr().err
        summary = read_summary(out)
        assert summary["oracle_converged"] == "False"
        assert summary["oracle_window"] == "32"
        assert "passed" not in summary
        assert not (out / "oracle.csv").exists()

    def test_oracle_check_stops_at_the_grid_resolution(self, tmp_path, capsys):
        # the oracle is still moving at window 254, the largest the 512 grid
        # resolves: it stops there flagged, not with an AliasingError
        grid = 512
        ma = SpectralDensity.from_moving_average([[[1.0]], [[0.95]]], grid_size=grid)
        write_density_csv(ma, tmp_path / "f.csv")
        spec = write_spec(
            tmp_path,
            {
                "task": "oracle-check",
                "densities": {"f": "f.csv"},
                "weights": {"inline": [[1.0]]},
                "numerics": {"grid": grid},
                "class_params": {"task": "extrapolate"},
            },
        )
        with pytest.raises(TruncationError, match="did not settle by window 254"):
            run(parse_spec(spec), tmp_path / "lib")
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 2
        assert "did not settle by window 254" in capsys.readouterr().err
        summary = read_summary(out)
        assert summary["oracle_converged"] == "False"
        assert summary["oracle_window"] == "254"
        assert not (out / "oracle.csv").exists()

    def test_oracle_check_disagreement_exits_2(self, tmp_path, capsys):
        spec = filter_spec(
            tmp_path,
            task="oracle-check",
            class_params={"task": "filter", "tolerance": 1e-300},
        )
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 2
        assert "oracle disagreement" in capsys.readouterr().err
        assert read_summary(out)["passed"] == "False"
        assert (out / "oracle.csv").exists()

    def test_simulate_deterministic(self, tmp_path):
        spec = filter_spec(
            tmp_path, task="simulate", class_params={"n_blocks": 64}
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["--spec", str(spec), "--out", str(out2)]) == 0
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()

    def test_weight_csv_with_lift(self, tmp_path):
        (tmp_path / "a.csv").write_text(
            "t,a\n0.0,1.0\n0.5,1.0\n1.0,1.0\n2.0,1.0\n", encoding="utf-8"
        )
        payload = {
            "task": "extrapolate",
            "lift": {"period": 1.0, "harmonics": 1},
            "densities": {"f": write_white(tmp_path, "f.csv")},
            "weights": {"csv": "a.csv", "blocks": 2},
            "numerics": {"grid": GRID},
        }
        spec = write_spec(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        summary = dict(
            line.split(",", 1)
            for line in (out / "summary.csv").read_text().splitlines()[1:]
        )
        # constant weight on [0, 2): two unit blocks of white noise
        assert float(summary["mse"]) == pytest.approx(2.0, abs=1e-8)


class TestWronglyTypedValues:
    """Wrongly typed values are validation errors (exit 1), never tracebacks."""

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("numerics", "grid", "numerics.grid"),
            ("numerics", "truncation", "numerics.truncation"),
            ("numerics", "seed", "numerics.seed"),
            ("lift", "harmonics", "lift.harmonics"),
            ("lift", "quadrature_points", "lift.quadrature_points"),
        ],
    )
    def test_boolean_integer_rejected(self, tmp_path, capsys, section, key, message):
        payload = {
            "task": "interpolate",
            "lift": {"period": 1.0, "harmonics": 1},
            "densities": {"f": write_white(tmp_path, "f.csv")},
            "weights": {"inline": [[1.0]]},
            "numerics": {"grid": GRID},
        }
        payload[section][key] = True
        spec = write_spec(tmp_path, payload)
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message} must be" in capsys.readouterr().err

    def test_string_weight_block_count(self, tmp_path, capsys):
        spec = filter_spec(
            tmp_path,
            lift={"period": 1.0, "harmonics": 1},
            weights={"csv": "a.csv", "blocks": "2"},
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "weights.blocks must be a positive integer" in capsys.readouterr().err

    def test_null_inline_entry(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, weights={"inline": [[None]]})
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "weights.inline[0]: entries are numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, class_params, key",
        [
            ("minimax-y", {"total_power": 1.0, "samples": None}, "samples"),
            ("oracle-check", {"task": "filter", "initial_window": None},
             "initial_window"),
            ("simulate", {"n_blocks": None}, "n_blocks"),
        ],
    )
    def test_null_integer_class_param(self, tmp_path, capsys, task, class_params, key):
        spec = filter_spec(tmp_path, task=task, class_params=class_params)
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: class_params.{key} must be a nonnegative integer" in err

    def test_null_number_class_param(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, task="minimax-y", class_params={"total_power": None})
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "class_params.total_power must be a number" in capsys.readouterr().err

    def test_null_moments(self, tmp_path, capsys):
        spec = filter_spec(
            tmp_path, task="minimax-interp-dm", class_params={"moments": None}
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "class_params.moments must be a non-empty list" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "moments, bad",
        [([[0.3, [0, 0.2]], [[0, -0.2], 0.1]], (0, 1)), ([["a"]], (0,))],
        ids=["pairs_outside_a_matrix", "string_entry"],
    )
    def test_malformed_moments(self, tmp_path, capsys, moments, bad):
        spec = filter_spec(
            tmp_path, task="minimax-interp-dm", class_params={"moments": moments}
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: class_params.moments[{m}] must be a 1 x 1 nested list of "
            f"numbers or [re, im] pairs; got {moments[m]!r}"
            for m in bad
        ]


class TestOversizedAndMalformedValues:
    """Values beyond the documented bounds are validation errors, never run."""

    @pytest.mark.parametrize("matrix", [[[[1]]], {}, [[1.0, 0.0]], [["1"]]])
    def test_power_matrix_must_be_k_by_k_numbers(self, tmp_path, capsys, matrix):
        spec = filter_spec(
            tmp_path, task="minimax-extrap-d01", class_params={"power_matrix": matrix}
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "class_params.power_matrix must be a 1 x 1 nested list of numbers" in err

    def test_initial_window_bounded_by_the_oracle_window(self, tmp_path, capsys):
        spec = filter_spec(
            tmp_path, task="oracle-check",
            class_params={"task": "filter", "initial_window": 2**70},
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert (
            f"class_params.initial_window must be a nonnegative integer no larger "
            f"than {oracle.MAX_WINDOW}" in err
        )

    def test_grid_bounded(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, numerics={"grid": 2**40})
        assert main(["--spec", str(spec), "--dry-run"]) == 1
        assert f"numerics.grid must be a power of two in [8, {MAX_GRID}]" in (
            capsys.readouterr().err
        )
        spec = filter_spec(tmp_path)
        assert main(["--spec", str(spec), "--dry-run", "--grid", str(2**40)]) == 1
        assert "--grid must be a power of two" in capsys.readouterr().err
        assert main(["--spec", str(spec), "--dry-run", "--grid", str(MAX_GRID)]) == 0

    def test_samples_bounded(self, tmp_path, capsys):
        spec = filter_spec(
            tmp_path, task="minimax-y",
            class_params={"total_power": 1.0, "samples": 2**70},
        )
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert (
            f"class_params.samples must be a nonnegative integer no larger than "
            f"{MAX_SAMPLES}" in err
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(task="simulate", class_params={"n_blocks": 2**70}),
             f"class_params.n_blocks must be a nonnegative integer no larger than "
             f"{MAX_SIMULATED_BLOCKS}"),
            (dict(task="simulate", class_params={"n_blocks": 0}),
             "class_params.n_blocks must be at least 1; got 0"),
            (dict(lift={"period": 1.0, "harmonics": 1},
                  weights={"csv": "a.csv", "blocks": 2**70}),
             f"weights.blocks must be a positive integer no larger than "
             f"{MAX_WEIGHT_BLOCKS}"),
            (dict(lift={"period": 1.0, "harmonics": 2**70}),
             f"lift.harmonics must be a positive integer no larger than "
             f"{MAX_HARMONICS}"),
            (dict(lift={"period": 1.0, "harmonics": 1, "quadrature_points": 2**70}),
             f"lift.quadrature_points must be a positive integer no larger than "
             f"{MAX_QUADRATURE_POINTS}"),
        ],
        ids=["n_blocks", "n_blocks_zero", "weights.blocks", "harmonics",
             "quadrature_points"],
    )
    def test_integer_inputs_bounded(self, tmp_path, capsys, overrides, message):
        spec = filter_spec(tmp_path, **overrides)
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()


class TestProblemTable:
    """Every key is checked by its row of the table, before any solve, by
    the run and by --dry-run alike; a refused spec writes nothing."""

    def refused(self, tmp_path, capsys, spec, *flags):
        """The stderr lines of a run and of a dry run, both refused with exit 1."""
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert main(["--spec", str(spec), "--dry-run", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == err
        assert not out.exists()
        return err

    def test_unknown_class_params_key_refused(self, tmp_path, capsys):
        # a typo of samples used to be ignored: 50 samples were drawn
        spec = filter_spec(tmp_path, task="minimax-y",
                           class_params={"total_power": 1.0, "sample": 5})
        err = self.refused(tmp_path, capsys, spec)
        assert err == ["error: class_params: unknown key 'sample'"]

    def test_class_params_key_of_another_task_refused(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, task="oracle-check",
                           class_params={"task": "filter", "samples": 5})
        err = self.refused(tmp_path, capsys, spec)
        assert err == ["error: class_params: unknown key 'samples'"]

    def test_every_class_params_error_reported(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, task="minimax-y",
                           class_params={"total_power": "x", "samples": -1})
        err = self.refused(tmp_path, capsys, spec)
        assert err == [
            "error: class_params.total_power must be a number; got 'x'",
            f"error: class_params.samples must be a nonnegative integer no larger "
            f"than {MAX_SAMPLES}; got -1",
        ]

    @pytest.mark.parametrize("task, class_params", [
        ("extrapolate", None),
        ("minimax-y", {"total_power": 1.0, "samples": 3}),
    ])
    def test_negative_seed_flag_refused(self, tmp_path, capsys, task, class_params):
        # the extrapolation used to write seed,-3 and the minimax run to fail
        # in numpy with a message that did not name the flag
        overrides = {"task": task}
        if class_params:
            overrides["class_params"] = class_params
        spec = filter_spec(tmp_path, **overrides)
        err = self.refused(tmp_path, capsys, spec, "--seed", "-3")
        assert err == ["error: --seed must be a nonnegative integer"]

    @pytest.mark.parametrize("task, class_params, key", [
        ("minimax-y", {"total_power": float("inf")}, "total_power"),
        ("minimax-y", {"total_power": 0}, "total_power"),
        ("minimax-extrap-d01", {"power_matrix": [[float("nan")]]}, "power_matrix"),
        ("minimax-interp-dm", {"moments": [[[float("inf")]]]}, "moments[0]"),
        ("minimax-filter-d0eps",
         {"signal_power": float("inf"), "noise_power": 1.0, "eps": 0.5}, "signal_power"),
        ("minimax-filter-d0eps",
         {"signal_power": 1.0, "noise_power": -1.0, "eps": 0.5}, "noise_power"),
        ("minimax-filter-d0eps",
         {"signal_power": 1.0, "noise_power": 1.0, "eps": 1.5}, "eps"),
        ("oracle-check", {"task": "filter", "tolerance": -1}, "tolerance"),
        ("oracle-check", {"task": "filter", "tolerance": float("nan")}, "tolerance"),
        ("oracle-check", {"task": "filter", "initial_window": 0}, "initial_window"),
    ])
    def test_class_number_outside_its_domain_refused(self, tmp_path, capsys, task,
                                                      class_params, key):
        # these used to fail inside the solve ("SVD did not converge"), or,
        # for a tolerance of -1 or NaN, to solve and then exit 2
        spec = filter_spec(tmp_path, task=task, class_params=class_params,
                           densities={"f": write_white(tmp_path, "f.csv"),
                                      "g": write_white(tmp_path, "g.csv"),
                                      "g2": write_white(tmp_path, "g.csv")})
        err = self.refused(tmp_path, capsys, spec)
        assert len(err) == 1 and err[0].startswith(f"error: class_params.{key} must be")

    @pytest.mark.parametrize("task, dim, overrides, code, message", [
        ("minimax-extrap-d01", 1, {"class_params": {"power_matrix": [[-1.0]]}}, 1,
         "power matrix must have positive trace"),
        ("minimax-interp-dm", 1, {"class_params": {"moments": [[[2.0]], [[[0.0, 0.5]]]]}},
         1, "constraint 1 must be Hermitian"),
        ("minimax-interp-dm", 1, {"class_params": {"moments": [[[2.0]]]}}, 2,
         "errors are unbounded"),
        ("extrapolate", 1, {"numerics": {"grid": GRID, "truncation": 0}}, 1,
         "truncation must cover the last nonzero weight block (0 < 1)"),
        ("extrapolate", 2, {}, 1, "weights and densities must share one dimension"),
        ("interpolate", 2, {}, 1, "weights and densities must share one dimension"),
        ("oracle-check", 2, {"class_params": {"task": "interpolate"}}, 1,
         "weights and densities must share one dimension"),
        ("minimax-filter-d0eps", 2,
         {"weights": {"inline": [[1.0, 0.0]]},
          "class_params": {"signal_power": 1.0, "noise_power": 1.0, "eps": 0.5}},
         1, "only the scalar case is supported"),
        ("minimax-filter-d0eps", 1,
         {"class_params": {"signal_power": 1.0, "noise_power": 0.2, "eps": 0.5}},
         2, "noise power is below the contamination floor"),
        ("minimax-filter-d0eps", 1,
         {"class_params": {"signal_power": 1.0, "noise_power": 2.0, "eps": 0.0}},
         2, "pinned to the baseline"),
        # the grid-resolution rule: each used to fail only in the run
        ("extrapolate", 1, {"numerics": {"grid": GRID, "truncation": 2**40}}, 2,
         "truncation 1099511627776 is not resolvable on a grid of size 256 (largest 127)"),
        ("interpolate", 1, {"numerics": {"grid": 8}, "weights": blocks(5)}, 2,
         "horizon 4 is not resolvable on a grid of size 8 (largest 3)"),
        ("extrapolate", 1, {"numerics": {"grid": 8}, "weights": blocks(5)}, 2,
         "last nonzero weight block 4 is not resolvable on a grid of size 8 (largest 3)"),
        ("filter", 1, {"numerics": {"grid": 16, "truncation": 7}, "weights": blocks(3)}, 2,
         "truncation 7 is not resolvable on a grid of size 16 (largest 5)"),
        ("minimax-filter-d0eps", 1,
         {"numerics": {"grid": 8}, "weights": blocks(4), "class_params": D0EPS_CLASS}, 1,
         "truncation must cover the last nonzero weight block (2 < 3)"),
        ("oracle-check", 1, {"numerics": {"grid": 16}, "class_params": {
            "task": "interpolate", "initial_window": 64}}, 2,
         "initial_window 64 is not resolvable on a grid of size 16 (largest 1)"),
        ("minimax-y", 1, {"numerics": {"grid": 8}, "weights": blocks(9),
                          "class_params": {"total_power": 1.0}}, 2,
         "moving-average order 8 is not resolvable on a grid of size 8 (largest 4)"),
        ("minimax-extrap-d01", 1, {"numerics": {"grid": 8}, "weights": blocks(9),
                                   "class_params": {"power_matrix": [[1.0]]}}, 2,
         "moving-average order 8 is not resolvable on a grid of size 8 (largest 4)"),
        ("minimax-interp-dm", 1, {"numerics": {"grid": 8}, "weights": blocks(5),
                                  "class_params": {"moments": [[[2.0]], [[0.5]]]
                                                   + [[[0.0]]] * 3}}, 2,
         "horizon 4 is not resolvable on a grid of size 8 (largest 3)"),
    ], ids=["d01-trace", "dm-hermitian", "dm-too-few", "truncation", "extrapolate-dim",
            "interpolate-dim", "oracle-check-dim", "d0eps-dim", "d0eps-floor",
            "d0eps-eps0", "truncation-cap", "interpolate-horizon", "extrapolate-last-block",
            "filter-truncation-cap", "d0eps-default-truncation", "oracle-window",
            "minimax-y-order", "d01-order", "dm-horizon"])
    def test_class_admission_refused_before_the_output_exists(
        self, tmp_path, capsys, task, dim, overrides, code, message
    ):
        # the solvers' admission rules used to run only in the run, after the
        # output directory was made, and --dry-run exited 0
        density = write_white(tmp_path, f"white{dim}.csv", dim=dim)
        spec = filter_spec(tmp_path, **{
            "task": task, "weights": {"inline": [[1.0], [0.5]]},
            "densities": {"f": density, "g": density, "g2": density}, **overrides})
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert main(["--spec", str(spec), "--dry-run"]) == code
        assert capsys.readouterr().err.splitlines() == err
        assert not out.exists()

    @pytest.mark.parametrize("task, overrides", [
        ("interpolate", {"numerics": {"grid": 8}, "weights": blocks(4)}),
        ("extrapolate", {"numerics": {"grid": 8, "truncation": 3}}),
        ("filter", {"numerics": {"grid": 16, "truncation": 5}, "weights": blocks(3)}),
        ("minimax-y", {"numerics": {"grid": 8}, "weights": blocks(5),
                       "class_params": {"total_power": 1.0, "samples": 3}}),
        ("minimax-filter-d0eps", {"numerics": {"grid": 16}, "weights": blocks(4),
                                  "class_params": {**D0EPS_CLASS, "samples": 3}}),
    ], ids=["interpolate-n", "extrapolate-truncation", "filter-truncation",
            "minimax-y-order", "d0eps-default-truncation"])
    def test_largest_resolvable_sizes_solve(self, tmp_path, capsys, task, overrides):
        # each is the largest size the grid admits for its task
        density = write_white(tmp_path, "white.csv")
        spec = filter_spec(tmp_path, **{
            "task": task, "densities": {"f": density, "g": density, "g2": density},
            **overrides})
        assert main(["--spec", str(spec), "--dry-run"]) == 0
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("task, class_params", [
        ("interpolate", {}),
        ("minimax-y", {"class_params": {"total_power": 1.0, "samples": 3}}),
    ])
    def test_truncation_admitted_only_where_the_solve_reads_it(
        self, tmp_path, capsys, task, class_params
    ):
        # these solves ignore numerics.truncation, even below the last
        # nonzero weight block
        spec = filter_spec(tmp_path, task=task, weights={"inline": [[1.0], [0.5]]},
                           numerics={"grid": GRID, "truncation": 0}, **class_params)
        assert main(["--spec", str(spec), "--dry-run"]) == 0
        assert main(["--spec", str(spec), "--out", str(tmp_path / "out")]) == 0

    def test_non_finite_weight_csv_row_refused(self, tmp_path, capsys):
        # the NaN row used to be sorted to the end and interpolated
        (tmp_path / "a.csv").write_text("t,a\n0.0,1.0\nnan,0.5\n1.0,1.0\n",
                                        encoding="utf-8")
        spec = filter_spec(tmp_path, task="interpolate",
                           lift={"period": 1.0, "harmonics": 1},
                           weights={"csv": "a.csv", "blocks": 1})
        err = self.refused(tmp_path, capsys, spec)
        assert err == [f"error: {tmp_path / 'a.csv'}:3: malformed row"]

    @pytest.mark.parametrize("body, message", [
        ("time,a\n0.0,1.0\n", "expected header t,a"),
        ("t,a\n\n,\n", "no samples"),
    ], ids=["header", "no-samples"])
    def test_weight_csv_refused(self, tmp_path, capsys, body, message):
        (tmp_path / "a.csv").write_text(body, encoding="utf-8")
        spec = filter_spec(tmp_path, task="interpolate",
                           lift={"period": 1.0, "harmonics": 1},
                           weights={"csv": "a.csv", "blocks": 1})
        err = self.refused(tmp_path, capsys, spec)
        assert err == [f"error: {tmp_path / 'a.csv'}: {message}"]

    def test_weight_csv_blank_rows_skipped(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("t,a\n\n0.0,1.0\n , \n2.0,1.0\n",
                                        encoding="utf-8")
        spec = filter_spec(tmp_path, task="extrapolate",
                           lift={"period": 1.0, "harmonics": 1},
                           weights={"csv": "a.csv", "blocks": 2},
                           densities={"f": write_white(tmp_path, "f.csv")})
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        # constant weight on [0, 2]: two unit blocks of white noise
        assert float(read_summary(out)["mse"]) == pytest.approx(2.0, abs=1e-8)

    def test_empty_weight_block_refused(self, tmp_path, capsys):
        # the solver used to refuse it, after the output directory was made
        spec = filter_spec(tmp_path, weights={"inline": [[]]})
        err = self.refused(tmp_path, capsys, spec)
        assert err == ["error: weights.inline[0] must be a list of entries"]

    def test_bad_lift_gives_one_error(self, tmp_path, capsys):
        # a NaN period used to add a false "weights from csv require a lift"
        spec = filter_spec(tmp_path, lift={"period": float("nan"), "harmonics": 1},
                           weights={"csv": "a.csv", "blocks": 2})
        err = self.refused(tmp_path, capsys, spec)
        assert err == ["error: lift.period must be a positive number"]

    def test_missing_density_file_refused_by_the_dry_run(self, tmp_path, capsys):
        spec = filter_spec(tmp_path, densities={"f": "missing.csv", "g": "g.csv"})
        err = self.refused(tmp_path, capsys, spec)
        assert len(err) == 1 and "missing.csv" in err[0]

    def test_readme_lists_the_class_params_of_each_task(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        table = readme.split("Task-specific `class_params`", 1)[1].split("\n\n")[1]
        listed = {}
        for row in table.splitlines()[2:]:
            key, tasks = row.split(" | ")[:2]
            for task in tasks.split(", "):
                listed.setdefault(task.strip("`"), set()).add(key.strip("| `"))
        read = {}
        for key in _KEYS:
            section, _, name = key.path.partition(".")
            for task in TASKS:
                if section == "class_params" and key.reads(task):
                    read.setdefault(task, set()).add(name)
        assert listed == read


FUZZ_GRID = 32
FUZZ_WEIGHTS = {"inline": [[1.0], [0.5]]}
# one valid problem per task on a small grid; the fuzzers replace one key
FUZZ_SPECS = {
    "interpolate": {"densities": {"f": "f.csv", "g": "g.csv"}, "weights": FUZZ_WEIGHTS},
    "extrapolate": {"densities": {"f": "f.csv"}, "weights": FUZZ_WEIGHTS},
    "extrapolate-finite": {"densities": {"f": "f.csv"}, "weights": FUZZ_WEIGHTS},
    "filter": {"densities": {"f": "f.csv", "g": "g.csv"}, "weights": FUZZ_WEIGHTS},
    "factorize": {"densities": {"f": "f.csv"}},
    "minimax-y": {
        "weights": FUZZ_WEIGHTS,
        "class_params": {"total_power": 1.0, "samples": 3},
    },
    "minimax-interp-dm": {
        "weights": FUZZ_WEIGHTS,
        "class_params": {"moments": [[[2.0]], [[0.5]]], "samples": 3},
    },
    "minimax-extrap-d01": {
        "weights": FUZZ_WEIGHTS,
        "class_params": {"power_matrix": [[1.0]], "samples": 3},
    },
    "minimax-filter-d0eps": {
        "densities": {"g2": "g.csv"},
        "weights": {"inline": [[1.0]]},  # one block: converges in one step
        "class_params": {"signal_power": 1.0, "noise_power": 1.0, "eps": 0.5,
                         "samples": 3},
    },
    "oracle-check": {
        "densities": {"f": "f.csv", "g": "g.csv"},
        "weights": FUZZ_WEIGHTS,
        "class_params": {"task": "filter"},
    },
    "simulate": {"densities": {"f": "f.csv"}, "class_params": {"n_blocks": 16}},
}
# null, booleans, negative and zero numbers, 8 (the smallest grid), an
# integer beyond 64 bits, a string, lists, objects, and the NaN and Infinity
# that Python's json reads
FUZZ_VALUES = [None, True, False, -1, -2.5, 0, 8, 2**70, "x", [], [1], [[1.0]], {},
               {"a": 1}, float("nan"), float("inf")]
# a class_params key that no task reads: a typo of samples
UNKNOWN_KEY = ("class_params", "sample")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)


def fuzz_spec(task):
    return {"task": task, **copy.deepcopy(FUZZ_SPECS[task]),
            "numerics": {"grid": FUZZ_GRID, "seed": 1, "truncation": None}}


def key_paths(obj, prefix=()):
    """Every key of a nested spec, as a path from the top level."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def fuzz_paths(task):
    """The key paths the fuzzers set: every key of the task's spec, and one
    class_params key that the task does not read."""
    return list(key_paths(fuzz_spec(task))) + [UNKNOWN_KEY]


def run_with_value(root, task, path, value, *flags):
    """Exit code and stderr of the task's spec with one key set to value."""
    payload = fuzz_spec(task)
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    spec = write_spec(root, payload)
    err = io.StringIO()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        code = main(["--spec", str(spec), "--out", str(root / "out"), *flags])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_density_csv(
        SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=FUZZ_GRID),
        root / "f.csv",
    )
    write_density_csv(SpectralDensity.white(1, 0.5, grid_size=FUZZ_GRID), root / "g.csv")
    return root


class TestFuzzedSpecs:
    """Each key of a valid spec set to another JSON value: exit 0, 1 or 2,
    never a traceback. Runs ``main`` in-process on a 32-node grid."""

    def test_base_specs_solve(self, fuzz_dir):
        assert sorted(FUZZ_SPECS) == sorted(TASKS)
        for task in TASKS:
            code, err = run_with_value(fuzz_dir, task, ("numerics", "seed"), 1)
            assert code == 0, (task, err)

    @pytest.mark.parametrize("task", TASKS)
    def test_every_key_with_every_listed_value(self, fuzz_dir, task):
        # --dry-run runs every check short of the solve: it refuses (exit 1)
        # exactly the specs that the run refuses; a spec it admits has passed
        # the grid-resolution rule, and fails only where its solve does not
        # settle (on the 8-node grid)
        for path in fuzz_paths(task):
            for value in FUZZ_VALUES:
                code, err = run_with_value(fuzz_dir, task, path, value)
                assert code in (0, 1, 2), (path, value)
                assert "Traceback" not in err, (path, value)
                dry_code, dry_err = run_with_value(fuzz_dir, task, path, value,
                                                   "--dry-run")
                assert (dry_code == 1) == (code == 1), (path, value, err, dry_err)
                assert "Traceback" not in dry_err, (path, value)
                if dry_code == 0:
                    assert "is not resolvable" not in err, (path, value, err)
                    assert code == 0 or "did not stabilise" in err, (path, value, err)
                if path == UNKNOWN_KEY:
                    assert code == 1
                    assert "class_params: unknown key 'sample'" in err

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(task=st.sampled_from(TASKS), data=st.data())
    def test_any_key_with_any_json_value(self, fuzz_dir, task, data):
        path = data.draw(st.sampled_from(fuzz_paths(task)), label="key")
        value = data.draw(json_values, label="value")
        code, err = run_with_value(fuzz_dir, task, path, value)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


def source_env(**variables):
    """The environment of a fresh interpreter that imports this pcwk."""
    src = str(Path(pcwk.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert scipy_modules_after("import sys, pcwk.cli") == "[]"


def test_oracle_leaves_scipy_unloaded():
    code = (
        "import sys, pcwk; "
        "f = pcwk.SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=512); "
        "w = pcwk.FunctionalWeights.interpolation([[1.0]]); "
        "proj, _ = pcwk.time_domain_projection_converged(f, None, w); "
        "assert proj.converged"
    )
    assert scipy_modules_after(code) == "[]"


def test_debug_log_names_each_kernel(tmp_path):
    # PCWK_LOG=debug reaches the solvers' records through the CLI's basicConfig
    out = subprocess.run(
        [sys.executable, "-m", "pcwk.cli", "--spec", str(filter_spec(tmp_path)),
         "--out", str(tmp_path / "out")],
        env=source_env(PCWK_LOG="debug"), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert f"DEBUG:pcwk:kernel (f+g)^-1 (G = {GRID}, K = 1): computed" in out.stderr


@pytest.mark.parametrize("task, size", [
    ("filter", "filtering (G = 256, K = 1, truncation = 32)"),
    ("interpolate", "interpolation (G = 256, K = 1, n = 0)"),
])
def test_info_log_has_one_record_per_solve(tmp_path, task, size):
    # PCWK_LOG=info logs each solve once, with its sizes, condition and mse
    out = subprocess.run(
        [sys.executable, "-m", "pcwk.cli", "--spec", str(filter_spec(tmp_path, task=task)),
         "--out", str(tmp_path / "out")],
        env=source_env(PCWK_LOG="info"), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    mse = float(read_summary(tmp_path / "out")["mse"])
    records = [line for line in out.stderr.splitlines() if line.startswith("INFO:pcwk:")]
    assert records == [f"INFO:pcwk:solve {size}: condition 1.0, mse {mse!r}"]
    assert "DEBUG:" not in out.stderr


def test_debug_log_names_each_section_read(tmp_path):
    # one record per section of the kernel a level reads: the first read
    # computes the factor, the second level extends it by one chunk
    out = subprocess.run(
        [sys.executable, "-m", "pcwk.cli", "--spec", str(filter_spec(tmp_path)),
         "--out", str(tmp_path / "out")],
        env=source_env(PCWK_LOG="debug"), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    sections = [line for line in out.stderr.splitlines()
                if line.startswith("DEBUG:pcwk:section")]
    assert sections == [
        f"DEBUG:pcwk:section of (f+g)^-1 (G = {GRID}, K = 1, 16 rows): computed 0 chunks",
        f"DEBUG:pcwk:section of (f+g)^-1 (G = {GRID}, K = 1, 32 rows): extended by 1 chunks",
    ]
