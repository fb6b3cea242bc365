import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rtdeph import _kernels, analytic, cli, engine, noise
from rtdeph._kernels import _reference

from _oracles import Q_ABS_G5_VT_2PI


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == cli.CSV_HEADER
    rows = []
    for line in lines[1:]:
        vt, g, ef, env, ef_mc, ef_mc_se = line.split(",")
        rows.append(
            {
                "vt": float(vt),
                "g": g,
                "ef": float(ef),
                "env": float(env),
                "ef_mc": float(ef_mc) if ef_mc else None,
                "ef_mc_se": float(ef_mc_se) if ef_mc_se else None,
            }
        )
    return rows


def test_figure_analytic_static_curve(tmp_path):
    out = tmp_path / "fig.csv"
    rc = cli.main(["--mode", "analytic", "--g", "inf", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    rows = read_rows(out)
    # default grid has 601 points: step 2*pi/200 over [0, 6*pi]
    assert len(rows) == 601
    by_vt = {round(r["vt"], 12): r for r in rows}
    assert by_vt[0.0]["ef"] == pytest.approx(1.0, abs=1e-12)
    near_pi = rows[100]  # vt = 100 * 2*pi/200 = pi
    assert near_pi["ef"] == pytest.approx(0.0, abs=1e-9)
    near_2pi = rows[200]
    assert near_2pi["ef"] == pytest.approx(1.0, abs=1e-9)
    assert all(r["ef_mc"] is None for r in rows)
    assert all(r["env"] == 1.0 for r in rows)


def test_figure_analytic_strong_coupling_row(tmp_path):
    from _oracles import Q_ABS_G5_VT_2PI, mp_entanglement_of_formation

    out = tmp_path / "fig.csv"
    rc = cli.main(["--mode", "analytic", "--g", "5", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    row = read_rows(out)[200]  # vt = 2*pi on the default grid
    assert row["vt"] == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert row["ef"] == pytest.approx(mp_entanglement_of_formation(Q_ABS_G5_VT_2PI), abs=1e-9)


def test_figure_values_in_unit_interval(tmp_path):
    out = tmp_path / "fig.csv"
    rc = cli.main(
        ["--mode", "mc", "--g", "5,inf", "--vt-step", "0.9", "--vt-max", "9.0",
         "--n-traj", "200", "--seed", "3", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    rows = read_rows(out)
    assert {r["g"] for r in rows} == {"5.0", "inf"}
    for r in rows:
        assert 0.0 <= r["ef"] <= 1.0
        assert 0.0 <= r["env"] <= 1.0
        assert r["ef_mc"] is not None and 0.0 <= r["ef_mc"] <= 1.0
        assert r["ef_mc_se"] is not None and r["ef_mc_se"] >= 0.0


def test_figure_mc_envelope_relation(tmp_path):
    # the MC curve should roughly track the analytic one
    out = tmp_path / "fig.csv"
    rc = cli.main(
        ["--mode", "mc", "--g", "5", "--vt-step", "0.5", "--vt-max", "12.0",
         "--n-traj", "3000", "--seed", "0", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    rows = read_rows(out)
    worst = max(abs(r["ef"] - r["ef_mc"]) for r in rows)
    assert worst < 0.1


def _byte_identical_across_threads(tmp_path, args):
    out1, out3 = tmp_path / "t1", tmp_path / "t3"
    assert cli.main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert cli.main(args + ["--threads", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


# 4500 trajectories: three blocks, the last one partial, so that a
# per-block or merge-order fault shows
def test_csv_byte_identical_across_threads(tmp_path):
    _byte_identical_across_threads(
        tmp_path, ["--mode", "mc", "--g", "5,1", "--vt-step", "1.3", "--vt-max", "13.0",
                   "--n-traj", "4500", "--seed", "8", "--no-timestamp"])


def test_recovery_json_byte_identical_across_threads(tmp_path):
    _byte_identical_across_threads(
        tmp_path, ["--mode", "recovery", "--g", "0.5,5,inf", "--revival-n", "2",
                   "--n-traj", "4500", "--seed", "8", "--no-timestamp"])


def test_compare_json_byte_identical_across_threads(tmp_path):
    _byte_identical_across_threads(
        tmp_path, ["--mode", "both", "--g", "0.5,5", "--vt-step", "1.3", "--vt-max", "13.0",
                   "--n-traj", "4500", "--seed", "8", "--no-timestamp"])


def test_autocorr_json_byte_identical_across_threads(tmp_path):
    _byte_identical_across_threads(
        tmp_path, ["--mode", "autocorr", "--g", "0.5,2", "--n-traj", "4500", "--seed", "8",
                   "--no-timestamp"])


@pytest.mark.parametrize("command, args", [
    (cli.cmd_figure1, ["--mode", "mc", "--g", "5,1", "--vt-step", "1.3", "--vt-max", "13.0"]),
    (cli.cmd_recovery, ["--mode", "recovery", "--g", "0.5,5,inf", "--revival-n", "2"]),
    (cli.cmd_figure1, ["--mode", "analytic", "--g", "inf,50,0.3", "--vt-step", "0.05",
                       "--vt-max", "13.0"]),
    (cli.cmd_compare, ["--mode", "both", "--g", "0.5,5,inf", "--vt-step", "0.7",
                       "--vt-max", "13.0"]),
    (cli.cmd_autocorr, ["--mode", "autocorr", "--g", "0.5,2"]),
    # cut draws: lags ending early in an epoch, and revivals deep in one;
    # at seed 8 the g = 0.5 estimate at lag 0.7 lies 3.07 standard errors
    # from exp(-gamma*tau), one lag in nine, and the report fails
    (cli.cmd_autocorr, ["--mode", "autocorr", "--g", "0.5,1,2", "--lags", "0.05,0.7,2.9",
                        "--seed", "9"]),
    (cli.cmd_recovery, ["--mode", "recovery", "--g", "0.3,0.5,5,inf", "--revival-n", "3"]),
    (cli.cmd_figure1, ["--mode", "analytic", "--g", "0.5,5,inf", "--vt-step", "0.7",
                       "--vt-max", "13"]),
    (cli.cmd_figure1, ["--mode", "mc", "--g", "0.5,5,inf", "--vt-step", "0.7", "--vt-max", "13"]),
    # draws up to a horizon on an epoch boundary, 8 = 2L at L = 4: the
    # epoch count the cut gives must hold the epoch that starts there
    (cli.cmd_figure1, ["--mode", "mc", "--g", "0.5", "--vt-max", "8", "--vt-step", "0.5"]),
])
def test_artifacts_identical_across_backends(compiled, monkeypatch, tmp_path, command, args):
    # every writer, the CSV and the JSON reports, float formatter included,
    # end to end through main; 4500 trajectories: three blocks, the last one
    # partial.  All cases but the first and the third are the eight
    # cross-backend calls of CI's workflow, with its arguments
    calls = []
    monkeypatch.setattr(cli, command.__name__, lambda spec: calls.append(spec) or command(spec))
    runs = []
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        out = tmp_path / backend.__name__
        code = cli.main(["--n-traj", "4500", "--seed", "8", "--no-timestamp", *args,
                         "--out", str(out)])
        runs.append((code, [line for line in out.read_text().splitlines()
                            if "backend" not in line]))
    assert len(calls) == 2
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_timestamp_toggle(tmp_path):
    args = ["--mode", "analytic", "--g", "inf", "--vt-step", "1.0", "--vt-max", "3.0"]
    stamped = tmp_path / "s.csv"
    bare = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(stamped)]) == 0
    assert cli.main(args + ["--out", str(bare), "--no-timestamp"]) == 0
    assert any(l.startswith("# generated:") for l in stamped.read_text().splitlines())
    assert not any(l.startswith("# generated:") for l in bare.read_text().splitlines())


def test_compare_mode_passes_and_reports_schema(tmp_path):
    out = tmp_path / "cmp.json"
    rc = cli.main(
        ["--mode", "both", "--g", "5,inf", "--vt-step", "1.0", "--vt-max", "10.0",
         "--n-traj", "2000", "--seed", "1", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report) >= {"params", "max_abs_dev", "tolerance", "pass", "per_point"}
    assert report["pass"] is True
    assert report["max_abs_dev"] < 0.05
    point = report["per_point"][0]
    assert set(point) >= {"vt", "q_re", "q_im", "qhat_re", "qhat_im", "se_re", "se_im"}


def test_compare_mode_fail_path(tmp_path, monkeypatch):
    # negative control: corrupt the MC coherences and expect a failing report
    real_run = engine.run_ensemble

    def corrupted(*args, **kwargs):
        return [engine.EnsembleResult(**{**result.__dict__, "q_mean": result.q_mean + 0.5})
                for result in real_run(*args, **kwargs)]

    monkeypatch.setattr(engine, "run_ensemble", corrupted)
    out = tmp_path / "cmp.json"
    rc = cli.main(
        ["--mode", "both", "--g", "5", "--vt-step", "1.0", "--vt-max", "6.0",
         "--n-traj", "300", "--seed", "1", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["max_abs_dev"] > 0.05


def _compare_report(*argv):
    spec = _spec("--mode", "both", "--n-traj", "300", "--seed", "4", "--no-timestamp", *argv)
    results = engine.run_ensemble([spec.rt_params(g) for g in spec.g], spec.vt_grid() / spec.v,
                                  spec.n_traj, spec.seed)
    return cli.build_compare_report(spec, dict(zip(spec.g, results)))


def _assert_written_as_json_writes(report):
    text, code = cli._verdict(report, [{"pass": True}])
    assert text == json.dumps(report, indent=2) + "\n"
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("--g", "0.5,1,2,5", "--vt-step", "0.3141592653589793"),
    ("--g", "inf,0.05", "--vt-step", "0.7", "--vt-max", "30"),
    ("--g", "3", "--v", "2.5", "--vt-step", "1e-3", "--vt-max", "0.5"),
])
def test_compare_report_written_as_json_writes_it(argv):
    # per_point is written field by field from the float formatter, the
    # rest by json; the text must be json's, byte for byte
    report = _compare_report(*argv)
    _assert_written_as_json_writes(report)
    report["per_point"] = []
    _assert_written_as_json_writes(report)


_FIELD_VALUES = {"float": st.floats(), "str": st.text(max_size=6), "bool": st.booleans()}


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(keys=st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True),
       kinds=st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=5, max_size=5),
       rows=st.integers(0, 6), data=st.data())
def test_records_written_as_json_writes_them(keys, kinds, rows, data):
    # each field holds one kind of value: floats with nan, +-inf, +-0.0
    # and subnormals among them, any text (quotes, '%', non-ASCII) or
    # booleans; the keys are any text too
    records = [{key: data.draw(_FIELD_VALUES[kind]) for key, kind in zip(keys, kinds)}
               for _ in range(rows)]
    _assert_written_as_json_writes({"params": {"g": ["5.0"]}, "pass": None,
                                    "per_point": records, "after": [1.5, math.nan]})


def test_compare_report_matches_a_scalar_loop():
    # the report is built from numpy columns; a per-point scalar loop with
    # the same arithmetic is the reference, so every value must be equal
    spec = _spec("--mode", "both", "--g", "0.5,1,2,5", "--vt-step", "0.3", "--vt-max", "18.0",
                 "--n-traj", "200", "--seed", "3", "--no-timestamp")
    results = dict(zip(spec.g, engine.run_ensemble([spec.rt_params(g) for g in spec.g],
                                                   spec.vt_grid() / spec.v, spec.n_traj,
                                                   spec.seed)))
    report = cli.build_compare_report(spec, results)
    points = iter(report["per_point"])
    global_max = 0.0
    for entry, (g, result) in zip(report["per_g"], results.items()):
        q_ref = analytic.coherence_factor(spec.rt_params(g), result.t_grid)
        q, se_re, se_im = result.q_mean, result.q_se_re, result.q_se_im
        g_max, within = 0.0, 0
        for i, t in enumerate(result.t_grid):
            ok = (abs(q[i].real - q_ref[i].real) <= cli.COMPARE_SE_MULTIPLE * se_re[i]
                  and abs(q[i].imag - q_ref[i].imag) <= cli.COMPARE_SE_MULTIPLE * se_im[i])
            within += ok
            g_max = max(g_max, abs(complex(q[i]) - complex(q_ref[i])))
            assert next(points) == {
                "g": entry["g"], "vt": spec.v * float(t),
                "q_re": float(q_ref[i].real), "q_im": float(q_ref[i].imag),
                "qhat_re": float(q[i].real), "qhat_im": float(q[i].imag),
                "se_re": float(se_re[i]), "se_im": float(se_im[i]), "within_band": bool(ok),
            }
        assert entry["max_abs_dev"] == g_max
        assert entry["fraction_within_band"] == within / result.t_grid.size
        global_max = max(global_max, g_max)
    assert next(points, None) is None
    assert report["max_abs_dev"] == global_max


def test_recovery_mode(tmp_path):
    out = tmp_path / "rec.json"
    rc = cli.main(
        ["--mode", "recovery", "--g", "5,inf", "--n-traj", "300", "--seed", "0",
         "--revival-n", "1", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    for entry in report["results"]:
        assert entry["concurrence_after"] == pytest.approx(1.0, abs=1e-9)
    finite = next(e for e in report["results"] if e["g"] == "5.0")
    assert finite["expected_uncorrected"] == pytest.approx(Q_ABS_G5_VT_2PI, abs=1e-12)
    assert finite["concurrence_before"] < 0.7
    static = next(e for e in report["results"] if e["g"] == "inf")
    assert static["concurrence_before"] == pytest.approx(1.0, abs=1e-9)


def test_recovery_expected_uncorrected_is_coherence_modulus(tmp_path):
    # |q(t_n)|, not the revival envelope exp(-gamma*t_n/2): at g = 0.5 the
    # two differ by five orders of magnitude
    out = tmp_path / "rec.json"
    n_traj = 2000
    rc = cli.main(
        ["--mode", "recovery", "--g", "0.5,5", "--n-traj", str(n_traj), "--seed", "0",
         "--revival-n", "2", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    for entry in json.loads(out.read_text())["results"]:
        gap = abs(entry["expected_uncorrected"] - entry["concurrence_before"])
        assert gap <= 4.0 / math.sqrt(n_traj), entry


def _wrong_sign(theta, n):
    return -(theta - 2.0 * math.pi * n)


def _from_permuted_realization(theta, n):
    return np.roll(theta - 2.0 * math.pi * n, 1)


@pytest.mark.parametrize("fault", [_wrong_sign, _from_permuted_realization])
def test_recovery_mode_fail_path(tmp_path, monkeypatch, fault):
    # negative control: a wrong per-trajectory correction must fail the report
    monkeypatch.setattr(engine, "_correction_phase", fault)
    out = tmp_path / "rec.json"
    rc = cli.main(
        ["--mode", "recovery", "--g", "5", "--n-traj", "2000", "--seed", "0",
         "--revival-n", "1", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["results"][0]["concurrence_after"] < 0.9


def test_recovery_mode_fails_on_wrong_uncorrected_concurrence(tmp_path, monkeypatch):
    # negative control for the "before" half: an uncorrected concurrence
    # 0.2 away from |q(t_n)| must fail the report even though recovery works
    real_report = engine.recovery_report

    def shifted(*args, **kwargs):
        return [engine.RecoveryReport(
            **{**report.__dict__, "concurrence_before": report.concurrence_before + 0.2})
            for report in real_report(*args, **kwargs)]

    monkeypatch.setattr(engine, "recovery_report", shifted)
    out = tmp_path / "rec.json"
    rc = cli.main(
        ["--mode", "recovery", "--g", "5", "--n-traj", "2000", "--seed", "0",
         "--revival-n", "1", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["results"][0]["concurrence_after"] == pytest.approx(1.0, abs=1e-9)


def test_mc_first_row_is_exact(tmp_path):
    # at t = 0 every trajectory coherence is exactly 1, so E_f is exactly 1
    # with a zero standard error
    out = tmp_path / "mc.csv"
    rc = cli.main(
        ["--mode", "mc", "--g", "5", "--vt-step", "1.0", "--vt-max", "3.0",
         "--n-traj", "200", "--seed", "0", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    first = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1]
    assert first.endswith(",1.0,0.0")


def test_autocorr_mode(tmp_path):
    out = tmp_path / "ac.json"
    rc = cli.main(
        ["--mode", "autocorr", "--g", "2", "--n-traj", "20000", "--seed", "4",
         "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    section = report["results"][0]
    assert section["gamma"] == pytest.approx(0.5)
    lags = [row["lag"] for row in section["per_lag"]]
    assert lags == pytest.approx([1.0, 2.0, 4.0, 6.0])  # gamma*tau in {0.5,1,2,3}
    for row in section["per_lag"]:
        assert row["expected"] == pytest.approx(math.exp(-0.5 * row["lag"]), rel=1e-12)
        assert row["within_3se"]


def test_autocorr_custom_lags(tmp_path):
    out = tmp_path / "ac.json"
    rc = cli.main(
        ["--mode", "autocorr", "--g", "1", "--n-traj", "5000", "--seed", "4",
         "--lags", "0.25,1.5", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert [row["lag"] for row in report["results"][0]["per_lag"]] == [0.25, 1.5]


def test_autocorr_mode_samples_each_g_on_its_own(tmp_path):
    # at the default lags (0.5, 1, 2, 3)/gamma the waiting times scale with
    # 1/gamma, so shared realizations would give identical estimates for
    # every g
    out = tmp_path / "ac.json"
    rc = cli.main(
        ["--mode", "autocorr", "--g", "0.5,1", "--n-traj", "2000", "--seed", "4",
         "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    first, second = (
        [row["estimate"] for row in section["per_lag"]]
        for section in json.loads(out.read_text())["results"]
    )
    assert first != second


def _artifact(tmp_path, name, *args):
    out = tmp_path / name
    assert cli.main([*args, "--n-traj", "300", "--seed", "6", "--vt-step", "0.5",
                     "--out", str(out), "--no-timestamp"]) in (0, 1)
    return out.read_text()


@pytest.mark.parametrize("mode", ["mc", "both", "recovery"])
def test_couplings_of_one_call_share_their_trajectories(tmp_path, mode):
    # common random numbers: every g of an mc, both or recovery call sees
    # the trajectories of the seed's indices 0..n-1, so its part of the
    # artifact is that of a call with that g alone; the curves share their
    # Monte Carlo errors, and giving each g its own indices fails this
    g_values = ("5", "10", "50")
    together = _artifact(tmp_path, "all", "--mode", mode, "--g", ",".join(g_values))
    alone = [_artifact(tmp_path, g, "--mode", mode, "--g", g) for g in g_values]
    if mode == "mc":
        rows = [line for line in together.splitlines() if line[:1].isdigit()]
        for g, text in zip(g_values, alone):
            own = [line for line in text.splitlines() if line[:1].isdigit()]
            assert own and own == [row for row in rows if row.split(",")[1] == repr(float(g))]
        return
    key = "per_point" if mode == "both" else "results"
    entries = json.loads(together)[key]
    for g, text in zip(g_values, alone):
        own = json.loads(text)[key]
        assert own and own == [entry for entry in entries if entry["g"] == repr(float(g))]


def test_autocorr_mode_fail_path(tmp_path, monkeypatch):
    # negative control: corrupt the estimates and expect a failing report
    real_estimate = cli.estimate_autocorrelation

    def corrupted(*args, **kwargs):
        return [noise.AutocorrelationResult(**{**result.__dict__,
                                               "estimates": result.estimates + 0.5})
                for result in real_estimate(*args, **kwargs)]

    monkeypatch.setattr(cli, "estimate_autocorrelation", corrupted)
    out = tmp_path / "ac.json"
    rc = cli.main(
        ["--mode", "autocorr", "--g", "2", "--n-traj", "5000", "--seed", "4",
         "--out", str(out), "--no-timestamp"]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert not any(row["within_3se"] for row in report["results"][0]["per_lag"])


def test_autocorr_rejects_static_limit(tmp_path, monkeypatch, capsys):
    # a static g among finite ones is refused before any g is sampled
    calls = []
    monkeypatch.setattr(cli, "estimate_autocorrelation", lambda *a, **k: calls.append(a))
    out = tmp_path / "ac.json"
    for g in ("inf", "0.5,1,inf"):
        assert cli.main(["--mode", "autocorr", "--g", g, "--n-traj", "200000",
                         "--out", str(out)]) == 2
        assert "autocorr mode needs a finite g (gamma > 0)" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--g", "0.5,1,1e-320"], "gamma must be finite"),
    (["--g", "0.5,1,1e-12", "--lags", "1"], "more epochs than the 32-bit epoch counter"),
])
def test_autocorr_refuses_a_bad_g_before_any_pass(tmp_path, monkeypatch, capsys, argv, message):
    # g = 1e-320 makes gamma = v/g overflow, and g = 1e-12 at lag 1 spans
    # 1.25e11 epochs: either is refused before the first g is sampled
    calls = []
    real_estimate = cli.estimate_autocorrelation
    monkeypatch.setattr(cli, "estimate_autocorrelation",
                        lambda *a, **k: calls.append(a) or real_estimate(*a, **k))
    out = tmp_path / "ac.json"
    assert cli.main(["--mode", "autocorr", *argv, "--n-traj", "64", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["--mode", "mc"], "--vt-max 18.84955592153876"),
    (["--mode", "recovery"], "--revival-n 1"),
    (["--mode", "both", "--vt-max", "3"], "--vt-max 3.0"),
])
def test_horizon_past_the_epoch_counter_exits_2_naming_the_options(tmp_path, monkeypatch,
                                                                   capsys, argv, option):
    # g = 1e-12 at the default grid (v*t up to 6*pi) or the first revival
    # spans about 1e12 epochs of 8e-12: refused before any block is drawn,
    # with the options that set the horizon named
    calls = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a) or real_draw(*a))
    out = tmp_path / "out"
    assert cli.main([*argv, "--g", "1e-12", "--n-traj", "64", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rtdeph: invalid input: --g 1e-12 with {option}: "
        "the horizon spans more epochs than the 32-bit epoch counter\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("mode, bad_g", [
    # the epoch length 8g/v overflows: every sampled mode
    *((mode, "1e308") for mode in ("mc", "both", "recovery", "autocorr")),
    # gamma = v/g overflows: every mode
    *((mode, "1e-320") for mode in cli.MODES),
])
def test_unsampleable_g_exits_2_naming_it(tmp_path, monkeypatch, capsys, mode, bad_g):
    # refused before any block is drawn, with no warning and no artifact
    calls = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a) or real_draw(*a))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--mode", mode, "--g", "0.5," + bad_g, "--n-traj", "64",
                         "--out", str(out)]) == 2
    assert caught == []
    assert f"invalid input: --g {float(bad_g)!r}: " in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("mode, argv, option", [
    *((mode, ["--v", "1e-310", "--vt-max", "1"], "--vt-max 1.0")
      for mode in ("analytic", "mc", "both")),
    ("recovery", ["--v", "1e-309"], "--revival-n 1"),
])
def test_tiny_v_exits_2_naming_it(tmp_path, monkeypatch, capsys, mode, argv, option):
    # vt-max/v, or 2*pi*revival-n/v, overflows: refused before any division
    # (so with no overflow warning) and before any block is drawn, naming
    # --v and the option that sets the last time; at g = inf the epoch
    # length is no fault
    calls = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a) or real_draw(*a))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--mode", mode, "--g", "inf", *argv, "--n-traj", "64",
                         "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        f"rtdeph: invalid input: --v {float(argv[1])!r} with {option}: "
        "the last time of the run overflows\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("revival_n", ["1" + "0" * 400, str(2**1024), "1" + "0" * 308],
                         ids=["1e400", "2**1024", "1e308"])
def test_revival_n_past_the_floats_exits_2_naming_it(tmp_path, monkeypatch, capsys, revival_n):
    # no float holds the first two, and 2*pi*revival-n/v overflows for the
    # third: each is refused before any block is drawn, with exit 2 (not
    # an uncaught OverflowError's exit 1, the code of a failed verdict),
    # no traceback and no artifact, naming --revival-n
    calls = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a) or real_draw(*a))
    out = tmp_path / "out"
    assert cli.main(["--mode", "recovery", "--g", "5", "--revival-n", revival_n,
                     "--n-traj", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rtdeph: invalid input: ") and f"--revival-n {revival_n}" in err
    assert "overflows" in err and "Traceback" not in err
    # 2*pi*revival-n overflows before v divides it: v is not at fault
    assert "--v" not in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("mode", ["analytic", "mc"])
def test_vt_grid_end_past_the_floats_exits_2_naming_vt_max(tmp_path, capsys, mode):
    # vt-max / vt-step is 3 to within 1e-9, so the grid's last point is
    # 3 * vt-step, past the largest float before v divides it: v is not at
    # fault
    out = tmp_path / "out"
    assert cli.main(["--mode", mode, "--g", "5", "--vt-max", "1.7976931348623157e308",
                     "--vt-step", "5.992310449541054e307", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("rtdeph: invalid input: --vt-max 1.7976931348623157e+308: "
                                       "the last time of the run overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["autocorr", "mc"])
@pytest.mark.parametrize("lags", ["nan,1", "inf", "-1,2"])
def test_nonfinite_or_negative_lags_exit_2_naming_them(tmp_path, monkeypatch, capsys, mode,
                                                       lags):
    # refused in every mode, before any block is drawn, naming --lags
    calls = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a) or real_draw(*a))
    out = tmp_path / "out"
    assert cli.main(["--mode", mode, "--g", "0.5", f"--lags={lags}", "--n-traj", "64",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rtdeph: invalid input: --lags {list(cli._parse_float_list(lags))}: "
        "lags must be finite and non-negative\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["--mode", "mc", "--g", "5", "--n-traj", "100000000000000000000000"],
     "--n-traj 100000000000000000000000"),
    (["--mode", "recovery", "--g", "5", "--n-traj", "18446744073709551617"],
     "--n-traj 18446744073709551617"),
    # autocorr gives each g its own n-traj trajectories: 2 * 1e19 > 2**64
    (["--mode", "autocorr", "--g", "0.5,1", "--n-traj", "10000000000000000000"],
     "--n-traj 10000000000000000000 with 2 values of --g"),
])
def test_n_traj_past_the_index_space_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv,
                                                       option):
    # refused with the spec, before any block is drawn
    calls = []
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: calls.append(a))
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rtdeph: invalid input: {option}: trajectory indices must stay below 2**64\n")
    assert calls == []
    assert not out.exists()
    # the analytic mode draws no trajectory, so the count is no fault there
    assert cli.main(["--mode", "analytic", *argv[2:], "--out", str(out)]) == 0
    assert out.exists()


def test_a_huge_thread_count_runs_one_thread_per_block(tmp_path, monkeypatch):
    # 64 trajectories are one block: it runs on the calling thread, which
    # starts none, whatever --threads asks for, and the artifact is that of
    # one thread
    real_thread = noise.Thread
    started = []
    monkeypatch.setattr(noise, "Thread",
                        lambda target: started.append(target) or real_thread(target=target))
    def run(n_traj, threads, out):
        return cli.main(["--mode", "mc", "--g", "5", "--n-traj", str(n_traj), "--vt-max", "4",
                         "--no-timestamp", "--threads", threads, "--out", str(out)])

    huge, one = tmp_path / "huge", tmp_path / "one"
    assert run(64, "1" + "0" * 23, huge) == 0
    assert started == []
    assert run(64, "1", one) == 0
    assert huge.read_bytes() == one.read_bytes()
    # two blocks at a huge --threads are two workers: the calling thread
    # and the one thread it starts, with the same bytes
    assert run(noise.BLOCK + 1, "1" + "0" * 23, huge) == 0
    assert len(started) == 1
    assert run(noise.BLOCK + 1, "1", one) == 0
    assert huge.read_bytes() == one.read_bytes()


def test_unexpected_error_exits_4_with_no_artifact(tmp_path, monkeypatch, capsys):
    # exit 1 is a failed verdict's alone: a fault of the program exits 4
    # with its type and message, and no traceback
    def broken(*args, **kwargs):
        raise RuntimeError("stand-in fault")

    monkeypatch.setattr(engine, "run_ensemble", broken)
    out = tmp_path / "out"
    assert cli.main(["--mode", "both", "--g", "5", "--n-traj", "64", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "rtdeph: internal error: RuntimeError: stand-in fault\n"
    assert not out.exists()


def test_analytic_mode_at_a_huge_coupling(tmp_path):
    # at g = 1e300 the closed form is the static one to every digit:
    # E_f(|cos(vt/2)|) at vt = 1
    out = tmp_path / "fig.csv"
    assert cli.main(["--mode", "analytic", "--g", "1e300", "--vt-max", "1", "--vt-step", "0.5",
                     "--no-timestamp", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [row["vt"] for row in rows] == [0.0, 0.5, 1.0]
    assert rows[-1]["ef"] == pytest.approx(0.8271794982944158, abs=1e-15)


def test_uncountable_vt_grid_exits_2(tmp_path, capsys):
    # vt-max / vt-step overflows to inf: the grid's point count cannot be
    # formed, which is invalid input, not a validation failure
    config = tmp_path / "grid.cfg"
    config.write_text("vt_max = 1e300\nvt_step = 1e-300\n")
    out = tmp_path / "out.csv"
    for source in (["--vt-max", "1e300", "--vt-step", "1e-300"], ["--config", str(config)]):
        assert cli.main(["--mode", "analytic", "--g", "5", *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid input: vt grid" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("vt_max, vt_step", [("1e300", "1e-5"), ("2.4e18", "2")])
def test_unindexable_vt_grid_exits_2(tmp_path, capsys, vt_max, vt_step):
    # a finite point count beyond what one numpy array can hold (2**60
    # float64 values) is refused before any array is made, with a message
    # that names the grid and its options, by flag and by config file
    config = tmp_path / "grid.cfg"
    config.write_text(f"vt_max = {vt_max}\nvt_step = {vt_step}\n")
    out = tmp_path / "out.csv"
    for source in (["--vt-max", vt_max, "--vt-step", vt_step], ["--config", str(config)]):
        assert cli.main(["--mode", "analytic", "--g", "5", *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid input: vt grid has" in err and "vt-max / vt-step" in err, err
        assert "Traceback" not in err
    assert not out.exists()


def test_invalid_inputs_exit_2():
    assert cli.main(["--mode", "analytic", "--vt-step", "-1"]) == 2
    assert cli.main(["--mode", "analytic", "--g", "0"]) == 2
    assert cli.main(["--mode", "analytic", "--g", "-3"]) == 2
    assert cli.main(["--mode", "recovery", "--revival-n", "0"]) == 2
    assert cli.main(["--mode", "nonsense"]) == 2  # argparse usage error
    assert cli.main(["--config", "/nonexistent/config.txt"]) == 2


@pytest.mark.parametrize("argv, named", [
    (["--v", "x"], "--v"),
    (["--n-traj", "1.5"], "--n-traj"),
    (["--threads", "two"], "--threads"),
    (["--g", "5,abc"], "--g"),
    (["--lags", "0.5,x"], "--lags"),
])
def test_unparsable_flag_exits_2_naming_it(capsys, argv, named):
    assert cli.main(argv) == 2
    assert f"argument {named}:" in capsys.readouterr().err


#: A valid text for every option but mode, out and no_timestamp, small
#: enough to run: each property below replaces some of them.
_VALID_TEXTS = {"g": "0.5,5", "v": "1", "vt_max": "3", "vt_step": "0.5", "n_traj": "64",
                "seed": "7", "threads": "1", "revival_n": "1", "lags": "0.5,1"}

#: Hostile numbers: zero, negatives, nan, +-inf, the float extremes and
#: huge integer literals, with a few valid ones to combine with them.
_HOSTILE_NUMBERS = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308",
                    "5e-324", "1" + "0" * 400, str(2**64), "-" + "9" * 30, "0.5", "2", "64"]

#: An option's text: a hostile number, or an empty or repeated list of them.
_HOSTILE_TEXTS = st.one_of(
    st.sampled_from(_HOSTILE_NUMBERS),
    st.lists(st.sampled_from(_HOSTILE_NUMBERS), max_size=3).map(",".join),
    st.sampled_from(_HOSTILE_NUMBERS).map(lambda text: f"{text},{text}"),
    st.just(","))

#: Edge texts of each kind of option, many of which a spec accepts: the
#: float extremes, inf, zero and lists of them, and large integers.
_EDGE_NUMBERS = st.sampled_from(["5e-324", "1e-308", "1e308", "inf", "0", "0.5", "2", "64"])
_EDGE_TEXTS = {
    **dict.fromkeys(("g", "lags"),
                    st.lists(_EDGE_NUMBERS, min_size=1, max_size=3, unique=True).map(",".join)),
    **dict.fromkeys(("v", "vt_max", "vt_step"), _EDGE_NUMBERS),
    **dict.fromkeys(("n_traj", "seed", "threads", "revival_n"),
                    st.sampled_from(["0", "1", "2", "64", str(2**63)])),
}


def _hostile_argv(mode, hostile):
    texts = {**_VALID_TEXTS, **hostile}
    # --key=text, so that argparse reads a negative number as the value
    return ["--mode", mode, *(f"--{key.replace('_', '-')}={text}" for key, text in texts.items())]


def _names_option(message, key):
    """Whether ``message`` names the option ``key``, as --flag or bare."""
    name = re.escape(key.replace("_", "-"))
    return re.search(rf"(?<![\w-])(--)?{name}(?![\w-])", message) is not None


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mode=st.sampled_from(cli.MODES),
       hostile=st.dictionaries(st.sampled_from(sorted(_VALID_TEXTS)), _HOSTILE_TEXTS,
                               min_size=1, max_size=3))
def test_hostile_options_give_a_spec_or_name_one(mode, hostile):
    # through the parser and the spec only: no pass runs, nothing large is
    # allocated and no thread starts.  A refusal names one of the options
    # given a hostile text; the others are valid
    argv = _hostile_argv(mode, hostile)
    try:
        spec = cli.build_spec(cli.build_parser().parse_args(argv))
    except ValueError as exc:
        assert any(_names_option(str(exc), key) for key in hostile), (argv, str(exc))
    else:
        assert isinstance(spec, cli.SweepSpec)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(cli.MODES),
       # a list, not a set: a set of strings iterates in an order that
       # changes from process to process, and so would the examples
       hostile=st.lists(st.sampled_from(sorted(_EDGE_TEXTS)), min_size=1, max_size=3,
                        unique=True).flatmap(
           lambda keys: st.fixed_dictionaries({key: _EDGE_TEXTS[key] for key in keys})))
def test_accepted_hostile_options_run_to_a_verdict(tmp_path, mode, hostile):
    # every accepted spec of at most 64 trajectories, 2 threads, 200 grid
    # points and 1000 epochs per coupling runs: it exits 0, 1 or 2, and
    # 1 only with a written report that fails
    argv = _hostile_argv(mode, hostile)
    try:
        spec = cli.build_spec(cli.build_parser().parse_args(argv))
    except ValueError:
        return
    widest_cut = max(_kernels.epoch_grid(spec.rt_params(g).gamma, spec._horizon(g)[0])[1]
                     for g in spec.g) if mode != "analytic" else 0.0
    # the grid's size from its step count: an accepted grid may hold
    # billions of points, which must not be made here either
    if (spec.n_traj > 64 or spec.threads > 2 or spec._vt_steps() + 1 > 200
            or widest_cut > 1000):
        return
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--no-timestamp", "--out", str(out)])
    assert code in (0, 1, 2), argv
    if code == 1:
        assert json.loads(out.read_text())["pass"] is False


def test_unparsable_config_value_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("v = 1.0\nno_timestamp = maybe\n")
    assert cli.main(["--config", str(config)]) == 2
    assert f"{config}:2: no_timestamp:" in capsys.readouterr().err


def test_empty_lag_list_exits_2(tmp_path):
    # an empty lag list would make a report with no rows that always
    # passes, and so would one of zero lags only: at lag 0 the estimate is
    # exactly 1 with a zero standard error
    empty, zeros = tmp_path / "empty.cfg", tmp_path / "zeros.cfg"
    empty.write_text("lags = ,\n")
    zeros.write_text("lags = 0, 0.0\n")
    out = tmp_path / "ac.json"
    for source in (["--lags", ","], ["--config", str(empty)], ["--lags", "0"],
                   ["--lags", "0,0"], ["--config", str(zeros)]):
        assert cli.main(["--mode", "autocorr", "--g", "1", "--n-traj", "64", *source,
                         "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(["--mode", "autocorr", "--g", "1", "--n-traj", "64", "--lags", "0,0.5",
                     "--out", str(out), "--no-timestamp"]) == 0


@pytest.mark.parametrize("mode", ["mc", "both", "recovery", "autocorr"])
def test_repeated_g_exits_2(tmp_path, mode):
    # results are keyed by g, so a repeated coupling would be echoed twice
    # but reported once
    out = tmp_path / "out"
    assert cli.main(["--mode", mode, "--g", "5,0.5,5.0", "--n-traj", "64", "--vt-max", "2",
                     "--vt-step", "0.5", "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_beyond_64_bits_exits_2(tmp_path):
    # the seed keys 64-bit streams: a larger one is refused, not wrapped
    out = str(tmp_path / "out")
    for mode in ("analytic", "mc", "autocorr"):
        assert cli.main(["--mode", mode, "--g", "5", "--seed", str(2**64), "--out", out]) == 2
    assert cli.main(["--mode", "mc", "--g", "5", "--n-traj", "8", "--vt-max", "1", "--vt-step",
                     "0.5", "--seed", str(2**64 - 1), "--out", out]) == 0


def test_cli_runs_without_numpy_random():
    # numpy imports numpy.random lazily, at a cost of milliseconds and
    # megabytes per CLI call; the streams are the package's own
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from rtdeph import cli\n"
        "for mode in ('mc', 'autocorr'):\n"
        "    cli.main(['--mode', mode, '--g', '0.5', '--n-traj', '64', '--vt-max', '2',\n"
        "              '--vt-step', '0.5', '--no-timestamp', '--out', '-'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_executor_or_logging():
    # the block stream runs on threading alone: concurrent.futures, which
    # imports logging, would cost milliseconds at every CLI start
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "import rtdeph.cli\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_unwritable_output_exits_3(tmp_path):
    rc = cli.main(
        ["--mode", "analytic", "--g", "inf", "--vt-step", "1.0", "--vt-max", "2.0",
         "--out", str(tmp_path / "missing_dir" / "x.csv")]
    )
    assert rc == 3


@pytest.mark.parametrize("mode", ["mc", "both", "recovery", "autocorr"])
def test_unallocatable_run_exits_2(tmp_path, capsys, monkeypatch, mode):
    # a run whose block draws cannot be allocated (--g 1e-9 at 2048
    # trajectories up to v*t = 18.85 asks numpy for about 140 TiB) exits 2
    # with a message, not 1 ("validation failed") with a traceback.  A
    # stand-in sampler raises as numpy does: an overcommitting kernel could
    # grant a real request, and the sampler would then write to it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 140. TiB for an array")

    monkeypatch.setattr(_kernels, "sample", refuse)
    out = tmp_path / "x"
    rc = cli.main(["--mode", mode, "--g", "0.5", "--n-traj", "2048", "--threads", "2",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "rtdeph: cannot allocate memory for this run: Unable to allocate 140. TiB for an array\n")
    assert not out.exists()


def test_stdout_output(capsys):
    rc = cli.main(["--mode", "analytic", "--g", "inf", "--vt-step", "1.0",
                   "--vt-max", "2.0", "--no-timestamp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("2.0,inf,")


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# sweep configuration\n"
        "g = inf\n"
        "vt_step = 1.0\n"
        "vt_max = 4.0   # inline comment\n"
        "mode = analytic\n"
        "no_timestamp = true\n"
    )
    out = tmp_path / "fig.csv"
    rc = cli.main(["--config", str(config), "--out", str(out)])
    assert rc == 0
    assert len(read_rows(out)) == 5

    # flags win over config keys
    rc = cli.main(["--config", str(config), "--vt-max", "2.0", "--out", str(out)])
    assert rc == 0
    assert len(read_rows(out)) == 3


def _spec(*argv):
    return cli.build_spec(cli.build_parser().parse_args(list(argv)))


def test_threads_default_to_the_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _spec().threads == len(os.sched_getaffinity(0))
    # the affinity mask, not the machine's CPU count, and read when the
    # spec is built
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _spec().threads == 3
    assert _spec("--threads", "1").threads == 1


def test_threads_default_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _spec().threads == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _spec().threads == 1


def test_threads_from_config_file_and_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    config = tmp_path / "threads.cfg"
    config.write_text("threads = 1\n")
    assert _spec("--config", str(config)).threads == 1
    assert _spec("--config", str(config), "--threads", "3").threads == 3


#: A value for every option, each different from its default.
OPTION_VALUES = {
    "g": "0.5, inf", "v": "2.5", "vt_max": "9.0", "vt_step": "0.3", "n_traj": "77",
    "seed": "9", "mode": "recovery", "out": "x.json", "no_timestamp": "true", "threads": "3",
    "revival_n": "2", "lags": "0.25,1.5",
}


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_flag_and_config_key_build_the_same_spec(tmp_path, monkeypatch, key):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    value = OPTION_VALUES[key]
    config = tmp_path / "one.cfg"
    config.write_text(f"{key} = {value}\n")
    flag = ["--" + key.replace("_", "-")] + ([] if key == "no_timestamp" else [value])
    from_flag = _spec(*flag)
    assert from_flag == _spec("--config", str(config))
    assert from_flag != _spec()


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 11\n")
    assert cli.main(["--config", str(config)]) == 2


def test_effective_values_echoed_in_metadata(tmp_path):
    out = tmp_path / "fig.csv"
    rc = cli.main(
        ["--mode", "analytic", "--g", "7", "--vt-step", "1.0", "--vt-max", "2.0",
         "--seed", "42", "--out", str(out), "--no-timestamp"]
    )
    assert rc == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    joined = "\n".join(header)
    assert "# g: ['7.0']" in joined
    assert "# seed: 42" in joined
    assert "# backend:" in joined
