import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rfobkit.cli as cli
import rfobkit.engine
from rfobkit.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFEASIBLE, EXIT_OK, main
from rfobkit.config import SCHEMA, ConfigError, build_scenario, parse_config
from rfobkit.engine import (CONTACT_MODE_NAMES, CTRL_MODE_NAMES, NOISE_BLOCK, TIMESERIES_COLUMNS, TRACE_COLUMNS, Scenario,
                            SimResult, run_scenario)
from rfobkit.identify import ContactMode
from rfobkit.observers import RfobConfig
from rfobkit.plant import EnvImpedance, FrictionParams, PlantParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SIM_CFG = (CONFIGS / "sim_force_step.cfg").read_text()
DESIGN_CFG = (CONFIGS / "design_combined.cfg").read_text()
ENV_1S_CFG = (CONFIGS / "identify_env.cfg").read_text().replace("duration_s = 6.0", "duration_s = 1.0")
ONLINE_CFG = ENV_1S_CFG.replace("velocity_filter = off", "velocity_filter = off\nadaptation = online\n"
                                "redesign_period_steps = 200")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[plant]\nM_m_kg = 1.0\nbogus = 2\n")


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[engine]\nfoo = 1\n")


def test_config_missing_required_reports_section_and_key():
    with pytest.raises(ConfigError, match=r"\[plant\].*M_m_kg"):
        parse_config("[plant]\nK_F_N_per_A = 0.5\n")
    with pytest.raises(ConfigError, match=r"\[scenario\].*dt_s"):
        parse_config("[scenario]\nseed = 1\n")


def test_config_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[plant]\nM_m_kg = 1.0\nM_m_kg = 2.0\n")


def test_config_bad_value_reports_context():
    with pytest.raises(ConfigError, match=r"\[plant\] M_m_kg"):
        parse_config("[plant]\nM_m_kg = soft\n")


def test_config_repeated_phases_in_order():
    doc = parse_config(
        "[plant]\nM_m_kg = 1.0\n[scenario]\ndt_s = 1e-4\n"
        "[phase]\nmode = force\nduration_s = 1.0\n"
        "[phase]\nmode = position\nduration_s = 2.0\n"
    )
    assert [p["mode"] for p in doc.phases] == ["force", "position"]


def test_build_scenario_requires_phases():
    doc = parse_config("[plant]\nM_m_kg = 1.0\n[scenario]\ndt_s = 1e-4\n")
    with pytest.raises(ConfigError, match="phase"):
        build_scenario(doc)


def test_build_scenario_from_fixture():
    sc = build_scenario(parse_config(SIM_CFG))
    assert sc.always_in_contact
    assert not sc.velocity_filter_on
    assert sc.dt == 1e-4


POSITIONAL_CFG = (
    "[plant]\nM_m_kg = 2.5\nK_F_N_per_A = 0.7\nF_d_N = 0.3\n"
    "[friction]\nk_vsc_Ns_per_m = 1.5\nk_clmb_N = 0.25\neps_m_per_s = 0.002\n"
    "[environment]\nD_env_Ns_per_m = 3.0\nK_env_N_per_m = 4000.0\nx_env_m = 0.01\nxdot_env_m_per_s = 0.02\n"
    "[dob]\nM_mn_kg = 1.1\nK_Fn_N_per_A = 0.6\ng_dob_rad_per_s = 300.0\ng_v_rad_per_s = 900.0\n"
    "[rfob]\nM_hat_kg = 1.2\nK_F_hat_N_per_A = 0.55\ng_rfob_rad_per_s = 400.0\nk_vsc_hat_Ns_per_m = 0.8\n"
    "k_clmb_hat_N = 0.35\neps_hat_m_per_s = 0.003\nF_d_hat_N = 0.15\n"
    "[design]\nxi_damping = 0.8\ngamma = 0.9\nxi_stiffness = 0.95\neta = 2.5\nxi_combined = 0.6\n"
    "eta_star = 0.2\nk_hint = 0.4\n"
    "[identify]\nmu_nc = 0.998\nmu_c = 0.997\ngamma0_nc = 2e4\ngamma0_c = 3e4\nthreshold_on_N = 0.9\n"
    "threshold_off_N = 0.3\ndwell_steps = 7\ng_filter_nc_rad_per_s = 600.0\n"
    "[scenario]\ndt_s = 1e-4\n[phase]\nmode = force\nduration_s = 0.1\n"
)


def test_positional_builds_follow_schema():
    # the config builders pass each section's values to their dataclass by position
    doc = parse_config(POSITIONAL_CFG)
    sc = build_scenario(doc)
    ad = sc.adaptation
    rfob = list(SCHEMA["rfob"])
    design = list(SCHEMA["design"])
    builds = [
        (sc.plant, "plant", list(SCHEMA["plant"])),
        (sc.friction, "friction", list(SCHEMA["friction"])),
        (sc.env, "environment", list(SCHEMA["environment"])[:4]),
        (sc.dob, "dob", list(SCHEMA["dob"])),
        (sc.rfob, "rfob", rfob[:3] + [None] + rfob[6:]),  # None: the nested friction model
        (sc.rfob.friction, "rfob", rfob[3:6]),
        (ad.spec_a, "design", design[1:3]),
        (ad.spec_b, "design", design[3:5]),
        (ad.spec_c, "design", design[5:8]),
        (sc.ident, "identify", list(SCHEMA["identify"])),
    ]
    for obj, section, keys in builds:
        fields = [f.name for f in dataclasses.fields(obj)]
        assert len(fields) == len(keys), (type(obj).__name__, fields, keys)
        for name, key in zip(fields, keys):
            if key is None:
                continue
            assert key == name or key.startswith(name + "_"), (type(obj).__name__, name, key)
            assert getattr(obj, name) == doc.get(section, key), (type(obj).__name__, name, key)


def test_schema_defaults_match_the_library_defaults():
    # a config with only the required keys builds what the dataclasses build by default, wherever they
    # declare a default: the friction, environment, identify, design and scenario sections in full, and
    # [plant] F_d and the [rfob] friction keys and F_d_hat (masses, thrust constants and cutoffs have none)
    sc = build_scenario(parse_config("[plant]\nM_m_kg = 2.0\n[scenario]\ndt_s = 1e-4\n"
                                     "[phase]\nmode = force\nduration_s = 0.1\n"))
    assert sc.plant == PlantParams(2.0, sc.plant.K_F)
    assert sc.rfob == RfobConfig(sc.rfob.M_hat, sc.rfob.K_F_hat, sc.rfob.g_rfob)
    assert sc == Scenario(sc.plant, FrictionParams(), EnvImpedance(), sc.dob, sc.rfob, sc.phases, sc.dt)


def test_build_scenario_passes_identify_values():
    text = SIM_CFG + ("\n[identify]\nthreshold_on_N = 0.9\nthreshold_off_N = 0.3\ndwell_steps = 7\n"
                      "g_filter_nc_rad_per_s = 600.0\napply_to_rfob = false\nmu_c = 0.98\n")
    ident = build_scenario(parse_config(text)).ident
    assert (ident.threshold_on, ident.threshold_off, ident.dwell) == (0.9, 0.3, 7)
    assert (ident.g_filter_nc, ident.apply_to_rfob, ident.mu_c, ident.mu_nc) == (600.0, False, 0.98, 0.999)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_cmd_design(tmp_path, capsys):
    out = tmp_path / "design.json"
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["feasible"]
    assert rep["alpha_g"] == pytest.approx(80.65025541797718, rel=1e-9)
    assert rep["alpha_g"] <= 500.0
    assert rep["char_poly_max_rel_dev"] < 1e-9
    text = capsys.readouterr().out
    assert "alpha_g" in text and "xi_minus" in text and "psi" in text
    assert _sha256(out) == "8459c1667c20a9be2d98205a73df46e4e89d4d2d3dd9a8e72cac6e5609e4490c"


def test_cmd_design_empty_environment_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[plant]\nM_m_kg = 3.02\n[environment]\n[dob]\n[design]\n")
    code = main(["design", "--config", str(cfg)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("case, d_env, k_env", [
    ("damping", 0.0, 6500.0),
    ("stiffness", 2.0, 0.0),
    ("damping_stiffness", 2.0, 0.0),
])
def test_cmd_design_forced_case_needs_its_terms(tmp_path, capsys, case, d_env, k_env):
    cfg = tmp_path / "forced.cfg"
    cfg.write_text(DESIGN_CFG.replace("case = auto", f"case = {case}")
                   .replace("D_env_Ns_per_m = 2.0", f"D_env_Ns_per_m = {d_env}")
                   .replace("K_env_N_per_m = 6500.0", f"K_env_N_per_m = {k_env}"))
    assert main(["design", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: [design] case = {case} needs")
    assert "design case" not in captured.out


def test_cmd_design_infeasible_exit_code(tmp_path, capsys):
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(
        "[plant]\nM_m_kg = 3.02\n"
        "[environment]\nK_env_N_per_m = 3e6\n"
        "[dob]\ng_v_rad_per_s = 1000.0\n"
        "[design]\ncase = stiffness\n"
    )
    code = main(["design", "--config", str(cfg)])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_cmd_design_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"),
                 "--sweep", "environment.K_env_N_per_m=100:100000:7:log",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 7
    for row in rows:
        assert row["feasible"]
        assert row["alpha_g"] <= 500.0 + 1e-9
    assert _sha256(out) == "3a2a0ea9711eb6339f69753c6f9cb810f0fe96220e126e41f40130fb6dc04d38"


def test_cmd_analyze_warns_on_beta_below_alpha(tmp_path, capsys):
    cfg = tmp_path / "analyze.cfg"
    cfg.write_text(
        "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n"
        "[environment]\nD_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0\n"
        "[dob]\nM_mn_kg = 12.08\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 500.0\ng_v_rad_per_s = 1000.0\n"
        "[rfob]\nM_hat_kg = 6.04\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 500.0\n"
        "[scenario]\ndt_s = 1e-4\nC_f = 0.625\n"
    )
    out = tmp_path / "analyze.json"
    code = main(["analyze", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["alpha"] == pytest.approx(4.0)
    assert rep["beta"] == pytest.approx(2.0)
    assert rep["rhp_zero"] is True
    assert "WARNING" in capsys.readouterr().out


def test_cmd_analyze_perfect_identification(tmp_path, capsys):
    cfg = tmp_path / "analyze2.cfg"
    cfg.write_text(
        "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n"
        "[environment]\nD_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0\n"
        "[dob]\nM_mn_kg = 6.04\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 250.0\ng_v_rad_per_s = 1000.0\n"
        "[rfob]\nM_hat_kg = 3.02\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 250.0\n"
        "[scenario]\ndt_s = 1e-4\nC_f = 1.25\n"
    )
    out = tmp_path / "analyze2.json"
    code = main(["analyze", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["alpha"] == pytest.approx(rep["beta"])
    assert not rep["rhp_zero"]
    assert rep["asymptote_angles_deg"] == [-90.0, 90.0]
    assert rep["closed_loop_poles"] is not None
    assert "WARNING" not in capsys.readouterr().out
    assert _sha256(out) == "10a7188b615c7b866dde12ea1ec2a7425b6b737ae181a2e474bda2db7305aae7"


def test_cmd_design_keeps_leading_coefficient_of_stiff_damping_loop(tmp_path):
    # the achieved polynomial spans 13 decades: s^2 + 5.0e6 s + 1.25e13
    cfg = tmp_path / "stiff_damping.cfg"
    cfg.write_text("[plant]\nM_m_kg = 1.0\n[environment]\nD_env_Ns_per_m = 1000.0\n"
                   "[dob]\ng_v_rad_per_s = 1e7\n[design]\ncase = auto\n")
    out = tmp_path / "design.json"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert len(rep["char_poly_achieved"]) == 3
    assert rep["char_poly_max_rel_dev"] <= 1e-9


def test_cmd_analyze_lists_every_pole_of_a_stiff_unstable_loop(tmp_path, capsys):
    m, g, k, c_f, k_f = 3.02, 500.0, 1e8, 50.0, 0.5
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(
        f"[plant]\nM_m_kg = {m}\nK_F_N_per_A = {k_f}\n[environment]\nK_env_N_per_m = {k}\n"
        f"[dob]\nM_mn_kg = {m}\nK_Fn_N_per_A = {k_f}\ng_dob_rad_per_s = {g}\ng_v_rad_per_s = 1000.0\n"
        f"[rfob]\nM_hat_kg = {m}\nK_F_hat_N_per_A = {k_f}\ng_rfob_rad_per_s = {g}\n"
        f"[scenario]\ndt_s = 1e-4\nC_f = {c_f}\n"
    )
    out = tmp_path / "stiff.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    # s (M s^2 + M alpha g s + K) + (C_f g M_mn / K_Fn) phi(s), with phi = K_F_hat K at M_hat = M_m
    char = np.polyadd(np.polymul([1.0, 0.0], [m, m * g, k]), [c_f * g * m / k_f * k_f * k])
    want = sorted((complex(z) for z in np.roots(char)), key=lambda z: (z.real, z.imag))
    got = sorted((complex(re, im) for re, im in rep["closed_loop_poles"]), key=lambda z: (z.real, z.imag))
    assert len(got) == 3
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-6 * abs(b)
    assert want[-1].real > 0.0
    assert rep["closed_loop_stable"] is False
    assert "closed-loop stable: False" in capsys.readouterr().out


@pytest.mark.parametrize("plant_and_env", [
    "M_m_kg = 6.69\n[environment]\nD_env_Ns_per_m = 788.9",
    "M_m_kg = 2.0\n[environment]\nK_env_N_per_m = 2e5",
], ids=["damping", "stiffness"])
def test_cmd_design_accepts_a_design_on_the_bandwidth_bound(tmp_path, plant_and_env):
    # both designs put alpha_g on g_v/2 = 500 rad/s, the stiffness one a rounding step above it
    cfg = tmp_path / "on_bound.cfg"
    cfg.write_text(f"[plant]\n{plant_and_env}\n[dob]\ng_v_rad_per_s = 1000.0\n[design]\ncase = auto\n")
    out = tmp_path / "design.json"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["g_dob"] == rep["g_rfob"] == rep["alpha_g"] / rep["alpha"]
    assert rep["alpha_g"] == pytest.approx(500.0, rel=1e-15)


def test_cmd_analyze_passes_the_bandwidth_bound_of_an_on_bound_design(tmp_path, capsys):
    # design puts g_dob on g_v/2; analyze checks the same loop at alpha = 1
    plant_and_env = "[plant]\nM_m_kg = 6.69\n[environment]\nD_env_Ns_per_m = 788.9\n"
    cfg = tmp_path / "on_bound.cfg"
    cfg.write_text(f"{plant_and_env}[dob]\ng_v_rad_per_s = 1000.0\n[design]\ncase = auto\n")
    out = tmp_path / "design.json"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    des = json.loads(out.read_text())
    assert des["g_dob"] == 500.0
    cfg.write_text(
        f"{plant_and_env}[dob]\nM_mn_kg = 6.69\ng_dob_rad_per_s = {des['g_dob']!r}\ng_v_rad_per_s = 1000.0\n"
        f"[rfob]\nM_hat_kg = 6.69\ng_rfob_rad_per_s = {des['g_rfob']!r}\n"
        f"[scenario]\ndt_s = 1e-4\nC_f = {des['C_f']!r}\n"
    )
    capsys.readouterr()
    out = tmp_path / "analyze.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["alpha"] == 1.0
    assert rep["bandwidth_bound_passed"] is True
    assert rep["bandwidth_bound_margin"] == 0.0
    assert "bandwidth bound alpha*g_dob <= g_v/2: pass" in capsys.readouterr().out


def test_cmd_analyze_reports_the_mismatch_zero_of_a_stiff_environment(tmp_path, capsys):
    # phi = (M_m K_F_hat - M_hat K_F) s^2 + K_F_hat K = -2.5e-5 s^2 + 5e7: the leading
    # coefficient is 1e-12 of the constant one but far above the rounding of its products
    cfg = tmp_path / "stiff_mismatch.cfg"
    cfg.write_text(
        "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n[environment]\nK_env_N_per_m = 1e8\n"
        "[dob]\nM_mn_kg = 3.02\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 500.0\ng_v_rad_per_s = 1000.0\n"
        "[rfob]\nM_hat_kg = 3.02005\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 500.0\n"
        "[scenario]\ndt_s = 1e-4\nC_f = 50.0\n"
    )
    out = tmp_path / "stiff_mismatch.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["rhp_zero"] is True
    assert rep["relative_degree"] == 1
    zero = math.sqrt(0.5 * 1e8 / (3.02005 * 0.5 - 3.02 * 0.5))
    assert max(re for re, _ in rep["phi_roots"]) == pytest.approx(zero, rel=1e-9)
    assert zero == pytest.approx(1.414e6, rel=1e-3)
    assert "mismatch zeros: none" not in capsys.readouterr().out


def test_cmd_simulate_writes_csv_and_summary(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--config", str(CONFIGS / "sim_force_step.cfg"), "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_s"
    assert "F_hat_load_N" in header and "alpha_g_radps" in header and "contact_mode" in header
    assert len(lines) == 1 + 10000
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["diverged"] is False
    assert summary["phases"][0]["ss_error"] < 1e-6
    assert _sha256(tmp_path / "run.csv.summary.json") == (
        "1909d7e322f52b2b784b507fe4a99629420ce26a5b1cfc51ef580774bacd8774")


def test_cmd_simulate_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(SIM_CFG.replace("noise_std_m_per_s = 0.0", "")
                   .replace("[scenario]", "[scenario]\nnoise_std_m_per_s = 1e-3\nseed = 7"))
    for path in (a, b):
        assert main(["simulate", "--config", str(cfg), "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


NOISY_CFG = SIM_CFG.replace("velocity_filter = off", "velocity_filter = on\nnoise_std_m_per_s = 1e-3")


def test_cmd_simulate_noisy_output_is_pinned(tmp_path):
    # velocity filter on and seeded measurement noise: every noise sample reaches the CSV through the filter
    cfg, out = tmp_path / "noisy.cfg", tmp_path / "noisy.csv"
    cfg.write_text(NOISY_CFG)
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == EXIT_OK
    assert _sha256(out) == "2cc836f61de5658172f449cd492f25454d35f5dc75328cd722d0d440792cde03"
    assert _sha256(tmp_path / "noisy.csv.summary.json") == (
        "e796abca1aea9d2b5bc550ce89d00b5d349424c7015f2238d59a4cb2eebb939c")


POSITION_THEN_AUTO_CFG = (
    SIM_CFG.replace("contact = bilateral", "contact = unilateral")
    .replace("velocity_filter = off", "velocity_filter = on")
    .replace("[phase]\nmode = force\nduration_s = 1.0",
             "[phase]\nmode = position\nduration_s = 0.3\nref = const\nvalue = -1e-3\ncontact = auto\n\n"
             "[phase]\nmode = force\nduration_s = 0.7")
    .replace("contact = contact", "contact = auto"))


def test_cmd_simulate_position_then_auto_force_output_is_pinned(tmp_path):
    # a free-space position hold, then a force phase against a unilateral wall, the contact detector finding
    # the contact, and the velocity filter on: the per-step contact_mode record and both reference columns
    cfg, out = tmp_path / "approach.cfg", tmp_path / "approach.csv"
    cfg.write_text(POSITION_THEN_AUTO_CFG)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    contact = [row.split(",")[TIMESERIES_COLUMNS.index("contact_mode")] for row in out.read_text().splitlines()[1:]]
    assert {"non_contact", "transition", "contact"} <= set(contact)
    assert _sha256(out) == "0650c696d23da94a6ebd1d8463fdeaa96792beb02a39d029344c31b3a5b61b8c"
    assert _sha256(tmp_path / "approach.csv.summary.json") == (
        "fa2c8adf3ed4e93a24a4d48c2b2618b59a949ca9527522a181a32655c3fb23b6")


def test_cmd_simulate_huge_noise_diverges_without_a_warning(tmp_path, capsys):
    # noise times 1e308 overflows to inf; the product is a Python one, so no numpy overflow warning is raised
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(NOISY_CFG.replace("noise_std_m_per_s = 1e-3", "noise_std_m_per_s = 1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "huge.csv")]) == EXIT_DIVERGED
    assert "diverged: True" in capsys.readouterr().out


def test_cmd_simulate_zero_duration(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(SIM_CFG.replace("duration_s = 1.0", "duration_s = 0.0"))
    out = tmp_path / "empty.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_cmd_simulate_divergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(
        "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n"
        "[environment]\nD_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0\ncontact = bilateral\n"
        "[dob]\nM_mn_kg = 6.04\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 500.0\ng_v_rad_per_s = 1000.0\n"
        "[rfob]\nM_hat_kg = 6.04\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 500.0\n"
        "[scenario]\ndt_s = 1e-4\nC_f = 1.25\nx_limit_m = 1.0\nvelocity_filter = off\n"
        "[phase]\nmode = force\nduration_s = 2.0\nref = const\nvalue = 1.0\ncontact = contact\n"
    )
    out = tmp_path / "u.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_DIVERGED
    # partial rows retained
    assert len(out.read_text().splitlines()) > 1


def test_cmd_simulate_nan_cutoff_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SIM_CFG.replace("g_dob_rad_per_s = 80.65025541797718", "g_dob_rad_per_s = nan"))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "[dob] g_dob must be > 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("ref", [
    "ref = const\nvalue = nan",
    "ref = sine\noffset = 1.0\namp = inf\nfreq_hz = 2.0",
    "ref = multisine\noffset = 1.0\ncomponents = 0.2:3.0, 0.5:inf",
    "ref = ramp\nstart = 0.0\nend = -inf",
], ids=["const", "sine", "multisine", "ramp"])
def test_cmd_simulate_non_finite_reference_is_config_error(tmp_path, capsys, ref):
    cfg = tmp_path / "ref.cfg"
    assert "ref = const\nvalue = 1.0" in SIM_CFG
    cfg.write_text(SIM_CFG.replace("ref = const\nvalue = 1.0", ref))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "configuration error: [phase] reference values must be finite" in capsys.readouterr().err


def test_cmd_simulate_seed_without_scenario_section_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "noscenario.cfg"
    cfg.write_text("[plant]\nM_m_kg = 1.0\n[phase]\nmode = force\nduration_s = 0.1\n")
    assert main(["simulate", "--config", str(cfg), "--seed", "3"]) == EXIT_CONFIG
    assert "missing required section [scenario]" in capsys.readouterr().err


def test_cmd_simulate_negative_seed_flag_is_config_error(capsys):
    assert main(["simulate", "--config", str(CONFIGS / "sim_force_step.cfg"), "--seed", "-1"]) == EXIT_CONFIG
    assert "configuration error: [scenario] seed must be >= 0, got -1" in capsys.readouterr().err


def test_cmd_simulate_missing_config_file():
    assert main(["simulate", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG


def test_cmd_simulate_config_directory_is_config_error(capsys):
    assert main(["simulate", "--config", str(CONFIGS)]) == EXIT_CONFIG
    assert f"configuration error: cannot read --config {CONFIGS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "identify", "design", "analyze"])
@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_cmd_unwritable_out_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    def no_work(*args):
        raise AssertionError("the command ran")

    for name in ("cmd_simulate", "cmd_identify", "cmd_design", "cmd_analyze"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "run.csv" if where == "missing_directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(CONFIGS / "sim_force_step.cfg"), "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"--out {out}: not a file path in an existing directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_builds_its_parser_once_and_runs_the_current_command(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    analyze = ["analyze", "--config", str(CONFIGS / "sim_force_step.cfg"), "--out", str(tmp_path / "a.json")]
    assert main(analyze) == EXIT_OK
    assert main(["design", "--config", str(CONFIGS / "design_combined.cfg")]) == EXIT_OK
    calls = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args) or 7)
    assert main(analyze) == 7
    # built at most once in the process: here, or in an earlier test
    assert built in ([], ["rfobkit"] + [f"rfobkit {name}" for name in ("design", "analyze", "simulate", "identify")])
    assert [(a.command, a.config, a.out) for a in calls] == [("analyze", analyze[2], analyze[4])]


USAGE = "usage: rfobkit [-h] {design,analyze,simulate,identify} ...\n"
SIMULATE_USAGE = "usage: rfobkit simulate [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
ARGPARSE_TEXT = {  # argv -> (SystemExit code, stdout, stderr), at an 80-column terminal
    "--help": (0, USAGE + """
Observer-based robust force control: gain design, stability analysis,
simulation and identification

positional arguments:
  {design,analyze,simulate,identify}

options:
  -h, --help            show this help message and exit
""", ""),
    "design --help": (0, """\
usage: rfobkit design [-h] --config CONFIG [--out OUT] [--sweep SWEEP]

options:
  -h, --help       show this help message and exit
  --config CONFIG  configuration file path
  --out OUT        output path (JSON report or CSV)
  --sweep SWEEP    section.key=START:STOP:N[:lin|log] one design per grid
                   point
""", ""),
    "": (2, "", USAGE + "rfobkit: error: the following arguments are required: command\n"),
    "simulate": (2, "", SIMULATE_USAGE + "rfobkit simulate: error: the following arguments are required: --config\n"),
    "simulate --config sim.cfg --seed x":
        (2, "", SIMULATE_USAGE + "rfobkit simulate: error: argument --seed: invalid int value: 'x'\n"),
    # only simulate and identify run a scenario, so only they take --seed
    "design --config design.cfg --seed 1": (2, "", USAGE + "rfobkit: error: unrecognized arguments: --seed 1\n"),
    "analyze --config analyze.cfg --seed 1": (2, "", USAGE + "rfobkit: error: unrecognized arguments: --seed 1\n"),
}


@pytest.mark.parametrize("argv", list(ARGPARSE_TEXT))
def test_argparse_text_and_exit_code_hold_on_a_reused_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == ARGPARSE_TEXT[argv]


def test_cli_as_its_own_process_matches_an_in_process_call(tmp_path, capsys):
    argv = ["design", "--config", str(CONFIGS / "design_combined.cfg"), "--out"]
    code = main(argv + [str(tmp_path / "in.json")])
    stdout = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rfobkit.cli"] + argv + [str(tmp_path / "sub.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, "")
    assert (tmp_path / "sub.json").read_bytes() == (tmp_path / "in.json").read_bytes()


# one RLS update through RlmsEstimator.update, so the kernel compiles too, from a module file ending in argv[1]
RLS_SCRIPT = """import sys
from rfobkit import identify
assert identify.__file__.endswith(sys.argv[1]), identify.__file__
est = identify.RlmsEstimator([1.0, 0.5, 0.1, 0.0], [0.1, -10.0, -10.0, -10.0], [10.0, 10.0, 10.0, 10.0], 1e3, 0.999)
print(est.update([0.3, -1.2, 0.7, 1.0], 2.5).hex(), [v.hex() for v in est.values])
"""


def test_bytecode_only_install_runs_simulate_and_identify_with_the_same_bytes(tmp_path):
    src = Path(cli.__file__).parent
    pkg = tmp_path / "sourceless" / "rfobkit"
    shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-b", str(pkg)], check=True, timeout=120)
    for path in pkg.glob("*.py"):
        path.unlink()
    runs = {}
    for tree, suffix in ((src.parent, "identify.py"), (pkg.parent, "identify.pyc")):
        out = tmp_path / f"out_{tree.name}"
        out.mkdir()
        procs = [subprocess.run([sys.executable] + argv, cwd=out, env=dict(os.environ, PYTHONPATH=str(tree)),
                                capture_output=True, timeout=300) for argv in (
            ["-m", "rfobkit.cli", "simulate", "--config", str(CONFIGS / "sim_force_step.cfg"), "--out", "sim.csv"],
            ["-m", "rfobkit.cli", "identify", "--config", str(CONFIGS / "identify_plant.cfg"), "--out", "id.csv"],
            ["-c", RLS_SCRIPT, suffix])]
        runs[tree.name] = ([(p.returncode, p.stdout, p.stderr) for p in procs],
                           {path.name: path.read_bytes() for path in out.iterdir()})
    assert runs["sourceless"] == runs["src"]
    procs, files = runs["src"]
    assert [(code, err) for code, _, err in procs] == [(EXIT_OK, b"")] * 3
    assert sorted(files) == ["id.csv", "id.csv.summary.json", "sim.csv", "sim.csv.summary.json"]


@pytest.mark.parametrize("cfg", ["design_combined.cfg", "identify_env.cfg", "identify_plant.cfg", "sim_force_step.cfg"])
@pytest.mark.parametrize("command", ["design", "analyze"])
def test_design_and_analyze_run_with_numpy_blocked(tmp_path, capsys, command, cfg):
    # `identify_plant.cfg` has no contact environment: both commands exit with a configuration error
    argv = [command, "--config", str(CONFIGS / cfg), "--out"]
    code = main(argv + [str(tmp_path / "report.json")])
    expected = (code, *capsys.readouterr(), (tmp_path / "report.json").read_bytes() if code == EXIT_OK else None)
    assert code == (EXIT_CONFIG if cfg == "identify_plant.cfg" else EXIT_OK)
    blocked = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['numpy'] = None; from rfobkit.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv, str(tmp_path / "blocked.json")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    got = (blocked.returncode, blocked.stdout, blocked.stderr,
           (tmp_path / "blocked.json").read_bytes() if blocked.returncode == EXIT_OK else None)
    assert got == expected


@pytest.mark.parametrize("noise", ["0", "1e-4"])
def test_only_a_noisy_run_imports_numpy_random(tmp_path, noise):
    """A fresh `simulate` on sim_force_step.cfg and `identify` on identify_env.cfg cut to 0.2 s leave numpy.random,
    about 5 MB resident, unloaded; their twins with velocity noise load it for their generator."""
    texts = {"simulate": SIM_CFG, "identify": ENV_1S_CFG.replace("duration_s = 1.0", "duration_s = 0.2")}
    loaded = {}
    for command, text in texts.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text.replace("velocity_filter = off", f"velocity_filter = off\nnoise_std_m_per_s = {noise}"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from rfobkit.cli import main; code = main(sys.argv[1:]); "
                                   "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)",
             command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.csv")],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        assert proc.returncode == EXIT_OK, proc.stderr
        loaded[command] = proc.stderr
    assert loaded == dict.fromkeys(texts, f"{noise != '0'}\n")


def test_cmd_identify_plant(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["identify", "--config", str(CONFIGS / "identify_plant.cfg"), "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "plant estimates" in text
    header = out.read_text().splitlines()[0].split(",")
    assert "delta_M_m_kg" in header and "innov_nc_N" in header
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3760338e22ccbbce8499554654074d9a855d2d1622abaa4be24e08fe00934a70"


def test_cmd_identify_env(tmp_path, capsys):
    cfg = tmp_path / "env.cfg"
    cfg.write_text(ENV_1S_CFG)
    out = tmp_path / "trace.csv"
    code = main(["identify", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "environment estimates" in text and "K_env_N_per_m" in text
    header = out.read_text().splitlines()[0].split(",")
    assert "delta_K_env_Npm" in header and "innov_c_N" in header
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a0144ef1b3385b6b49f02d1d882ce948cdbd222b66572ad8caa7da7b953e6428"
    assert _sha256(tmp_path / "trace.csv.summary.json") == (
        "911adb84ecb44c1489dfb9e899833c9447aee34d1d02b39435b8ef088a6b0002")


def test_cmd_identify_env_online_adaptation_is_pinned(tmp_path, capsys):
    """The 1 s identify_env twin with online redesign: RLS and observer retune together, 24 redesigns."""
    cfg = tmp_path / "online.cfg"
    cfg.write_text(ONLINE_CFG)
    out = tmp_path / "trace.csv"
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
    assert sum(e["applied"] for e in summary["design_events"]) == 24
    assert _sha256(out) == "d5d63acdcf5b8266d7a37879ee1c6062533d8d4703b97fb1fa5951e39363ea8d"
    assert _sha256(tmp_path / "trace.csv.summary.json") == (
        "21bf149d16801309a23e318744bc6f16b81dfb4a96df3ac183c0af3ac46f9439")


@pytest.mark.parametrize("design, applied, rejected", [("", 24, 0), ("\n[design]\nalpha = 0.003\n", 1, 85)],
                         ids=["online_twin", "alpha_0.003"])
def test_cmd_simulate_prints_each_design_event(tmp_path, capsys, design, applied, rejected):
    """One line per design event, in the summary's order: applied with its gains, or rejected with its note."""
    cfg, out = tmp_path / "online.cfg", tmp_path / "online.csv"
    cfg.write_text(ONLINE_CFG + design)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    events = json.loads((tmp_path / "online.csv.summary.json").read_text())["design_events"]
    assert [e["applied"] for e in events].count(True) == applied and len(events) == applied + rejected
    want = [f"  design event t = {e['t']:.10g} s: "
            + (f"applied, alpha_g = {e['alpha_g']:.10g}, C_f = {e['C_f']:.10g}, g = {e['g']:.10g}" if e["applied"]
               else f"rejected ({e['note']})") for e in events]
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("  design event")] == want
    assert all(e["note"].startswith("designed cutoff too fast for the sample time: g*dt = ")
               for e in events if not e["applied"])


@pytest.mark.parametrize("text, estimate, pinned", [
    ((CONFIGS / "identify_plant.cfg").read_text(), "final_delta_nc",
     [0.8100128080551768, 11.999975407871736, 6.0000014901516625, 7.9499992753816064]),
    (ENV_1S_CFG, "final_delta_c", [2.072061337504115, 6493.1331371109845, 0.005437037607614979]),
    (ONLINE_CFG, "final_delta_c", [1.8627244524700999, 6494.1390415741, 0.004493665262087892]),
], ids=["identify_plant", "identify_env_1s", "online_twin"])
def test_identify_final_estimates_hold_across_rls_forms(text, estimate, pinned):
    """The final estimates of the standard-form RLS update the UD form replaced, so a re-pin cannot hide a drift."""
    res = run_scenario(build_scenario(parse_config(text)))
    np.testing.assert_allclose(getattr(res, estimate), pinned, rtol=1e-9, atol=0.0)


def test_cmd_identify_zero_truth_reports_absolute_error(tmp_path, capsys):
    # the environment offset's truth is -(D*xdot_env + K*x_env) = -0.0
    cfg = tmp_path / "env.cfg"
    cfg.write_text((CONFIGS / "identify_env.cfg").read_text()
                   .replace("duration_s = 6.0", "duration_s = 0.2"))
    assert main(["identify", "--config", str(cfg)]) == EXIT_OK
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.strip().startswith("offset_N"))
    name, got, truth, err, unit = line.split()
    assert truth == "0" and unit == "absolute"
    assert err == got.lstrip("-")
    assert "%" not in line


def test_cmd_simulate_rejects_fractional_step_phase(tmp_path, capsys):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text(SIM_CFG.replace("duration_s = 1.0", "duration_s = 0.01005"))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "phase 1" in err and "100.5 steps" in err


def test_cmd_simulate_accepts_whole_step_phases(tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    force = SIM_CFG[SIM_CFG.index("[phase]"):]
    cfg.write_text(SIM_CFG.replace("duration_s = 1.0", "duration_s = 0.3")
                   + "\n" + force.replace("duration_s = 1.0", "duration_s = 0.7"))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    assert "steps: 10000" in capsys.readouterr().out


def test_cmd_identify_requires_estimator(tmp_path):
    cfg = tmp_path / "noident.cfg"
    cfg.write_text(SIM_CFG)
    assert main(["identify", "--config", str(cfg)]) == EXIT_CONFIG


def test_cmd_identify_no_excitation_flags_unidentifiable(tmp_path, capsys):
    # fully quiescent plant: only the constant regressor column carries information
    cfg = tmp_path / "still.cfg"
    cfg.write_text(
        (CONFIGS / "identify_plant.cfg").read_text()
        .replace("ref = multisine", "ref = const")
        .replace("offset = -0.025", "value = 0.0")
        .replace("duration_s = 5.0", "duration_s = 0.5")
        .replace("F_d_N = 7.95", "F_d_N = 0.0")
        .replace("x0_m = 0.0", "")
    )
    code = main(["identify", "--config", str(cfg)])
    assert code == EXIT_OK
    assert "unidentifiable directions: True" in capsys.readouterr().out


ANALYZE_CFG = (
    "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n"
    "[environment]\nD_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0\n"
    "[dob]\nM_mn_kg = 6.04\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 250.0\ng_v_rad_per_s = 1000.0\n"
    "[rfob]\nM_hat_kg = 3.02\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 250.0\n"
    "[scenario]\ndt_s = 1e-4\nC_f = 1.25\n"
)


@pytest.mark.parametrize("old, new, where", [
    ("M_m_kg = 3.02", "M_m_kg = -3.02", "[plant]"),
    ("g_dob_rad_per_s = 250.0", "g_dob_rad_per_s = 0.0", "[dob]"),
    ("K_env_N_per_m = 6500.0", "K_env_N_per_m = -1.0", "[environment]"),
    ("C_f = 1.25", "C_f = 0.0", "[scenario]"),
])
def test_cmd_analyze_invalid_value_is_config_error(tmp_path, capsys, old, new, where):
    cfg = tmp_path / "analyze.cfg"
    assert old in ANALYZE_CFG
    cfg.write_text(ANALYZE_CFG.replace(old, new))
    assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and where in err


def test_cmd_design_nonpositive_alpha_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(DESIGN_CFG.replace("alpha = 1.0", "alpha = 0.0"))
    assert main(["design", "--config", str(cfg)]) == EXIT_CONFIG
    capsys.readouterr()
    # checked before designing: with K_env = 1e300 the design would be infeasible (exit 3)
    cfg.write_text(DESIGN_CFG.replace("alpha = 1.0", "alpha = 0.0").replace("K_env_N_per_m = 6500.0",
                                                                             "K_env_N_per_m = 1e300"))
    assert main(["design", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: [design] alpha must be > 0, got 0.0\n"


@pytest.mark.parametrize("old, new, message", [
    ("M_m_kg = 3.02", "M_m_kg = nan", "[plant] M_m must be > 0, got nan"),
    ("M_m_kg = 3.02", "M_m_kg = 0.0", "[plant] M_m must be > 0, got 0.0"),
    ("M_m_kg = 3.02", "M_m_kg = -3.02", "[plant] M_m must be > 0, got -3.02"),
    ("M_m_kg = 3.02", "M_m_kg = inf", "[plant] M_m must be finite, got inf"),
    ("g_v_rad_per_s = 1000.0", "g_v_rad_per_s = nan", "[dob] g_v must be > 0, got nan"),
    ("g_v_rad_per_s = 1000.0", "g_v_rad_per_s = -1000.0", "[dob] g_v must be > 0, got -1000.0"),
    # values no design formula reads are checked too, by the builders simulate and analyze use
    ("K_F_N_per_A = 0.5", "K_F_N_per_A = inf", "[plant] K_F must be finite, got inf"),
    ("K_F_N_per_A = 0.5", "K_F_N_per_A = 0.5\nF_d_N = nan", "[plant] F_d must be finite, got nan"),
    ("g_v_rad_per_s = 1000.0", "g_v_rad_per_s = 1000.0\nM_mn_kg = nan", "[dob] M_mn must be > 0, got nan"),
    ("g_v_rad_per_s = 1000.0", "g_v_rad_per_s = 1000.0\nK_Fn_N_per_A = 0.0", "[dob] K_Fn must be > 0, got 0.0"),
    ("g_v_rad_per_s = 1000.0", "g_v_rad_per_s = 1000.0\ng_dob_rad_per_s = inf",
     "[dob] g_dob must be finite, got inf"),
])
def test_cmd_design_rejects_a_bad_mass_or_velocity_cutoff(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "bad.cfg"
    assert old in DESIGN_CFG
    cfg.write_text(DESIGN_CFG.replace(old, new))
    assert main(["design", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {message}"


@pytest.mark.parametrize("spec, message", [
    ("plant.M_m_kg=-1:1:3", "[plant] M_m must be > 0, got -1.0"),
    ("dob.g_v_rad_per_s=0:1000:3", "[dob] g_v must be > 0, got 0.0"),
])
def test_cmd_design_sweep_rejects_a_bad_mass_or_velocity_cutoff(capsys, spec, message):
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"), "--sweep", spec])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {message}"


@pytest.mark.parametrize("k_env", ["1e150", "1e180", "1e300"])
def test_cmd_design_of_a_huge_stiffness_is_infeasible(tmp_path, capsys, k_env):
    # from about 1e180 on the k cubic has a root whose cube overflows a float
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(DESIGN_CFG.replace("K_env_N_per_m = 6500.0", f"K_env_N_per_m = {k_env}"))
    assert main(["design", "--config", str(cfg)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("infeasible design:")


@pytest.mark.parametrize("plant, design, err", [
    # narrow branch (xi_plus < 1) with an explicit xi: designed, then the same path failing its bound
    pytest.param((3.02, 2.0, 1e6, 1000.0), {"xi_combined": 0.3}, None, id="narrow_xi"),
    pytest.param((0.13, 706.1, 6861070.0, 1000.0), {"xi_combined": 0.391},
                 "bandwidth bound violated: (2+eta)*xi*k*sqrt(K/M) - D/M not in (0, g_v/2]: xi = 0.391",
                 id="narrow_xi_bound"),
    pytest.param((3.02, 2.0, 1e6, 1000.0), {"eta_star": 1.5},
                 "eta_star must lie in (0, 1) on the narrow branch: eta_star = 1.5", id="narrow_eta_star"),
    # wide branch
    pytest.param((3.02, 2.0, 6500.0, 1000.0), {"k_hint": 0.0}, "k_hint must be > 0: k_hint = 0.0", id="wide_k_hint"),
    pytest.param((0.04095246960355829, 1943.9670051231615, 1265278.043190457, 15.986177660304902),
                 {"xi_combined": 4.270698717983586},
                 "bandwidth bound violated: (2+eta)*xi*k*sqrt(K/M) - D/M not in (0, g_v/2] for any k: "
                 "xi = 4.2707, psi = 0.999832", id="wide_any_k"),
])
def test_cmd_design_combined_case_paths(tmp_path, capsys, plant, design, err):
    M, D, K, g_v = plant
    cfg = tmp_path / "combined.cfg"
    cfg.write_text(f"[plant]\nM_m_kg = {M!r}\n[environment]\nD_env_Ns_per_m = {D!r}\nK_env_N_per_m = {K!r}\n"
                   f"[dob]\ng_v_rad_per_s = {g_v!r}\n[design]\n" + "".join(f"{k} = {v!r}\n" for k, v in design.items()))
    out = tmp_path / "design.json"
    code = main(["design", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    if err is None:
        assert code == EXIT_OK and captured.err == ""
        rep = json.loads(out.read_text())
        assert rep["report"]["branch"] == 0.0 and rep["xi"] == 0.3 and rep["alpha_g"] == 358.6487281102194
    else:
        assert code == EXIT_INFEASIBLE and captured.out == "" and not out.exists()
        assert captured.err == f"infeasible design: {err}\n"


@pytest.mark.parametrize("m_m, k_env", [("1e308", "6500.0"), ("1e10", "1e300")])
def test_cmd_design_whose_psi_rounds_to_zero_is_infeasible(tmp_path, capsys, m_m, k_env):
    # M*K overflows, so psi = D/(2*xi*sqrt(M*K)) is 0: once on the wide branch, once on the narrow one
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(DESIGN_CFG.replace("M_m_kg = 3.02", f"M_m_kg = {m_m}")
                   .replace("K_env_N_per_m = 6500.0", f"K_env_N_per_m = {k_env}"))
    assert main(["design", "--config", str(cfg)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("infeasible design: psi = D/(2*xi*sqrt(M*K)) rounds to 0")


def test_cmd_design_whose_sqrt_k_over_m_rounds_to_zero_is_infeasible(tmp_path, capsys):
    # K/M underflows to 0, and both edges of the damping-ratio window divide by sqrt(K/M)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(DESIGN_CFG.replace("M_m_kg = 3.02", "M_m_kg = 1e308")
                   .replace("K_env_N_per_m = 6500.0", "K_env_N_per_m = 1e-20"))
    assert main(["design", "--config", str(cfg)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err.strip() == "infeasible design: sqrt(K/M) rounds to 0: M_m = 1e+308, K_env = 1e-20"


def test_cmd_design_sweep_of_non_float_key_is_config_error(tmp_path, capsys):
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"), "--sweep", "design.case=0:1:2"])
    assert code == EXIT_CONFIG
    assert "configuration error: --sweep target [design] case is a str key" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "environment.D_env_Ns_per_m=1:inf:3:log", "environment.K_env_N_per_m=inf:100:3",
    "environment.K_env_N_per_m=nan:100:3:log", "environment.D_env_Ns_per_m=1:nan:3",
    "environment.D_env_Ns_per_m=-inf:1:3", "environment.K_env_N_per_m=inf:inf:3:log",
    "environment.K_env_N_per_m=-1.7e308:1.7e308:3",  # finite endpoints whose span overflows
])
def test_cmd_design_sweep_with_non_finite_values_is_config_error(capsys, spec):
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"), "--sweep", spec])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (f"configuration error: bad --sweep {spec!r}: "
                                    "START, STOP and STOP - START must be finite")


NO_PLANT = ("[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n", "")  # design_combined.cfg without its [plant] section


@pytest.mark.parametrize("command, config, old, new, sweep, message", [
    ("simulate", "sim_force_step.cfg", "[dob]", "[dob", None, "line 16: malformed section header '[dob'"),
    ("simulate", "sim_force_step.cfg", "[dob]", "[plant]", None, "line 16: duplicate section [plant]"),
    ("simulate", "sim_force_step.cfg", "[plant]", "M_m_kg = 1.0\n[plant]", None, "line 3: key outside any section"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter off", None,
     "line 30: expected 'key = value', got 'velocity_filter off'"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = maybe", None,
     "[scenario] velocity_filter: must be one of ('on', 'off'), got 'maybe'"),
    ("identify", "identify_env.cfg", "enable_env = true", "enable_env = maybe", None,
     "[identify] enable_env: not a boolean: 'maybe'"),
    ("identify", "identify_env.cfg", "components = 2.0:3.0,", "components = 2.0,", None,
     "[phase] components entry '2.0': expected amp:freq_hz[:phase_rad]"),
    ("identify", "identify_env.cfg", "components = 2.0:3.0,", "components = 2.0:fast,", None,
     "[phase] components entry '2.0:fast': not numeric"),
    ("design", "design_combined.cfg", *NO_PLANT, None, "missing required section [plant] (key M_m_kg)"),
    ("design", "design_combined.cfg", "", "", "environment.K_env_N_per_m=100:1000",
     "bad --sweep 'environment.K_env_N_per_m=100:1000': expected section.key=START:STOP:N[:lin|log]"),
    ("design", "design_combined.cfg", "", "", "environment.K_env_N_per_m=100:1000:3:cubic",
     "bad --sweep 'environment.K_env_N_per_m=100:1000:3:cubic': expected section.key=START:STOP:N[:lin|log]"),
    ("design", "design_combined.cfg", "", "", "environment.K_env_N_per_m=-1:1000:3:log",
     "log sweep requires positive endpoints"),
    ("design", "design_combined.cfg", "", "", "environment.bogus=1:2:3",
     "--sweep target [environment] bogus is not a known key"),
    ("design", "design_combined.cfg", *NO_PLANT, "plant.K_F_N_per_A=0.5:1:3",
     "--sweep needs section [plant] in the config (required keys: M_m_kg)"),
    ("analyze", "sim_force_step.cfg", "D_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0",
     "D_env_Ns_per_m = 0.0\nK_env_N_per_m = 0.0", None,
     "[environment] neither damping nor stiffness: no force loop to analyze"),
], ids=["malformed_header", "duplicate_section", "key_outside_section", "line_without_equals", "bad_choice",
        "bad_bool", "components_arity", "components_not_numeric", "missing_section", "sweep_without_n",
        "sweep_bad_scale", "log_sweep_negative_start", "sweep_unknown_key", "sweep_needs_section",
        "analyze_no_force_loop"])
def test_cmd_config_or_sweep_error_exits_2_with_its_message(tmp_path, capsys, command, config, old, new, sweep,
                                                            message):
    cfg = tmp_path / config
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg), *(["--sweep", sweep] if sweep else [])]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"configuration error: {message}\n")


def test_cmd_design_sweep_fills_a_missing_section_with_its_defaults(tmp_path, capsys):
    """A sweep over the one required key of a section the config leaves out runs on that section's defaults."""
    outputs = []
    for name, plant in (("without", ""), ("defaults", "[plant]\nM_m_kg = 1.0\nK_F_N_per_A = 0.5\nF_d_N = 0.0\n")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.json"
        cfg.write_text(DESIGN_CFG.replace(NO_PLANT[0], plant))
        assert main(["design", "--config", str(cfg), "--out", str(out), "--sweep", "plant.M_m_kg=1:3:3"]) == EXIT_OK
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert [row["sweep_value"] for row in json.loads(outputs[0][1])] == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("spec", ["phase.offset=1:2:2", "phase.mode=0:1:2", "phase.bogus=0:1:2"])
def test_cmd_design_sweep_of_a_phase_key_is_config_error(capsys, spec):
    """[phase] may repeat, one section per phase, so no [phase] key sweeps, whatever its type."""
    key = spec.split("=")[0].split(".")[1]
    assert main(["design", "--config", str(CONFIGS / "identify_env.cfg"), "--sweep", spec]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"configuration error: --sweep target [phase] {key}: phase keys cannot be swept\n")


def _with_value(text: str, section: str, key: str, value: float) -> str:
    """`text` with `key = repr(value)` as the first line of [section], which is appended when missing."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value!r}")
    text = "\n".join(lines) + "\n"
    assert parse_config(text).get(section, key) == value
    return text


@pytest.mark.parametrize("spec", [
    "plant.M_m_kg=1:5:3", "dob.g_v_rad_per_s=500:2000:3", "environment.D_env_Ns_per_m=0.5:20:3",
    "environment.K_env_N_per_m=100:100000:4:log", "design.k_hint=0.2:0.8:3", "design.alpha=0.5:2:3",
    "friction.k_vsc_Ns_per_m=0:1:3", "plant.M_m_kg=3.02:3.02:1",
])
def test_cmd_design_sweep_rows_are_the_single_designs_of_their_values(tmp_path, capsys, spec):
    """Each row less its sweep_value is the `design --out` report of the config with that value written in, and
    the file is the one-shot `_json_text` of its rows."""
    target, grid = spec.split("=")
    section, key = target.split(".")
    out, cfg, single = tmp_path / "sweep.json", tmp_path / "point.cfg", tmp_path / "point.json"
    code = main(["design", "--config", str(CONFIGS / "design_combined.cfg"), "--out", str(out), "--sweep", spec])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(out.read_text())
    assert len(rows) == len(lines) == int(grid.split(":")[2])
    assert out.read_text() == cli._json_text(rows)
    for row, line in zip(rows, lines):
        v = row.pop("sweep_value")
        cfg.write_text(_with_value(DESIGN_CFG, section, key, v))
        assert main(["design", "--config", str(cfg), "--out", str(single)]) == EXIT_OK
        capsys.readouterr()
        rep = json.loads(single.read_text())
        assert row == rep
        assert line == (f"{key} = {v:.10g}: alpha_g = {rep['alpha_g']:.10g}, C_f = {rep['C_f']:.10g}, "
                        f"w_n = {rep['w_n']:.10g}, feasible = {rep['feasible']}")


@pytest.mark.parametrize("spec, earlier, message", [
    ("plant.M_m_kg=1:-1:3", "plant.M_m_kg=1:1:1", "[plant] M_m must be > 0, got 0.0"),
    ("environment.K_env_N_per_m=6500:-6500:3", "environment.K_env_N_per_m=6500:0:2",
     "[environment] K_env must be >= 0, got -6500.0"),
])
def test_cmd_design_sweep_failing_at_an_interior_point_keeps_the_earlier_lines(tmp_path, capsys, spec, earlier,
                                                                               message):
    """A failing point ends the run: the earlier points' lines stay on stdout, no JSON is written, no temporary
    file is left beside --out, and an existing --out keeps its bytes."""
    cfg, out = str(CONFIGS / "design_combined.cfg"), tmp_path / "sweep.json"
    assert main(["design", "--config", cfg, "--sweep", earlier]) == EXIT_OK
    earlier_out = capsys.readouterr().out
    assert main(["design", "--config", cfg, "--out", str(out), "--sweep", spec]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (earlier_out, f"configuration error: {message}\n")
    assert earlier_out.count("\n") == int(earlier.split(":")[-1]) and not out.exists()
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier report\n")
    assert main(["design", "--config", cfg, "--out", str(out), "--sweep", spec]) == EXIT_CONFIG
    assert capsys.readouterr().out == earlier_out
    assert out.read_bytes() == b"an earlier report\n" and list(tmp_path.iterdir()) == [out]


def test_cmd_design_sweep_memory_does_not_grow_with_its_grid(tmp_path):
    """A sweep writes each point's report as it is designed, so its traced peak grows with the grid by no more than
    the grid's floats (its array and its list, 40 B per point), plus 64 KiB."""
    import contextlib
    import tracemalloc

    def peak(n: int) -> int:
        argv = ["design", "--config", str(CONFIGS / "design_combined.cfg"),
                "--sweep", f"environment.K_env_N_per_m=100:100000:{n}:log", "--out", str(tmp_path / "sweep.json")]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):  # captured lines would be traced
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(100)  # imports and builds the parser outside the trace
    small, large = peak(100), peak(2000)
    bound = 40 * (2000 - 100) + 64 * 1024
    assert large - small < bound, (small, large, bound)


@pytest.mark.parametrize("old, new, message", [
    ("gamma0_c = 1e6", "gamma0_c = nan", "configuration error: [identify] gamma0 must be positive"),
    ("velocity_filter = off", "velocity_filter = off\nadaptation = online\n[design]\nalpha = nan",
     "configuration error: [design] alpha must be > 0, got nan"),
])
def test_cmd_identify_rejected_value_names_its_section(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "env.cfg"
    cfg.write_text((CONFIGS / "identify_env.cfg").read_text().replace(old, new))
    assert main(["identify", "--config", str(cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config, old, new, message", [
    ("identify", "identify_env.cfg", "dt_s = 5e-5", "dt_s = 0.0", "configuration error: [scenario] dt must be > 0"),
    ("simulate", "sim_force_step.cfg", "duration_s = 1.0", "duration_s = -1.0",
     "configuration error: [phase] phase duration must be finite and >= 0, got -1.0"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nseed = -1",
     "configuration error: [scenario] seed must be >= 0, got -1"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nx_limit_m = nan",
     "configuration error: [scenario] x_limit must be > 0, got nan"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nx_limit_m = -1.0",
     "configuration error: [scenario] x_limit must be > 0, got -1.0"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nv_limit_m_per_s = 0.0",
     "configuration error: [scenario] v_limit must be > 0, got 0.0"),
    ("identify", "identify_env.cfg", "dt_s = 5e-5", "dt_s = 5e-5\ndist_limit_N = nan",
     "configuration error: [scenario] dist_limit must be > 0, got nan"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nnoise_std_m_per_s = inf",
     "configuration error: [scenario] noise_std must be finite and >= 0, got inf"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nnoise_std_m_per_s = nan",
     "configuration error: [scenario] noise_std must be finite and >= 0, got nan"),
    ("simulate", "sim_force_step.cfg", "C_f = 0.035842180861184146", "C_f = inf",
     "configuration error: [scenario] C_f must be finite, got inf"),
    ("analyze", "sim_force_step.cfg", "C_f = 0.035842180861184146", "C_f = inf",
     "configuration error: [scenario] C_f must be finite and > 0, got inf"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nx0_m = nan",
     "configuration error: [scenario] x0 must be finite, got nan"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off", "velocity_filter = off\nv0_m_per_s = inf",
     "configuration error: [scenario] v0 must be finite, got inf"),
    ("identify", "identify_plant.cfg", "velocity_filter = off", "velocity_filter = off\nK_P = nan",
     "configuration error: [scenario] K_P must be finite, got nan"),
    # finite ends whose span overflows: inf * 0 at the first step would make the reference NaN
    ("simulate", "sim_force_step.cfg", "ref = const\nvalue = 1.0", "ref = ramp\nstart = 1e308\nend = -1e308",
     "configuration error: [phase] reference values must be finite, and ramp_end - offset too"),
    ("simulate", "sim_force_step.cfg", "mode = force\nduration_s = 1.0\nref = const\nvalue = 1.0",
     "mode = position\nduration_s = 1.0\nref = ramp\nstart = 1e308\nend = -1e308",
     "configuration error: [phase] reference values must be finite, and ramp_end - offset too"),
    # a wave whose argument overflows: math.sin(inf) used to raise mid-run (exit 1), and w = inf made the
    # reference NaN, a divergence at step 0 (exit 4)
    ("simulate", "sim_force_step.cfg", "duration_s = 1.0\nref = const\nvalue = 1.0",
     "duration_s = 2.0\nref = sine\noffset = 1.0\namp = 0.01\nfreq_hz = 2e307",
     "configuration error: [phase] each wave's sine argument, up to |2*pi*freq_hz|*duration + |phase_rad|, must"),
    ("simulate", "sim_force_step.cfg", "duration_s = 1.0\nref = const\nvalue = 1.0",
     "duration_s = 2.0\nref = sine\noffset = 1.0\namp = 0.01\nfreq_hz = 1e308",
     "configuration error: [phase] each wave's sine argument, up to |2*pi*freq_hz|*duration + |phase_rad|, must"),
], ids=["dt", "phase_duration", "seed", "x_limit_nan", "x_limit_negative", "v_limit_zero", "dist_limit_nan",
        "noise_inf", "noise_nan", "C_f_inf", "analyze_C_f_inf", "x0_nan", "v0_inf", "K_P_nan",
        "ramp_span_force", "ramp_span_position", "wave_argument_overflows", "wave_w_infinite"])
def test_cmd_rejected_scenario_or_phase_names_its_section(tmp_path, capsys, command, config, old, new, message):
    _assert_rejected_with(tmp_path, capsys, command, config, old, new, message)


@pytest.mark.parametrize("command, config, old, new, message", [
    ("identify", "identify_plant.cfg", "gamma0_nc = 1e5", "gamma0_nc = inf",
     "configuration error: [identify] gamma0 must be positive and finite"),
    ("design", "design_combined.cfg", "alpha = 1.0", "alpha = inf",
     "configuration error: [design] alpha must be finite, got inf"),
    ("simulate", "sim_force_step.cfg", "velocity_filter = off",
     "velocity_filter = off\nadaptation = offline\n[design]\nalpha = inf",
     "configuration error: [design] alpha must be finite, got inf"),
], ids=["gamma0_inf", "design_alpha_inf", "offline_alpha_inf"])
def test_cmd_infinite_covariance_seed_or_design_alpha_is_config_error(tmp_path, capsys, command, config, old, new,
                                                                      message):
    _assert_rejected_with(tmp_path, capsys, command, config, old, new, message)


@pytest.mark.parametrize("command, old, new, message", [
    ("analyze", "K_env_N_per_m = 6500.0", "K_env_N_per_m = inf", "[environment] K_env must be finite, got inf"),
    ("analyze", "D_env_Ns_per_m = 2.0", "D_env_Ns_per_m = inf", "[environment] D_env must be finite, got inf"),
    ("analyze", "K_F_N_per_A = 0.5", "K_F_N_per_A = inf", "[plant] K_F must be finite, got inf"),
    ("analyze", "M_mn_kg = 3.02", "M_mn_kg = inf", "[dob] M_mn must be finite, got inf"),
    ("analyze", "M_m_kg = 3.02", "M_m_kg = inf", "[plant] M_m must be finite, got inf"),
    ("analyze", "K_Fn_N_per_A = 0.5", "K_Fn_N_per_A = inf", "[dob] K_Fn must be finite, got inf"),
    ("simulate", "K_F_N_per_A = 0.5", "K_F_N_per_A = 0.5\nF_d_N = nan", "[plant] F_d must be finite, got nan"),
    ("simulate", "g_rfob_rad_per_s", "F_d_hat_N = inf\ng_rfob_rad_per_s", "[rfob] F_d_hat must be finite, got inf"),
    ("simulate", "K_env_N_per_m = 6500.0", "K_env_N_per_m = 6500.0\nx_env_m = nan",
     "[environment] x_env must be finite, got nan"),
    ("simulate", "contact = contact", "contact = contact\nF_d_override_N = inf",
     "[phase] F_d_override must be finite, got inf"),
    ("simulate", "M_hat_kg = 3.02", "M_hat_kg = inf", "[rfob] M_hat must be finite, got inf"),
], ids=["analyze_K_env_inf", "analyze_D_env_inf", "analyze_K_F_inf", "analyze_M_mn_inf", "analyze_M_m_inf",
        "analyze_K_Fn_inf", "F_d_nan", "F_d_hat_inf", "x_env_nan", "F_d_override_inf", "M_hat_inf"])
def test_cmd_non_finite_model_parameter_is_config_error(tmp_path, capsys, command, old, new, message):
    # analyze used to divide by zero (exit 1) on these, and simulate to run them into a divergence (exit 4)
    _assert_rejected_with(tmp_path, capsys, command, "sim_force_step.cfg", old, new, f"configuration error: {message}")


def _assert_rejected_with(tmp_path, capsys, command, config, old, new, message):
    """`command` on the bundled `config` with `old` replaced by `new` exits 2 with `message` and prints nothing."""
    cfg = tmp_path / config
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("extra", [
    "delta0_c = 0.5, 3000.0, 500.0",        # outside the projection box
    "delta0_c = 0.5, 3000.0",               # wrong dimension
    "mu_c = 0.0",
    "dwell_steps = 0",
])
def test_cmd_identify_invalid_estimator_setting_is_config_error(tmp_path, extra):
    cfg = tmp_path / "env.cfg"
    text = (CONFIGS / "identify_env.cfg").read_text()
    key = extra.split(" =")[0]
    text = "\n".join(line for line in text.splitlines() if not line.startswith(key + " "))
    cfg.write_text(text.replace("[identify]", "[identify]\n" + extra))
    assert main(["identify", "--config", str(cfg)]) == EXIT_CONFIG


def test_internal_value_error_is_not_a_config_error(monkeypatch, capsys):
    def broken(scenario, on_window=None):
        raise ValueError("non-finite regressor or measurement")

    monkeypatch.setattr(rfobkit.engine, "run_scenario", broken)
    with pytest.raises(ValueError, match="non-finite"):
        main(["simulate", "--config", str(CONFIGS / "sim_force_step.cfg")])
    assert "configuration error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """Non-finite floats -> None recursively: the copy the JSON writer once made before json.dumps."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json_reference(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True)


JSON_FLOATS = st.floats() | st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-320, 1e308, -1.7976931348623157e308]) | st.floats().map(np.float64)
JSON_TEXT = st.text() | st.sampled_from(['"', "\\", 'a "quoted\\" \\n', "\x00\x01\x1f\x7f", "tab\tcr\r", "é ü ß", "\u2028", "🙂 🚀"])
JSON_LEAVES = (JSON_FLOATS | st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
               | st.sampled_from(list(ContactMode)) | st.booleans() | st.none() | JSON_TEXT)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
@example([[[], {}], (), {"x": [[]], "y": {}, "z": ((),)}])
@example({"z": 1, "a": [math.nan, -math.inf, np.float64(math.inf), np.float64(0.1)], "m": {"k": None}})
def test_json_text_matches_json_dumps_of_the_sanitized_copy(obj):
    assert cli._json_text(obj) == _json_reference(obj)


@pytest.mark.parametrize("obj", [{1, 2}, np.array([1.0, 2.0]), {"a": [0.5, frozenset()]}, [np.array(1.0)]])
def test_json_text_rejects_other_types_as_json_does(obj):
    with pytest.raises(TypeError):
        _json_reference(obj)
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_cmd_analyze_writes_null_poles_of_a_loop_above_third_order(tmp_path, capsys):
    # g_dob != g_rfob: the closed loop is above third order and lists no poles
    cfg = tmp_path / "split.cfg"
    cfg.write_text(ANALYZE_CFG.replace("g_rfob_rad_per_s = 250.0", "g_rfob_rad_per_s = 300.0"))
    out = tmp_path / "split.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "analytic pole listing unsupported" in capsys.readouterr().out
    assert out.read_bytes() == (
        b'{\n  "alpha": 2.0,\n  "asymptote_angles_deg": [\n    -90.0,\n    90.0\n  ],\n'
        b'  "bandwidth_bound_margin": 0.0,\n  "bandwidth_bound_passed": true,\n  "beta": 2.0,\n'
        b'  "beta_below_alpha": false,\n  "closed_loop_poles": null,\n  "closed_loop_stable": null,\n'
        b'  "phi_coeffs": [\n    0.0,\n    1.0,\n    3250.0\n  ],\n'
        b'  "phi_roots": [\n    [\n      -3250.0,\n      0.0\n    ]\n  ],\n'
        b'  "relative_degree": 2,\n  "rhp_marginal": false,\n  "rhp_zero": false\n}'
    )


def test_cmd_analyze_writes_null_poles_of_a_cubic_it_cannot_scale(tmp_path, capsys):
    # the closed loop (1e-25, 2, 1e300, 5e277) is a cubic whose leading coefficient is 0 once scaled
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(ANALYZE_CFG.replace("3.02", "1e-25").replace("6.04", "1e-25").replace("6500.0", "1e300")
                   .replace("250.0", "500.0").replace("1.25", "1.0"))
    out = tmp_path / "tiny.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert ("closed-loop poles: a3 = 1e-25 is 0 once scaled by max|a_i| = 1e+300, "
            "analytic pole listing unsupported\n") in capsys.readouterr().out
    rep = json.loads(out.read_text())
    assert (rep["closed_loop_poles"], rep["closed_loop_stable"], rep["relative_degree"]) == (None, None, 2)


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def chunked_csv(res: SimResult, path, columns=TIMESERIES_COLUMNS) -> None:
    """The header, then `res`'s record through `cli._write_chunk` NOISE_BLOCK rows at a time, the windows in which
    `cli._run_and_write` writes a run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, res.n_steps, NOISE_BLOCK):
            cli._write_chunk(fh, columns, {name: res.ts[name][i:i + NOISE_BLOCK] for name in columns})


def per_cell_csv(res: SimResult, columns) -> str:
    """The per-cell writer that the row-template writer replaced."""
    lines = [",".join(columns)]
    cols = []
    for name in columns:
        arr = res.ts[name]
        if name == "contact_mode":
            cols.append([CONTACT_MODE_NAMES[int(v)] for v in arr])
        elif name == "ctrl_mode":
            cols.append([CTRL_MODE_NAMES[int(v)] for v in arr])
        else:
            cols.append([f"{float(v):.10g}" for v in arr])
    for i in range(res.n_steps):
        lines.append(",".join(col[i] for col in cols))
    return "\n".join(lines) + "\n"


def synthetic_result(n: int) -> SimResult:
    """Cells cycle through awkward floats; the mode columns are int8 codes."""
    rng = np.random.default_rng(3)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324,
                        1.0, -2.0, 3e15, 1e16, 123456789012.0, 0.1, 1.0 / 3.0, 2.5e-7])
    ts = {}
    for j, name in enumerate(TIMESERIES_COLUMNS):
        if name == "contact_mode":
            ts[name] = (np.arange(n) % 3).astype(np.int8)
        elif name == "ctrl_mode":
            ts[name] = (np.arange(n) % 2).astype(np.int8)
        else:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
            pick = rng.random(n) < 0.4
            col[pick] = special[(np.arange(n)[pick] + j) % special.size]
            ts[name] = col
    return SimResult(ts=ts, n_steps=n, diverged=False, diverged_step=None, phase_summaries=[],
                     design_events=[], final_delta_nc=None, final_delta_c=None,
                     unidentifiable_nc=False, unidentifiable_c=False)


# around one chunk and one block of rows; the last two counts end their last chunk partway through a block
WRITER_ROW_COUNTS = [0, 1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1, NOISE_BLOCK,
                     NOISE_BLOCK + cli.CSV_BLOCK_ROWS + 5, 2 * NOISE_BLOCK + 7]


@pytest.mark.parametrize("columns", [TIMESERIES_COLUMNS, TRACE_COLUMNS], ids=["timeseries", "trace"])
@pytest.mark.parametrize("n", WRITER_ROW_COUNTS)
def test_csv_writer_matches_per_cell_reference(tmp_path, columns, n):
    res = synthetic_result(n)
    out = tmp_path / "out.csv"
    chunked_csv(res, str(out), columns)
    assert out.read_bytes() == per_cell_csv(res, columns).encode("utf-8")
    if n == 0:
        assert out.read_text() == ",".join(columns) + "\n"


def constant_columns_result(n: int) -> SimResult:
    """Columns built to hit every folding case of the chunked writer."""
    res = synthetic_result(n)
    ts = res.ts
    c = NOISE_BLOCK
    first = np.arange(n) < c
    ts["F_ref_N"] = np.full(n, np.nan)                       # all NaN
    ts["x_ref_m"] = np.full(n, -0.0)                         # only -0.0
    ts["innov_nc_N"] = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)  # 0.0 and -0.0 mixed
    ts["delta_M_m_kg"] = np.where(first, 1.5, ts["delta_M_m_kg"])  # constant in chunk 1 only
    ts["delta_k_vsc_Nspm"] = np.full(n, np.inf)
    ts["delta_k_clmb_N"] = np.full(n, -np.inf)
    ts["delta_F_d_N"] = np.full(n, 100.0)
    ts["contact_mode"] = np.where(first, 2, ts["contact_mode"]).astype(np.int8)
    # the last chunk holds every column constant, the mode columns included
    last = np.arange(n) >= 2 * c
    for name in ts:
        ts[name][last] = ts[name][2 * c] if n > 2 * c else 0
    return res


@pytest.mark.parametrize("columns", [TIMESERIES_COLUMNS, TRACE_COLUMNS], ids=["timeseries", "trace"])
@pytest.mark.parametrize("n", WRITER_ROW_COUNTS)
def test_csv_writer_folds_constant_columns_exactly(tmp_path, columns, n):
    res = constant_columns_result(n)
    out = tmp_path / "out.csv"
    chunked_csv(res, str(out), columns)
    text = out.read_text()
    assert out.read_bytes() == per_cell_csv(res, columns).encode("utf-8")
    if n > 2 * NOISE_BLOCK:
        # a mixed 0.0/-0.0 column must not fold into either sign
        innov = [row.split(",")[columns.index("innov_nc_N")] for row in text.splitlines()[1:5]]
        assert innov == ["0", "-0", "0", "-0"]
        tail = text.splitlines()[-7:]
        assert len(set(tail)) == 1


@pytest.mark.parametrize("n", [cli.CSV_BLOCK_ROWS + 1, NOISE_BLOCK + 3])
def test_csv_writer_formats_blocks_whose_only_varying_column_is_a_mode(tmp_path, n):
    # every float column folds, so each block's cells are the contact_mode names alone
    res = synthetic_result(n)
    for name in TIMESERIES_COLUMNS:
        if name != "contact_mode":
            res.ts[name] = np.zeros(n, dtype=res.ts[name].dtype)
    out = tmp_path / "out.csv"
    chunked_csv(res, str(out))
    assert out.read_bytes() == per_cell_csv(res, TIMESERIES_COLUMNS).encode("utf-8")
    assert out.read_text().splitlines()[1:4] == ["0,0,0,0,0,0,0,0,0,0,force,%s,0,0,0,0,0,0,0,0,0,0,0" % m
                                                 for m in CONTACT_MODE_NAMES]


def test_csv_writer_matches_per_cell_reference_on_a_run(tmp_path):
    from rfobkit.engine import run_scenario

    res = run_scenario(build_scenario(parse_config(SIM_CFG)))
    out = tmp_path / "out.csv"
    chunked_csv(res, str(out))
    assert out.read_bytes() == per_cell_csv(res, TIMESERIES_COLUMNS).encode("utf-8")


def test_simulate_csv_hash_is_pinned(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(CONFIGS / "sim_force_step.cfg"), "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "98f68eaf3840c2604af0e5acaab760fd68a0f7d43639583a1d1edf45cba50a3a"


# ---------------------------------------------------------------------------
# streamed record
# ---------------------------------------------------------------------------

def _whole_record_run_and_write(scenario, out, columns):
    """`cli._run_and_write` with every column held whole: chunked_csv(run_scenario(sc)) and summary_dict()."""
    res = run_scenario(scenario)
    if out:
        chunked_csv(res, out, columns)
        summary = res.summary_dict()
        summary["csv_schema"] = cli.CSV_SCHEMA_VERSION
        Path(out + ".summary.json").write_text(cli._json_text(summary), encoding="utf-8")
    return res


UNSTABLE_AFTER_REST_CFG = (
    "[plant]\nM_m_kg = 3.02\nK_F_N_per_A = 0.5\n"
    "[environment]\nD_env_Ns_per_m = 2.0\nK_env_N_per_m = 6500.0\ncontact = bilateral\n"
    "[dob]\nM_mn_kg = 6.04\nK_Fn_N_per_A = 0.5\ng_dob_rad_per_s = 500.0\ng_v_rad_per_s = 1000.0\n"
    "[rfob]\nM_hat_kg = 6.04\nK_F_hat_N_per_A = 0.5\ng_rfob_rad_per_s = 500.0\n"
    "[scenario]\ndt_s = 1e-4\nC_f = 1.25\nx_limit_m = 1.0\nvelocity_filter = off\n"
    "[phase]\nmode = force\nduration_s = 0.5\nref = const\nvalue = 0.0\ncontact = contact\n"  # rests at exactly 0
    "[phase]\nmode = force\nduration_s = 2.0\nref = const\nvalue = 1.0\ncontact = contact\n")

# (command, config text); design_combined.cfg schedules no phase, so both paths exit with a configuration error
STREAM_CASES = {
    **{f"{command}:{name}": (command, (CONFIGS / name).read_text())
       for name in ("design_combined.cfg", "identify_env.cfg", "identify_plant.cfg", "sim_force_step.cfg")
       for command in ("simulate", "identify")},
    # a redesign on the last step of each window, patching its gains before the window is written
    "online_4096": ("identify", ENV_1S_CFG.replace("velocity_filter = off", "velocity_filter = off\n"
                                                   "adaptation = online\nredesign_period_steps = 4096")),
    "divergence": ("simulate", UNSTABLE_AFTER_REST_CFG),
    "position_to_force": ("simulate", POSITION_THEN_AUTO_CFG),
    "two_windows": ("simulate", SIM_CFG.replace("duration_s = 1.0", "duration_s = 0.8192")),
    "two_windows_and_a_step": ("simulate", SIM_CFG.replace("duration_s = 1.0", "duration_s = 0.8193")),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_run_writes_what_the_whole_record_writes(tmp_path, capsys, monkeypatch, case):
    """`simulate` and `identify` write their CSV window by window as the run records it; the CSV, the summary, the
    exit code and the printed report are those of the run held whole and written afterwards."""
    command, text = STREAM_CASES[case]
    cfg = tmp_path / "in.cfg"
    cfg.write_text(text)
    runs = {}
    for how in ("streamed", "whole"):
        out = tmp_path / f"{how}.csv"
        with monkeypatch.context() as patch:
            if how == "whole":
                patch.setattr(cli, "_run_and_write", _whole_record_run_and_write)
            code = main([command, "--config", str(cfg), "--out", str(out)])
        files = [path.read_bytes() for path in (out, tmp_path / f"{how}.csv.summary.json") if path.exists()]
        runs[how] = (code, capsys.readouterr(), files)
    assert runs["streamed"] == runs["whole"]
    code, _, files = runs["streamed"]
    assert code == (EXIT_CONFIG if "design_combined" in case or case == "identify:sim_force_step.cfg"
                    else EXIT_DIVERGED if case == "divergence" else EXIT_OK)
    if code == EXIT_CONFIG:
        assert files == []
        return
    summary = json.loads(files[1])
    n = summary["n_steps"]
    assert files[0].count(b"\n") == 1 + n
    if case == "online_4096":
        steps = [round(e["t"] / 5e-5) for e in summary["design_events"] if e["applied"]]
        assert steps and all(k % NOISE_BLOCK == NOISE_BLOCK - 1 for k in steps)
    elif case == "divergence":
        assert NOISE_BLOCK < summary["diverged_step"] == n - 1 < 2 * NOISE_BLOCK - 1  # partway through window 2
    elif case == "position_to_force":
        assert summary["phases"][1]["t_start"] == 0.3 and 3000 % NOISE_BLOCK != 0
    elif case.startswith("two_windows"):
        assert n == 2 * NOISE_BLOCK + case.endswith("step")


# the most a run-and-write holds past its whole columns and one window: the streamed columns' window buffers,
# one block's Python cells and row strings, and the summary's block and tail temporaries
STREAM_SLACK_BYTES = 384 * 1024


@pytest.mark.parametrize("command, text", [
    ("identify", ENV_1S_CFG), ("simulate", ENV_1S_CFG), ("simulate", SIM_CFG),
], ids=["identify:identify_env_1s", "simulate:identify_env_1s", "simulate:sim_force_step"])
def test_a_written_run_holds_16_bytes_per_step_per_control_mode(tmp_path, capsys, command, text):
    """Traced allocations of a CLI run-and-write peak below 16 bytes per step for each control mode in use (its
    reference and the output it tracks, which the phase summary reads whole), one NOISE_BLOCK-row window of all
    23 columns, and STREAM_SLACK_BYTES."""
    import tracemalloc
    cfg, out = tmp_path / "in.cfg", tmp_path / "out.csv"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_OK  # compiles the step loop and imports outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sc = build_scenario(parse_config(text))
    n, modes = round(sc.duration / sc.dt), {p.mode for p in sc.phases}
    assert n >= 10_000 and "steps: %d" % n in capsys.readouterr().out
    bound = 16 * n * len(modes) + 8 * len(TIMESERIES_COLUMNS) * NOISE_BLOCK + STREAM_SLACK_BYTES
    assert peak < bound, (peak, bound)
