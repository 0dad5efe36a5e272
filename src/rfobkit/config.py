"""Plain-text configuration documents for the command line.

Format: INI-style sections with `key = value` lines and `#` comments.  Keys
carry their unit as a suffix (e.g. `M_m_kg`, `g_v_rad_per_s`).  The `[phase]`
section may repeat; phases run in file order.  Unknown sections or keys are
rejected, and missing required keys are reported with their section and name.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .design import DesignSpec
from .observers import DobConfig, RfobConfig
from .plant import EnvImpedance, FrictionParams, PlantParams

if TYPE_CHECKING:  # the scenario builders import the simulator, and with it numpy, when they run
    from .engine import AdaptationConfig, IdentConfig, Phase, Scenario


class ConfigError(Exception):
    """Configuration rejected; message carries section/key context."""


_REQUIRED = object()


@dataclass(frozen=True)
class FieldSpec:
    typ: str  # float | int | bool | str | floats | opt_float
    default: object = _REQUIRED
    choices: tuple[str, ...] = ()

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


SCHEMA: dict[str, dict[str, FieldSpec]] = {
    "plant": {
        "M_m_kg": FieldSpec("float"),
        "K_F_N_per_A": FieldSpec("float", 0.5),
        "F_d_N": FieldSpec("float", 0.0),
    },
    "friction": {
        "k_vsc_Ns_per_m": FieldSpec("float", 0.0),
        "k_clmb_N": FieldSpec("float", 0.0),
        "eps_m_per_s": FieldSpec("float", 1e-3),
    },
    "environment": {
        "D_env_Ns_per_m": FieldSpec("float", 0.0),
        "K_env_N_per_m": FieldSpec("float", 0.0),
        "x_env_m": FieldSpec("float", 0.0),
        "xdot_env_m_per_s": FieldSpec("float", 0.0),
        "contact": FieldSpec("str", "unilateral", ("unilateral", "bilateral")),
    },
    "dob": {
        "M_mn_kg": FieldSpec("float", 1.0),
        "K_Fn_N_per_A": FieldSpec("float", 0.5),
        "g_dob_rad_per_s": FieldSpec("float", 500.0),
        "g_v_rad_per_s": FieldSpec("float", 1000.0),
    },
    "rfob": {
        "M_hat_kg": FieldSpec("float", 1.0),
        "K_F_hat_N_per_A": FieldSpec("float", 0.5),
        "g_rfob_rad_per_s": FieldSpec("float", 500.0),
        "k_vsc_hat_Ns_per_m": FieldSpec("float", 0.0),
        "k_clmb_hat_N": FieldSpec("float", 0.0),
        "eps_hat_m_per_s": FieldSpec("float", 1e-3),
        "F_d_hat_N": FieldSpec("float", 0.0),
    },
    "design": {
        "case": FieldSpec("str", "auto", ("auto", "damping", "stiffness", "damping_stiffness")),
        "xi_damping": FieldSpec("float", 0.7071),
        "gamma": FieldSpec("float", 1.0),
        "xi_stiffness": FieldSpec("float", 1.0),
        "eta": FieldSpec("float", 2.0),
        "xi_combined": FieldSpec("opt_float", None),
        "eta_star": FieldSpec("float", 0.1),
        "k_hint": FieldSpec("float", 0.5),
        "alpha": FieldSpec("float", 1.0),
    },
    "identify": {
        "enable_plant": FieldSpec("bool", False),
        "enable_env": FieldSpec("bool", False),
        "mu_nc": FieldSpec("float", 0.999),
        "mu_c": FieldSpec("float", 0.999),
        "gamma0_nc": FieldSpec("float", 1e4),
        "gamma0_c": FieldSpec("float", 1e4),
        "delta0_nc": FieldSpec("floats", (1.0, 0.0, 0.0, 0.0)),
        "delta0_c": FieldSpec("floats", (1.0, 1000.0, 0.0)),
        "bounds_nc_min": FieldSpec("floats", (0.05, 0.0, 0.0, -100.0)),
        "bounds_nc_max": FieldSpec("floats", (50.0, 200.0, 100.0, 100.0)),
        "bounds_c_min": FieldSpec("floats", (0.0, 1.0, -100.0)),
        "bounds_c_max": FieldSpec("floats", (1000.0, 1e6, 100.0)),
        "threshold_on_N": FieldSpec("float", 0.5),
        "threshold_off_N": FieldSpec("float", 0.2),
        "dwell_steps": FieldSpec("int", 20),
        "g_filter_nc_rad_per_s": FieldSpec("opt_float", None),
        "apply_to_rfob": FieldSpec("bool", True),
    },
    "scenario": {
        "dt_s": FieldSpec("float"),
        "C_f": FieldSpec("float", 1.0),
        "K_P": FieldSpec("float", 1200.0),
        "K_V": FieldSpec("float", 90.0),
        "velocity_filter": FieldSpec("str", "on", ("on", "off")),
        "noise_std_m_per_s": FieldSpec("float", 0.0),
        "seed": FieldSpec("int", 0),
        "adaptation": FieldSpec("str", "off", ("off", "online", "offline")),
        "redesign_period_steps": FieldSpec("int", 100),
        "x0_m": FieldSpec("float", 0.0),
        "v0_m_per_s": FieldSpec("float", 0.0),
        "x_limit_m": FieldSpec("float", 100.0),
        "v_limit_m_per_s": FieldSpec("float", 1e4),
        "dist_limit_N": FieldSpec("float", 1e6),
    },
    "phase": {
        "mode": FieldSpec("str", _REQUIRED, ("force", "position")),
        "duration_s": FieldSpec("float"),
        "ref": FieldSpec("str", "const", ("const", "sine", "multisine", "ramp")),
        "value": FieldSpec("float", 0.0),
        "offset": FieldSpec("float", 0.0),
        "amp": FieldSpec("float", 0.0),
        "freq_hz": FieldSpec("float", 0.0),
        "phase_rad": FieldSpec("float", 0.0),
        "components": FieldSpec("str", ""),
        "start": FieldSpec("float", 0.0),
        "end": FieldSpec("float", 0.0),
        "contact": FieldSpec("str", "auto", ("auto", "free", "contact")),
        "F_d_override_N": FieldSpec("opt_float", None),
    },
}


@dataclass
class ConfigDocument:
    """Validated, typed configuration: named sections plus an ordered phase list."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    phases: list[dict[str, object]] = field(default_factory=list)

    def get(self, section: str, key: str):
        if section in self.sections:
            return self.sections[section][key]
        spec = SCHEMA[section][key]
        if spec.required:
            raise ConfigError(f"missing required section [{section}] (key {key})")
        return spec.default


def _convert(section: str, key: str, spec: FieldSpec, raw: str):
    raw = raw.strip()
    try:
        if spec.typ == "float":
            return float(raw)
        if spec.typ == "opt_float":
            return None if raw in ("", "none") else float(raw)
        if spec.typ == "int":
            return int(raw)
        if spec.typ == "bool":
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if spec.typ == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        if spec.typ == "str":
            if spec.choices and raw not in spec.choices:
                raise ValueError(f"must be one of {spec.choices}, got {raw!r}")
            return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    raise ConfigError(f"[{section}] {key}: unknown field type {spec.typ}")


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a configuration document."""
    raw_sections: dict[str, dict[str, str]] = {}
    raw_phases: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {stripped!r}")
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name == "phase":
                current = {}
                raw_phases.append(current)
            else:
                if name in raw_sections:
                    raise ConfigError(f"line {lineno}: duplicate section [{name}]")
                current = {}
                raw_sections[name] = current
            current_name = name
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA[current_name]:
            raise ConfigError(f"[{current_name}] unknown key {key!r}")
        if key in current:
            raise ConfigError(f"[{current_name}] duplicate key {key!r}")
        current[key] = value

    return ConfigDocument({name: _typed(name, raw) for name, raw in raw_sections.items()},
                          [_typed("phase", raw) for raw in raw_phases])


def _typed(name: str, raw: dict[str, str]) -> dict[str, object]:
    """Convert one section's raw values in SCHEMA key order, filling in the defaults."""
    out: dict[str, object] = {}
    for key, spec in SCHEMA[name].items():
        if key in raw:
            out[key] = _convert(name, key, spec, raw[key])
        elif spec.required:
            raise ConfigError(f"[{name}] missing required key {key!r}")
        else:
            out[key] = spec.default
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _rejects_as_config_error(section: str):
    """A value the built object rejects (ValueError) becomes a ConfigError naming the section."""
    prefix = f"[{section}] "

    def decorate(build):
        @functools.wraps(build)
        def wrapper(doc: ConfigDocument):
            try:
                return build(doc)
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from None
        return wrapper
    return decorate


def _values(doc: ConfigDocument, section: str) -> list:
    """The section's values in SCHEMA key order.

    The builders below construct by position from these lists, so each dataclass declares
    its fields in the key order of its section.
    """
    return [doc.get(section, key) for key in SCHEMA[section]]


@_rejects_as_config_error("plant")
def build_plant(doc: ConfigDocument) -> PlantParams:
    return PlantParams(*_values(doc, "plant"))


@_rejects_as_config_error("friction")
def build_friction(doc: ConfigDocument) -> FrictionParams:
    return FrictionParams(*_values(doc, "friction"))


@_rejects_as_config_error("environment")
def build_env(doc: ConfigDocument) -> EnvImpedance:
    return EnvImpedance(*_values(doc, "environment")[:4])  # `contact` is a Scenario setting


@_rejects_as_config_error("dob")
def build_dob(doc: ConfigDocument) -> DobConfig:
    return DobConfig(*_values(doc, "dob"))


@_rejects_as_config_error("rfob")
def build_rfob(doc: ConfigDocument) -> RfobConfig:
    M_hat, K_F_hat, g_rfob, *friction, F_d_hat = _values(doc, "rfob")
    return RfobConfig(M_hat, K_F_hat, g_rfob, FrictionParams(*friction), F_d_hat)


@_rejects_as_config_error("design")
def build_design_specs(doc: ConfigDocument) -> DesignSpec:
    return DesignSpec(*_values(doc, "design")[1:])  # `case` is read by the design command alone


@_rejects_as_config_error("identify")
def build_ident(doc: ConfigDocument) -> IdentConfig:
    from .engine import IdentConfig
    return IdentConfig(*_values(doc, "identify"))


@_rejects_as_config_error("scenario")
def build_adaptation(doc: ConfigDocument) -> AdaptationConfig:
    """The redesign policy: mode and period from [scenario], the design spec from [design]."""
    from .engine import AdaptationConfig, AdaptationMode
    return AdaptationConfig(
        mode=AdaptationMode(doc.get("scenario", "adaptation")),
        period_steps=doc.get("scenario", "redesign_period_steps"),
        spec=build_design_specs(doc),
    )


def _parse_components(text: str) -> tuple[tuple[float, float, float], ...]:
    """A multisine's `amp:freq_hz[:phase_rad]` entries, comma-separated."""
    comps = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"[phase] components entry {item!r}: expected amp:freq_hz[:phase_rad]")
        try:
            amp, freq = float(parts[0]), float(parts[1])
            ph = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise ConfigError(f"[phase] components entry {item!r}: not numeric") from None
        comps.append((amp, freq, ph))
    return tuple(comps)


@_rejects_as_config_error("phase")
def _build_phases(doc: ConfigDocument) -> tuple[Phase, ...]:
    from .engine import ContactMode, ControlMode, Phase
    # `contact = auto` leaves the mode to the contact detector
    contact_hint = {"auto": None, "free": ContactMode.NON_CONTACT, "contact": ContactMode.CONTACT}
    if not doc.phases:
        raise ConfigError("at least one [phase] section is required to simulate")
    phases = []
    for p in doc.phases:
        kind = p["ref"]  # as the Phase reference fields offset, waves and ramp_end
        if kind == "const":
            ref = {"offset": p["value"]}
        elif kind == "ramp":
            ref = {"offset": p["start"], "ramp_end": p["end"]}
        elif kind == "sine":
            ref = {"offset": p["offset"], "waves": ((p["amp"], p["freq_hz"], p["phase_rad"]),)}
        else:
            ref = {"offset": p["offset"], "waves": _parse_components(str(p["components"]))}
        phases.append(Phase(mode=ControlMode(p["mode"]), duration=p["duration_s"], **ref,
                            contact_hint=contact_hint[p["contact"]], F_d_override=p["F_d_override_N"]))
    return tuple(phases)


@_rejects_as_config_error("scenario")
def build_scenario(doc: ConfigDocument) -> Scenario:
    from .engine import Scenario
    if "scenario" not in doc.sections:
        raise ConfigError("missing required section [scenario]")
    phases = _build_phases(doc)
    return Scenario(
        plant=build_plant(doc),
        friction=build_friction(doc),
        env=build_env(doc),
        dob=build_dob(doc),
        rfob=build_rfob(doc),
        phases=phases,
        dt=doc.get("scenario", "dt_s"),
        C_f=doc.get("scenario", "C_f"),
        K_P=doc.get("scenario", "K_P"),
        K_V=doc.get("scenario", "K_V"),
        always_in_contact=doc.get("environment", "contact") == "bilateral",
        velocity_filter_on=doc.get("scenario", "velocity_filter") == "on",
        noise_std=doc.get("scenario", "noise_std_m_per_s"),
        seed=doc.get("scenario", "seed"),
        adaptation=build_adaptation(doc),
        ident=build_ident(doc),
        x0=doc.get("scenario", "x0_m"),
        v0=doc.get("scenario", "v0_m_per_s"),
        x_limit=doc.get("scenario", "x_limit_m"),
        v_limit=doc.get("scenario", "v_limit_m_per_s"),
        dist_limit=doc.get("scenario", "dist_limit_N"),
    )
