"""Experiment configuration: a strict, versioned JSON schema.

A config names a coefficient family, a box with a grid resolution, a
simulation setup and a list of requested diagnostics.  Parsing is strict:
unknown keys anywhere are errors, so configs stay diffable and typos cannot
silently change an experiment.  A parsed config serializes back to an
equivalent dict, and its canonical-JSON digest identifies the experiment in
every report written for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from .coefficients import CoefficientSet, builtin_family
from .grids import BoxGrid
from .reporting import digest
from .simulate import SCHEME, SimConfig

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_scheme(scheme: Any, where: str) -> None:
    if scheme != SCHEME:
        raise ConfigError(
            f"{where}: unknown scheme {scheme!r}; only {SCHEME!r} is provided"
        )


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing required keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")


_PAYLOAD_SCHEMAS = {
    "one": (set(), set()),
    "ball_indicator": ({"radius"}, {"center"}),
    "bump": ({"center", "radius"}, set()),
    "gaussian": ({"center", "variance"}, set()),
    "clipped_coordinate": ({"axis", "bound"}, set()),
}


def validate_payload_spec(spec: Any, where: str) -> dict:
    spec = _require_mapping(spec, where)
    if "type" not in spec:
        raise ConfigError(f"{where} needs a 'type' key")
    kind = spec["type"]
    if kind not in _PAYLOAD_SCHEMAS:
        raise ConfigError(
            f"{where}: unknown payload type {kind!r}; "
            f"known: {sorted(_PAYLOAD_SCHEMAS)}"
        )
    required, optional = _PAYLOAD_SCHEMAS[kind]
    _check_keys(spec, required | {"type"}, optional, where)
    return dict(spec)


_DIAG_SCHEMAS = {
    "uniqueness": ({"variants", "x0", "t_checks"}, {"level"}),
    "krylov": (
        {"x0", "radius", "t_final", "payloads"},
        {"dt", "quad_space", "quad_time"},
    ),
    "feynman_kac": ({"payload", "x0", "t_final", "pde_dt"}, {"grid_n", "mc_dt"}),
    "semigroup": ({"payload", "t_final", "dt"}, set()),
}


def _validate_diag(entry: Any, index: int) -> dict:
    where = f"diagnostics[{index}]"
    entry = _require_mapping(entry, where)
    if "kind" not in entry:
        raise ConfigError(f"{where} needs a 'kind' key")
    kind = entry["kind"]
    if kind not in _DIAG_SCHEMAS:
        raise ConfigError(
            f"{where}: unknown kind {kind!r}; known: {sorted(_DIAG_SCHEMAS)}"
        )
    required, optional = _DIAG_SCHEMAS[kind]
    _check_keys(entry, required | {"kind"}, optional, where)
    if kind == "uniqueness":
        variants = entry["variants"]
        if not isinstance(variants, list) or len(variants) < 2:
            raise ConfigError(f"{where}.variants must list at least two entries")
        for j, var in enumerate(variants):
            vwhere = f"{where}.variants[{j}]"
            var = _require_mapping(var, vwhere)
            _check_keys(var, {"label"}, {"family", "dt", "scheme"}, vwhere)
            _check_scheme(var.get("scheme", SCHEME), vwhere)
            if "family" in var:
                fam = _require_mapping(var["family"], f"{vwhere}.family")
                _check_keys(fam, {"name"}, {"params"}, f"{vwhere}.family")
    elif kind == "krylov":
        payloads = entry["payloads"]
        if not isinstance(payloads, list) or not payloads:
            raise ConfigError(f"{where}.payloads must be a non-empty list")
        for j, spec in enumerate(payloads):
            validate_payload_spec(spec, f"{where}.payloads[{j}]")
    else:
        validate_payload_spec(entry["payload"], f"{where}.payload")
    return dict(entry)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``x0`` is the common start point of simulated paths (defaults to the box
    center when absent from the ``sim`` section).  ``diagnostics`` entries
    are kind-tagged parameter dicts consumed by the matching subcommands.
    """

    format_version: int
    family: dict
    box: dict
    sim: SimConfig
    x0: tuple | None
    diagnostics: tuple
    output_dir: str | None

    @staticmethod
    def from_dict(raw: Any) -> "ExperimentConfig":
        raw = _require_mapping(raw, "config")
        _check_keys(
            raw,
            {"format_version", "family", "box", "sim"},
            {"diagnostics", "output_dir"},
            "config",
        )
        version = raw["format_version"]
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {version!r}; this build reads "
                f"{FORMAT_VERSION}"
            )

        family = _require_mapping(raw["family"], "family")
        _check_keys(family, {"name"}, {"params"}, "family")
        if "params" in family:
            _require_mapping(family["params"], "family.params")

        box = _require_mapping(raw["box"], "box")
        _check_keys(box, {"bounds", "n"}, set(), "box")

        sim_raw = dict(_require_mapping(raw["sim"], "sim"))
        x0 = sim_raw.pop("x0", None)
        if x0 is not None:
            x0 = tuple(float(v) for v in x0)
        known_sim = {
            "dt", "t_final", "n_paths", "master_seed", "scheme", "r_exit",
            "near_degeneracy_eps",
        }
        _check_keys(sim_raw, {"dt", "t_final", "n_paths", "master_seed"},
                    known_sim, "sim")
        _check_scheme(sim_raw.pop("scheme", SCHEME), "sim")
        try:
            sim = SimConfig(**sim_raw)
        except ValueError as exc:
            raise ConfigError(f"sim: {exc}") from None

        diags = raw.get("diagnostics", [])
        if not isinstance(diags, list):
            raise ConfigError("diagnostics must be a list")
        diags = tuple(_validate_diag(e, i) for i, e in enumerate(diags))

        out = raw.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise ConfigError("output_dir must be a string path")

        cfg = ExperimentConfig(
            format_version=int(version),
            family=dict(family),
            box=dict(box),
            sim=sim,
            x0=x0,
            diagnostics=diags,
            output_dir=out,
        )
        cfg.build_grid()
        return cfg

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return ExperimentConfig.from_json(text)

    def to_dict(self) -> dict:
        sim = self.sim.to_dict()
        if self.x0 is not None:
            sim["x0"] = list(self.x0)
        out = {
            "format_version": self.format_version,
            "family": self.family,
            "box": self.box,
            "sim": sim,
            "diagnostics": [dict(e) for e in self.diagnostics],
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def digest(self) -> str:
        """Canonical-JSON digest of the experiment.

        The output directory is excluded: where artifacts land is not part
        of the experiment, and reports written from the same config and seed
        must match byte for byte wherever they are written.
        """
        payload = self.to_dict()
        payload.pop("output_dir", None)
        return digest(payload)

    def build_family(self) -> CoefficientSet:
        params = dict(self.family.get("params", {}))
        dim = int(params.pop("dim", len(self.box["bounds"])))
        if dim != len(self.box["bounds"]):
            raise ConfigError(
                f"family dimension {dim} does not match the "
                f"{len(self.box['bounds'])}-dimensional box"
            )
        try:
            return builtin_family(self.family["name"], dim, **params)
        except ValueError as exc:
            raise ConfigError(f"family: {exc}") from None

    def build_grid(self) -> BoxGrid:
        try:
            return BoxGrid(self.box["bounds"], self.box["n"])
        except ValueError as exc:
            raise ConfigError(f"box: {exc}") from None

    def start_point(self):
        if self.x0 is not None:
            return self.x0
        return tuple(self.build_grid().center)

    def with_overrides(self, out=None, seed=None) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, sim=replace(cfg.sim, master_seed=int(seed)))
        if out is not None:
            cfg = replace(cfg, output_dir=str(out))
        return cfg


def apply_set_overrides(raw: dict, assignments) -> dict:
    """Apply ``--set path.to.key=value`` assignments to a raw config dict.

    The path walks mappings by key and lists by integer index; the value is
    parsed as JSON where possible and kept as a string otherwise.
    """
    import copy

    raw = copy.deepcopy(raw)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        keys = path.split(".")
        node = raw
        for k in keys[:-1]:
            node = _descend(node, k, path)
        last = keys[-1]
        if isinstance(node, list):
            node[_index(last, path, len(node))] = value
        elif isinstance(node, dict):
            node[last] = value
        else:
            raise ConfigError(f"--set {path}: cannot assign into a leaf value")
    return raw


def _descend(node, key, path):
    if isinstance(node, list):
        return node[_index(key, path, len(node))]
    if isinstance(node, dict):
        if key not in node:
            node[key] = {}
        return node[key]
    raise ConfigError(f"--set {path}: {key!r} is not a container")


def _index(key, path, n):
    try:
        i = int(key)
    except ValueError:
        raise ConfigError(f"--set {path}: list index {key!r} is not an integer")
    if not 0 <= i < n:
        raise ConfigError(f"--set {path}: index {i} out of range")
    return i
