"""Experiment configuration: a strict, versioned JSON schema.

A config names a coefficient family, a box with a grid resolution, a
simulation setup and a list of requested diagnostics.  Parsing is strict:
unknown keys anywhere are errors, so configs stay diffable and typos cannot
silently change an experiment.  Every CLI subcommand, ``report`` included,
reads the config one way: it writes ``--set``, ``--seed`` and ``--out`` into
the raw mapping, then calls :meth:`ExperimentConfig.from_dict` once.  That
one load checks every value, the top-level family and diagnostics entries
included, by building what it configures, so its owner checks it, and keeps
what it built (the coefficients, the box grid and each entry's inputs) for
the runners.  A diagnostics entry is checked only by its kind's library
input check, called once on its keyword arguments, payload included: a load
checks a payload on its grid and keeps only the callable.
The simulated start lies inside ``sim.r_exit``.  Sizes are checked at load
too: every ensemble, grid and stored set of time slices a config asks for
must have a shape numpy can represent.
Loading never rewrites the raw entries: a parsed config serializes back to an
equivalent dict, and its canonical-JSON digest identifies the experiment.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable

import numpy as np

from .coefficients import CoefficientSet, builtin_family
from .diagnostics import LawVariant, feynman_kac_config, krylov_config, uniqueness_configs
from .grids import (
    BoxGrid, SmoothBump, finite_point, finite_real, grid_values, integer, squared_norm,
    step_count,
)
from .reporting import digest
from .semigroup import slices_shape
from .simulate import SCHEME, SimConfig, start_inside

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing required keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")


def _tagged(spec: Any, tag: str, table: dict, what: str, where: str) -> str:
    """Check a mapping's keys against ``table[spec[tag]][:2]``; returns the tag."""
    spec = _require_mapping(spec, where)
    if tag not in spec:
        raise ConfigError(f"{where} needs a {tag!r} key")
    kind = spec[tag]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{where}: unknown {what} {kind!r}; known: {sorted(table)}")
    required, optional = table[kind][:2]
    _check_keys(spec, required | {tag}, optional, where)
    return kind


# -- payloads -----------------------------------------------------------------

def _one(spec: dict, dim: int) -> Callable:
    return lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1])


def _ball_indicator(spec: dict, dim: int) -> Callable:
    r = finite_real(spec["radius"], "radius", positive=True)
    c = finite_point(spec.get("center", [0.0] * dim), dim, "center")
    return lambda x: (np.sqrt(squared_norm(np.asarray(x, float) - c)) < r).astype(float)


def _bump(spec: dict, dim: int) -> Callable:
    center = finite_point(spec["center"], dim, "center")
    bump = SmoothBump(center, finite_real(spec["radius"], "radius", positive=True))
    return lambda x: bump(np.asarray(x, dtype=float))


def _gaussian(spec: dict, dim: int) -> Callable:
    c = finite_point(spec["center"], dim, "center")
    var = finite_real(spec["variance"], "variance", positive=True)
    return lambda x: np.exp(-squared_norm(np.asarray(x, float) - c) / (2 * var))


def _clipped_coordinate(spec: dict, dim: int) -> Callable:
    axis = integer(spec["axis"], "axis")
    if axis >= dim:
        raise ValueError(f"axis {axis} does not exist in dimension {dim}")
    bound = finite_real(spec["bound"], "bound", positive=True)
    return lambda x: np.clip(np.asarray(x, dtype=float)[..., axis], -bound, bound)


# type: (required keys, optional keys, builder)
_PAYLOADS = {
    "one": (set(), set(), _one),
    "ball_indicator": ({"radius"}, {"center"}, _ball_indicator),
    "bump": ({"center", "radius"}, set(), _bump),
    "gaussian": ({"center", "variance"}, set(), _gaussian),
    "clipped_coordinate": ({"axis", "bound"}, set(), _clipped_coordinate),
}


def validate_payload_spec(spec: Any, where: str) -> dict:
    _tagged(spec, "type", _PAYLOADS, "payload type", where)
    return dict(spec)


def build_payload(spec: Any, dim: int, where: str = "payload") -> Callable:
    """Spatial payload ``f(x)`` from a payload spec, checked as it is built."""
    validate_payload_spec(spec, where)
    try:
        return _PAYLOADS[spec["type"]][2](spec, dim)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_spacetime_payload(
    spec: Any, dim: int, label: str, where: str = "payload"
) -> Callable:
    f = build_payload(spec, dim, where)

    def payload(x, t):
        return f(x)

    payload.__name__ = label
    return payload


# -- families and grids -------------------------------------------------------

def _build_family(spec: Any, dim: int, where: str) -> CoefficientSet:
    """The one family-spec builder, for the top-level family and variants."""
    spec = _require_mapping(spec, where)
    _check_keys(spec, {"name"}, {"params"}, where)
    params = dict(_require_mapping(spec.get("params", {}), f"{where}.params"))
    fam_dim = params.pop("dim", dim)
    if fam_dim != dim:
        raise ConfigError(
            f"family dimension {fam_dim} does not match the {dim}-dimensional box"
        )
    try:
        return builtin_family(spec["name"], dim, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _box_grid(bounds, n, where: str) -> BoxGrid:
    try:
        return BoxGrid(bounds, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# -- diagnostics entries ------------------------------------------------------

_DIAGNOSTICS = {
    "uniqueness": ({"variants", "x0", "t_checks"}, {"level"}),
    "krylov": ({"x0", "radius", "t_final", "payloads"}, {"dt"}),
    "feynman_kac": ({"payload", "x0", "t_final", "pde_dt"}, {"grid_n", "mc_dt"}),
    "semigroup": ({"payload", "t_final", "dt"}, set()),
}


def _given(entry: dict, *keys) -> dict:
    return {k: entry[k] for k in keys if k in entry}


def _listed(entry: dict, key: str) -> list:
    if not isinstance(entry[key], list):
        raise ConfigError(f"{key} must be a list")
    return entry[key]


def _variant(spec: Any, dim: int, where: str) -> LawVariant:
    spec = _require_mapping(spec, where)
    _check_keys(spec, {"label"}, {"family", "dt"}, where)
    c = (_build_family(spec["family"], dim, f"{where}.family")
         if "family" in spec else None)
    return LawVariant(spec["label"], c, spec.get("dt"))


def _entry_sim(sim: SimConfig, entry: dict, key: str) -> SimConfig:
    """The sim config an entry runs with: its own step ``key`` if given."""
    if key not in entry:
        return sim
    step_count(entry["t_final"], entry[key], ValueError, "t_final", key)
    return replace(sim, t_final=entry["t_final"], dt=float(entry[key]))


def _entry_inputs(entry: Any, grid: BoxGrid, sim: SimConfig, where: str) -> dict:
    """Inputs of the library call a diagnostics entry asks for,
    checked by that function's input check (faults are :class:`ConfigError`).

    Semigroup entries call :func:`~sdelab.semigroup.evolve`, the others the
    diagnostics function of their kind.  A payload is checked on its grid
    (:func:`~sdelab.grids.grid_values`) and only the callable is kept; the
    runner adds coefficients, and for ``evolve`` the density and the
    payload's node values.  Absent optional keys are left out, so library
    defaults apply.
    """
    kind = _tagged(entry, "kind", _DIAGNOSTICS, "kind", where)
    dim = grid.dim
    try:
        if kind == "semigroup":
            slices_shape(grid, entry["t_final"], entry["dt"])
            payload = build_payload(entry["payload"], dim)
            grid_values(payload, grid)
            return {"payload": payload, "t_final": entry["t_final"], "dt": entry["dt"]}
        x0 = finite_point(entry["x0"], dim)
        if kind == "uniqueness":
            variants = [_variant(v, dim, f"variants[{j}]")
                        for j, v in enumerate(_listed(entry, "variants"))]
            inputs = {"variants": variants, "x0": x0, "t_checks": entry["t_checks"],
                      "cfg": sim, **_given(entry, "level")}
            check = uniqueness_configs
        elif kind == "krylov":
            payloads = []
            for j, s in enumerate(_listed(entry, "payloads")):
                at = f"payloads[{j}]"
                # the index makes every label in the report unique
                label = f"{validate_payload_spec(s, at)['type']}_{j}"
                payloads.append(build_spacetime_payload(s, dim, label, at))
            inputs = {"x0": x0, "radius": entry["radius"], "t_final": entry["t_final"],
                      "f_dictionary": payloads, "cfg": _entry_sim(sim, entry, "dt")}
            check = krylov_config
        else:
            grid_n = entry.get("grid_n", grid.n)
            inputs = {"grid": _box_grid(grid.bounds, grid_n, "grid_n"),
                      "f0": build_payload(entry["payload"], dim),
                      "x0": x0, "t_final": entry["t_final"],
                      "cfg": _entry_sim(sim, entry, "mc_dt"),
                      "pde_dt": entry["pde_dt"]}
            check = feynman_kac_config
        check(**inputs)
        return inputs
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``x0`` is the common start point of simulated paths (defaults to the box
    center when absent from the ``sim`` section), inside any ``r_exit``.
    ``diagnostics`` entries are kind-tagged parameter dicts; ``inputs[i]`` holds the checked inputs
    of entry ``i``'s library call, built at load.  ``coefficients``
    and ``grid`` are the family and box grid the config describes, built at
    load too; what was built is not part of a config's identity.
    """

    format_version: int
    family: dict
    box: dict
    sim: SimConfig
    x0: tuple | None
    diagnostics: tuple
    output_dir: str | None
    coefficients: CoefficientSet = field(compare=False, repr=False)
    grid: BoxGrid = field(compare=False, repr=False)
    inputs: tuple = field(compare=False, repr=False)

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
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {version!r}; this build reads "
                f"{FORMAT_VERSION}"
            )

        box = _require_mapping(raw["box"], "box")
        _check_keys(box, {"bounds", "n"}, set(), "box")
        grid = _box_grid(box["bounds"], box["n"], "box")
        coefficients = _build_family(raw["family"], grid.dim, "family")

        sim_raw = dict(_require_mapping(raw["sim"], "sim"))
        x0 = sim_raw.pop("x0", None)
        if x0 is not None:
            x0 = tuple(finite_point(x0, grid.dim, "sim.x0", ConfigError).tolist())
        required = {f.name for f in fields(SimConfig) if f.default is MISSING}
        optional = {f.name for f in fields(SimConfig)}
        _check_keys(sim_raw, required, optional, "sim")
        try:
            sim = SimConfig(**sim_raw)
            sim.states_shape(grid.dim)
            start_inside(grid.center if x0 is None else x0, sim.r_exit, "r_exit")
        except ValueError as exc:
            raise ConfigError(f"sim: {exc}") from None

        diags = raw.get("diagnostics", [])
        if not isinstance(diags, list):
            raise ConfigError("diagnostics must be a list")

        out = raw.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise ConfigError("output_dir must be a string path")

        inputs = tuple(_entry_inputs(entry, grid, sim, f"diagnostics[{i}]")
                       for i, entry in enumerate(diags))

        return ExperimentConfig(
            format_version=int(version),
            family=dict(raw["family"]),
            box=dict(box),
            sim=sim,
            x0=x0,
            diagnostics=tuple(dict(e) for e in diags),
            output_dir=out,
            coefficients=coefficients,
            grid=grid,
            inputs=inputs,
        )

    def to_dict(self) -> dict:
        sim = self.sim.to_dict()
        del sim["scheme"]  # the one scheme is no config key
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

    @property
    def digest(self) -> str:
        """Canonical-JSON digest of the experiment.

        The output directory is excluded: where artifacts land is not part
        of the experiment, and reports written from the same config and seed
        must match byte for byte wherever they are written.  The scheme is
        part of it, as it is of every report's ``sim`` config.
        """
        payload = self.to_dict()
        payload.pop("output_dir", None)
        payload["sim"]["scheme"] = SCHEME
        return digest(payload)

    def start_point(self):
        return self.x0 if self.x0 is not None else tuple(self.grid.center)


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
