"""Config schema and command-line front door."""

import copy
import gc
import hashlib
import json
import math
import os
import re
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdelab.cli
import sdelab.config
import sdelab.diagnostics
from sdelab import grids
from sdelab import (
    SimConfig,
    canonical_json,
    exit_time_stats,
    feynman_kac_crosscheck,
    krylov_audit,
    occupation_profile,
    simulate_ensemble,
)
from sdelab.cli import _OCCUPATION_EPS, _Emitter, main
from sdelab.config import (
    ConfigError,
    ExperimentConfig,
    apply_set_overrides,
    build_payload,
    build_spacetime_payload,
    validate_payload_spec,
)
from sdelab.grids import BoxGrid


def base_config(**updates):
    cfg = {
        "format_version": 1,
        "family": {"name": "brownian"},
        "box": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "n": 17},
        "sim": {
            "dt": 0.01,
            "t_final": 0.5,
            "n_paths": 200,
            "master_seed": 7,
            "x0": [0.0, 0.0],
        },
        "diagnostics": [],
    }
    cfg.update(updates)
    return cfg


EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "example_config.json"
REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigSchema:
    def test_round_trip_preserves_digest(self):
        raw = base_config(
            diagnostics=[
                {
                    "kind": "semigroup",
                    "payload": {"type": "one"},
                    "t_final": 0.1,
                    "dt": 0.01,
                }
            ],
            output_dir="/tmp/x",
        )
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.digest == again.digest
        assert cfg.to_dict() == again.to_dict()

    def test_json_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.digest == cfg.digest

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(extra=1),
            lambda c: c["family"].update(extra=1),
            lambda c: c["box"].update(extra=1),
            lambda c: c["sim"].update(extra=1),
        ],
    )
    def test_unknown_keys_rejected(self, mutate):
        raw = base_config()
        mutate(raw)
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_diag_kind_rejected(self):
        raw = base_config(diagnostics=[{"kind": "mystery"}])
        with pytest.raises(ConfigError, match="unknown kind"):
            ExperimentConfig.from_dict(raw)

    def test_diag_entry_extra_key_rejected(self):
        raw = base_config(
            diagnostics=[
                {
                    "kind": "semigroup",
                    "payload": {"type": "one"},
                    "t_final": 0.1,
                    "dt": 0.01,
                    "typo": 1,
                }
            ]
        )
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(raw)

    def test_variant_extra_key_rejected(self):
        raw = base_config(
            diagnostics=[
                {
                    "kind": "uniqueness",
                    "variants": [{"label": "a"}, {"label": "b", "typo": 1}],
                    "x0": [0.0, 0.0],
                    "t_checks": [0.5],
                }
            ]
        )
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(raw)

    def test_payload_spec_rejects_unknown_type(self):
        with pytest.raises(ConfigError, match="unknown payload type"):
            validate_payload_spec({"type": "cosine"}, "here")

    def test_single_variant_rejected(self):
        raw = base_config(
            diagnostics=[
                {
                    "kind": "uniqueness",
                    "variants": [{"label": "only"}],
                    "x0": [0.0, 0.0],
                    "t_checks": [0.5],
                }
            ]
        )
        with pytest.raises(ConfigError, match="at least two"):
            ExperimentConfig.from_dict(raw)

    def test_format_version_mismatch(self):
        raw = base_config(format_version=2)
        with pytest.raises(ConfigError, match="format_version"):
            ExperimentConfig.from_dict(raw)

    def test_missing_required_keys(self):
        raw = base_config()
        del raw["box"]
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig.from_dict(raw)

    def test_sim_error_reported_as_config_error(self):
        raw = base_config()
        raw["sim"]["dt"] = 0.03
        with pytest.raises(ConfigError, match="sim:"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_scheme(self):
        # Euler-Maruyama is the one scheme: no config key selects it, and
        # the sim config that reports carry still records it
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.sim.to_dict()["scheme"] == "euler_maruyama"
        assert "scheme" not in cfg.to_dict()["sim"]
        raw = base_config()
        raw["sim"]["scheme"] = "euler_maruyama"
        with pytest.raises(ConfigError, match=r"sim has unknown keys \['scheme'\]"):
            ExperimentConfig.from_dict(raw)
        uniq = {
            "kind": "uniqueness",
            "variants": [{"label": "a"}, {"label": "b", "scheme": "euler_maruyama"}],
            "x0": [0.0, 0.0],
            "t_checks": [0.5],
        }
        with pytest.raises(ConfigError,
                           match=r"variants\[1\] has unknown keys \['scheme'\]"):
            ExperimentConfig.from_dict(base_config(diagnostics=[uniq]))

    @pytest.mark.parametrize("key, value", [("quad_space", 65), ("quad_time", 64)])
    def test_krylov_quadrature_keys_refused(self, key, value):
        # the quadrature sizes are fixed; even their own values are no key
        krylov = {
            "kind": "krylov",
            "x0": [0.0, 0.0],
            "radius": 1.5,
            "t_final": 1.0,
            "payloads": [{"type": "one"}],
        }
        ExperimentConfig.from_dict(base_config(diagnostics=[krylov]))
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            ExperimentConfig.from_dict(base_config(diagnostics=[{**krylov, key: value}]))

    def test_box_error_reported_as_config_error(self):
        raw = base_config()
        raw["box"]["n"] = 1
        with pytest.raises(ConfigError, match="box:"):
            ExperimentConfig.from_dict(raw)

    def test_even_feynman_kac_grid_refused_at_load(self):
        raw = json.loads(EXAMPLE_CONFIG.read_text())
        raw["diagnostics"][3]["grid_n"] = 64
        with pytest.raises(ConfigError, match=r"diagnostics\[3\]: .*odd node counts"):
            ExperimentConfig.from_dict(raw)

    def test_x0_round_trips_and_defaults_to_center(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.start_point() == (0.0, 0.0)
        raw = base_config()
        del raw["sim"]["x0"]
        raw["box"]["bounds"] = [[0.0, 2.0], [0.0, 4.0]]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.x0 is None
        assert cfg.start_point() == (1.0, 2.0)
        assert "x0" not in cfg.to_dict()["sim"]

    def test_family_dim_mismatch(self):
        raw = base_config()
        raw["family"]["params"] = {"dim": 3}
        with pytest.raises(ConfigError, match="dimension"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("family, match", [
        ({"name": "nope"}, "unknown family 'nope'"),
        ({"name": "radial_degenerate", "params": {"alpha": 5}}, "alpha=5"),
        ({"name": "radial_degenerate", "params": {"alpha": 0.5, "gamma": -1}},
         "gamma"),
        ({"name": "brownian", "params": {"drift": [float("nan"), 0.0]}}, "drift"),
        ({"name": "brownian", "params": [1, 2]}, "family.params must be a mapping"),
    ])
    def test_top_level_family_checked_at_load(self, family, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(base_config(family=family))

    def test_with_overrides(self, tmp_path):
        # --seed and --out are written into the config before its one load
        flagged = write_config(tmp_path, base_config(), "flagged.json")
        assert main(["check", "--config", flagged, "--seed", "99",
                     "--out", str(tmp_path / "o")]) == 0
        raw = base_config()
        raw["sim"]["master_seed"] = 99
        seeded = write_config(tmp_path, raw, "seeded.json")
        assert main(["check", "--config", seeded, "--out", str(tmp_path / "s")]) == 0
        assert main(["check", "--config", flagged, "--out", str(tmp_path / "b")]) == 0
        metas = {d: json.loads((tmp_path / d / "check.json").read_text())["meta"]
                 for d in ("o", "s", "b")}
        assert metas["o"]["master_seed"] == metas["s"]["master_seed"] == 99
        assert metas["o"]["config_digest"] == metas["s"]["config_digest"]
        assert metas["o"]["config_digest"] != metas["b"]["config_digest"]
        assert metas["b"]["master_seed"] == 7

    def test_digest_ignores_output_location(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "a")))
        assert main(["check", "--config", path]) == 0
        assert main(["check", "--config", path, "--out", str(tmp_path / "b")]) == 0
        assert main(["check", "--config", path, "--seed", "99",
                     "--out", str(tmp_path / "c")]) == 0
        digest = {d: json.loads((tmp_path / d / "check.json").read_text())
                  ["meta"]["config_digest"] for d in "abc"}
        assert digest["a"] == digest["b"] != digest["c"]


class TestSetOverrides:
    def test_nested_and_json_values(self):
        raw = base_config()
        out = apply_set_overrides(raw, ["box.n=33", "sim.dt=0.02"])
        assert out["box"]["n"] == 33
        assert out["sim"]["dt"] == 0.02
        assert raw["box"]["n"] == 17

    def test_string_fallback(self):
        out = apply_set_overrides(base_config(), ["family.name=brownian"])
        assert out["family"]["name"] == "brownian"

    def test_list_index(self):
        raw = base_config(
            diagnostics=[
                {
                    "kind": "semigroup",
                    "payload": {"type": "one"},
                    "t_final": 0.1,
                    "dt": 0.01,
                }
            ]
        )
        out = apply_set_overrides(raw, ["diagnostics.0.t_final=0.2"])
        assert out["diagnostics"][0]["t_final"] == 0.2

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_set_overrides(base_config(), ["box.n"])

    def test_index_out_of_range(self):
        raw = base_config(diagnostics=[])
        with pytest.raises(ConfigError, match="out of range"):
            apply_set_overrides(raw, ["diagnostics.3.dt=0.1"])

    def test_cannot_assign_into_leaf(self):
        with pytest.raises(ConfigError, match="leaf|not a container"):
            apply_set_overrides(base_config(), ["sim.dt.deeper=1"])


class TestPayloadRegistry:
    def test_one(self):
        f = build_payload({"type": "one"}, 2)
        assert np.array_equal(f(np.zeros((5, 2))), np.ones(5))

    def test_ball_indicator(self):
        f = build_payload(
            {"type": "ball_indicator", "radius": 1.0, "center": [1.0, 0.0]}, 2
        )
        vals = f(np.array([[1.0, 0.0], [1.0, 0.5], [3.0, 0.0]]))
        assert np.array_equal(vals, [1.0, 1.0, 0.0])

    def test_ball_default_center(self):
        f = build_payload({"type": "ball_indicator", "radius": 0.5}, 2)
        assert f(np.zeros(2)) == 1.0
        assert f(np.array([1.0, 0.0])) == 0.0

    def test_bump(self):
        f = build_payload({"type": "bump", "center": [0.0, 0.0], "radius": 0.2}, 2)
        assert f(np.zeros(2)) == pytest.approx(1.0)
        assert f(np.array([0.2, 0.0])) < 1.0
        assert f(np.array([2.0, 0.0])) == 0.0

    def test_gaussian(self):
        f = build_payload(
            {"type": "gaussian", "center": [1.0, 1.0], "variance": 0.5}, 2
        )
        assert f(np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert f(np.array([2.0, 1.0])) == pytest.approx(np.exp(-1.0))

    def test_clipped_coordinate(self):
        f = build_payload({"type": "clipped_coordinate", "axis": 1, "bound": 2.0}, 2)
        assert np.array_equal(
            f(np.array([[0.0, 5.0], [0.0, -5.0], [0.0, 1.0]])), [2.0, -2.0, 1.0]
        )

    def test_spacetime_wrapper_ignores_time(self):
        f = build_spacetime_payload({"type": "one"}, 2, "one_3")
        assert f.__name__ == "one_3"
        assert np.array_equal(f(np.zeros((4, 2)), 0.7), np.ones(4))

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="unknown payload type"):
            build_payload({"type": "cosine"}, 2)


class TestCliExitCodes:
    def test_check_passes_and_writes_report(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        report = json.loads((tmp_path / "out" / "check.json").read_text())
        assert report["passed"] is True
        assert report["meta"]["min_M"] == pytest.approx(1.0)
        assert report["meta"]["occupation_route"] == "strictly_positive"
        assert report["meta"]["config_digest"]

    def test_bad_sim_config_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--set", "sim.dt=0.03"]) == 2

    def test_missing_config_file(self):
        assert main(["check", "--config", "/does/not/exist.json"]) == 2

    def test_config_flag_required(self):
        assert main(["simulate"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_semigroup_without_entries(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["semigroup", "--config", path]) == 2

    def test_workers_must_be_positive(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--workers", "0"]) == 2

    @pytest.mark.parametrize("workers", ["-1", "2.5", "nan", "true", "two", ""])
    def test_malformed_workers_refused(self, tmp_path, capsys, workers):
        # the flag has no effect, yet a value that is not a positive integer
        # is still a usage error, and no report is written
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--workers", workers, "--out", str(out)]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolvable_density_grid_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["density", "--config", path, "--set", "box.n=3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "test dictionary" in err
        assert err.count("\n") == 1
        assert list(out.glob("density*")) == []

    def test_semigroup_reads_no_test_dictionary(self, tmp_path, capsys):
        # the density audits refuse this grid; the solve and the parabolic
        # audit never read the test dictionary
        out = tmp_path / "out"
        rc = main(["semigroup", "--config", str(EXAMPLE_CONFIG), "--set", "box.n=3",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc in (0, 1)
        assert (out / "semigroup_0.json").exists()

    def test_config_file_is_closed(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["check", "--config", path]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_density_writes_table(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["density", "--config", path, "--set", "box.n=65"]) == 0
        csv = (tmp_path / "out" / "density.csv").read_text().splitlines()
        assert csv[0] == "x0,x1,rho"
        assert len(csv) == 1 + 65 * 65

    def test_simulate_reports_occupation_and_exit(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["sim"]["r_exit"] = 2.0
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        report = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert report["passed"] is True
        eps = [row["eps"] for row in report["meta"]["occupation"]]
        assert eps == sorted(eps, reverse=True)
        assert report["meta"]["exit"]["r_exit"] == 2.0
        terminal = (tmp_path / "out" / "terminal.csv").read_text().splitlines()
        assert terminal[0] == "path,x0,x1"
        assert len(terminal) == 1 + cfg["sim"]["n_paths"]

    def test_diagnose_uniqueness_null_passes(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["diagnostics"] = [
            {
                "kind": "uniqueness",
                "variants": [{"label": "half_step", "dt": 0.005}, {"label": "base"}],
                "x0": [0.0, 0.0],
                "t_checks": [0.5],
                "level": 0.05,
            }
        ]
        cfg["sim"]["n_paths"] = 500
        path = write_config(tmp_path, cfg)
        assert main(["diagnose", "--config", path]) == 0
        report = json.loads(
            (tmp_path / "out" / "diagnose_0_uniqueness.json").read_text()
        )
        assert report["passed"] is True

    def test_diagnose_negative_control_fails(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["sim"].update(dt=0.005, t_final=0.5, n_paths=1500, master_seed=34)
        cfg["diagnostics"] = [
            {
                "kind": "uniqueness",
                "variants": [
                    {"label": "no_drift"},
                    {
                        "label": "drift",
                        "family": {
                            "name": "brownian",
                            "params": {"drift": [0.5, 0.0]},
                        },
                    },
                ],
                "x0": [0.0, 0.0],
                "t_checks": [0.5],
            }
        ]
        path = write_config(tmp_path, cfg)
        assert main(["diagnose", "--config", path]) == 1
        report = json.loads(
            (tmp_path / "out" / "diagnose_0_uniqueness.json").read_text()
        )
        assert report["passed"] is False

    def test_diagnose_without_entries(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["diagnose", "--config", path]) == 2

    def test_one_load_builds_each_entry_once(self, tmp_path, monkeypatch):
        loads, builds = [], []
        from_dict, build = ExperimentConfig.from_dict, sdelab.config._entry_inputs
        monkeypatch.setattr(ExperimentConfig, "from_dict",
                            staticmethod(lambda raw: loads.append(raw) or from_dict(raw)))
        monkeypatch.setattr(sdelab.config, "_entry_inputs",
                            lambda *args: builds.append(args) or build(*args))
        cfg = base_config(diagnostics=[
            {"kind": "semigroup", "payload": {"type": "one"}, "t_final": 0.1,
             "dt": 0.01},
            {"kind": "uniqueness", "variants": [{"label": "a"}, {"label": "b"}],
             "x0": [0.0, 0.0], "t_checks": [0.5]},
        ])
        path = write_config(tmp_path, cfg)
        assert main(["semigroup", "--config", path, "--seed", "3"]) == 0
        assert len(loads) == 1 and len(builds) == 2


class TestLibraryReturnsTheReport:
    """Each report file is what one library call returns; the CLI adds only
    ``entry``, ``config_digest`` and ``master_seed`` to its ``meta``."""

    @staticmethod
    def _written(path, added=()):
        report = json.loads(path.read_text())
        for key in added:
            del report["meta"][key]
        return report

    def test_diagnose_reports_are_the_audits_reports(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(output_dir=str(out), family={
            "name": "radial_degenerate", "params": {"alpha": 0.25, "gamma": 1.0}})
        krylov_payloads = [{"type": "one"}, {"type": "ball_indicator", "radius": 0.3}]
        fk_payload = {"type": "gaussian", "center": [0.3, 0.0], "variance": 0.5}
        cfg["diagnostics"] = [
            {"kind": "krylov", "x0": [0.0, 0.0], "radius": 1.0, "t_final": 0.5,
             "payloads": krylov_payloads},
            {"kind": "feynman_kac", "payload": fk_payload, "x0": [0.5, 0.0],
             "t_final": 0.1, "pde_dt": 0.01, "grid_n": 33},
        ]
        assert main(["diagnose", "--config", write_config(tmp_path, cfg),
                     "--workers", "1"]) == 0
        c = ExperimentConfig.from_dict(cfg).coefficients
        sim = SimConfig(dt=0.01, t_final=0.5, n_paths=200, master_seed=7)
        krylov = krylov_audit(
            c, (0.0, 0.0), 1.0, 0.5,
            [build_spacetime_payload(p, 2, f"{p['type']}_{j}")
             for j, p in enumerate(krylov_payloads)], sim)
        fk = feynman_kac_crosscheck(
            c, BoxGrid(((-3.0, 3.0), (-3.0, 3.0)), 33), build_payload(fk_payload, 2),
            (0.5, 0.0), 0.1, sim, 0.01)
        added = ("entry", "config_digest", "master_seed")
        for name, rep in (("diagnose_0_krylov", krylov), ("diagnose_1_feynman_kac", fk)):
            assert self._written(out / f"{name}.json", added) == json.loads(
                canonical_json(rep.to_dict())), name

    def test_feynman_kac_payload_is_evaluated_by_the_load_and_by_the_audit(
            self, tmp_path, monkeypatch):
        # the config load checks the payload on the 33 x 33 grid and keeps
        # only the callable; the audit evaluates it there again
        shapes = []
        required, optional, build = sdelab.config._PAYLOADS["gaussian"]

        def counted(spec, dim):
            f = build(spec, dim)
            return lambda x: shapes.append(np.shape(x)) or f(x)

        monkeypatch.setitem(sdelab.config._PAYLOADS, "gaussian", (required, optional, counted))
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["diagnostics"] = [
            {"kind": "feynman_kac", "x0": [0.5, 0.0], "t_final": 0.1, "pde_dt": 0.01,
             "payload": {"type": "gaussian", "center": [0.3, 0.0], "variance": 0.5},
             "grid_n": 33},
        ]
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 0
        # the load's check, the audit's node values, then the terminal states
        assert shapes == [(33, 33, 2), (33, 33, 2), (200, 2)]

    @pytest.mark.parametrize("subcommand", ["check", "density", "semigroup", "simulate",
                                            "diagnose", "report"])
    def test_no_config_load_keeps_node_values(self, subcommand):
        # every load checks every payload on its grid and keeps the callable:
        # the only arrays kept are start points
        args = sdelab.cli._build_parser().parse_args([subcommand, "--config",
                                                      str(EXAMPLE_CONFIG)])
        cfg = sdelab.cli._load_config(args)
        arrays = [v for inputs in cfg.inputs for v in inputs.values()
                  if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape == (cfg.grid.dim,) for a in arrays)

    def test_simulate_meta_is_the_summaries(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(output_dir=str(out), family={
            "name": "radial_degenerate", "params": {"alpha": 0.25, "gamma": 1.0}})
        cfg["sim"]["r_exit"] = 1.0
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--workers", "1"]) == 0
        loaded = ExperimentConfig.from_dict(cfg)
        ens = simulate_ensemble(loaded.coefficients, (0.0, 0.0), loaded.sim,
                                occupation_eps=_OCCUPATION_EPS)
        meta = self._written(out / "simulate.json")["meta"]
        assert 0 < meta["exit"]["n_exited"] < 200
        assert exit_time_stats(ens) == meta["exit"]
        assert occupation_profile(ens, _OCCUPATION_EPS) == meta["occupation"]

    def test_unresolvable_krylov_payload_is_usage_error(self, tmp_path, capsys):
        # paths visit the ball, but no midpoint of the quadrature grid lies in it
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["sim"].update(dt=0.002, n_paths=2000)
        cfg["diagnostics"] = [{
            "kind": "krylov", "x0": [0.0, 0.0], "radius": 1.5, "t_final": 0.5,
            "payloads": [{"type": "ball_indicator", "radius": 0.015,
                          "center": [0.023, 0.023]}],
        }]
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: payload ball_indicator_0 has mixed norm 0.0 ")
        assert err.count("\n") == 1


# Malformed values on the example config: each used to end in a traceback
# with exit 1, a run at a meaningless setting, or exit 2 only after a report
# had been written.
_BAD_VALUES = [
    ("semigroup", "diagnostics.0.dt=0.03"),
    ("semigroup", "diagnostics.0.t_final=Infinity"),
    ("simulate", 'sim.dt="0.01"'),
    ("simulate", "sim.n_paths=2.5"),
    ("simulate", "sim.x0=[NaN,0]"),
    ("diagnose", "diagnostics.1.level=2"),
    ("diagnose", "diagnostics.2.quad_space=0"),
    ("diagnose", "diagnostics.2.dt=0.003"),
    ("diagnose", "diagnostics.2.payloads.2.radius=-1"),
    ("diagnose", "diagnostics.1.t_checks=[0.5,0.5]"),
    ("diagnose", "diagnostics.1.variants.0.label=gamma=1"),
    # check times off the grid, past the horizon, none, not a list, and the
    # common start, where no comparison can reject
    ("diagnose", "diagnostics.1.t_checks=[0.5005]"),
    ("diagnose", "diagnostics.1.t_checks=[1.002]"),
    ("diagnose", "diagnostics.1.t_checks=[]"),
    ("diagnose", "diagnostics.1.t_checks=0.5"),
    ("diagnose", "diagnostics.1.t_checks=[0,0.5]"),
    # variant labels that are not non-empty strings: an int 1 and a string
    # "1" used to name two variants whose clauses printed alike
    ("diagnose", "diagnostics.1.variants.0.label=1"),
    ("diagnose", 'diagnostics.1.variants.0.label=""'),
    ("simulate", "sim.n_paths=1000000000000"),
    # sizes no numpy array can have, refused at load, not after earlier reports
    ("diagnose", "diagnostics.3.mc_dt=1e-300"),
    ("simulate", "sim.t_final=1e300"),
    # non-finite constant drifts, refused where the family is built
    ("check", 'family={"name":"brownian","params":{"drift":[NaN,0]}}'),
    ("simulate", 'family={"name":"brownian","params":{"drift":[NaN,0]}}'),
    ("check", 'family={"name":"hyperplane_jump","params":{"drift_left":[NaN,0]}}'),
    ("simulate", 'family={"name":"hyperplane_jump","params":{"drift_right":[0,Infinity]}}'),
    # family parameters that are not numbers or not parameters at all
    ("check", "family.params.alpha=true"),
    ("check", "family.params.phi=2"),
    # the Feynman-Kac spatial error coarsens its grid, which needs odd node counts
    ("diagnose", "diagnostics.3.grid_n=64"),
    # a start the exit ball absorbs at step 0: every path stops, nothing can fail
    ("diagnose", "diagnostics.1.x0=[2.6,0]"),
    ("diagnose", "diagnostics.1.x0=[0,2.5]"),
    ("diagnose", "diagnostics.2.x0=[2.0,0]"),
    ("simulate", "sim.x0=[2.5,0]"),
    # Krylov quadrature cells whose volume overflows or underflows
    ("diagnose", "diagnostics.2.radius=1e200"),
    ("diagnose", "diagnostics.2.radius=1e-300"),
    # a payload 0 at every node carries no mass to compare or contract
    ("diagnose", 'diagnostics.3.payload={"type":"bump","center":[2.9,2.9],"radius":0.0001}'),
    ("semigroup", 'diagnostics.0.payload={"type":"bump","center":[2.9,2.9],"radius":0.0001}'),
    # piecewise cells: non-finite values and bounds, empty boxes, missing keys
    *(("check", 'family={"name":"piecewise_weight","params":{"cells":[%s]}}' % cell)
      for cell in ('{"bounds":[[-1,0],[-1,0]],"value":NaN}',
                   '{"bounds":[[-1,0],[-1,0]],"value":1e309}',
                   '{"bounds":[[-1,NaN],[-1,0]],"value":0.5}',
                   '{"bounds":[[0,-1],[-1,0]],"value":0.5}',
                   '{"value":0.5}')),
    # root weights whose square overflows (a traceback once) or underflows to
    # a zero of a weight declared to have none
    *((sub, 'family={"name":"hyperplane_jump","params":{"weight_left":1e200}}')
      for sub in ("check", "simulate", "density")),
    ("check", 'family={"name":"hyperplane_jump","params":{"weight_left":1e-200}}'),
    ("check", "family.params.gamma=1e-200"),
    ("check", 'family={"name":"piecewise_weight","params":{"cells":[%s]}}'
     % '{"bounds":[[-1,0],[-1,0]],"value":1e-200}'),
    # a box whose node spacing overflows
    ("check", "box.bounds=[[-1e308,1e308],[-3,3]]"),
]


_SUBCOMMANDS = ["check", "density", "semigroup", "simulate", "diagnose", "report"]


class TestInputBoundary:
    @pytest.mark.parametrize("subcommand, assignment", _BAD_VALUES)
    def test_bad_value_is_usage_error_before_any_output(
        self, tmp_path, capsys, subcommand, assignment
    ):
        out = tmp_path / "out"
        rc = main([subcommand, "--config", str(EXAMPLE_CONFIG), "--set", assignment,
                   "--out", str(out), "--workers", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or not os.listdir(out)

    def test_simulate_start_outside_the_exit_ball_is_refused(self, tmp_path, capsys):
        # every path stopped at step 0, so exit_fraction read 1.0, every exit
        # quantile 0, and the run passed a clause that could not fail
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(EXAMPLE_CONFIG), "--set", "sim.x0=[10,10]",
                   "--out", str(out), "--workers", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: sim: x0 [10.0, 10.0] is not inside the exit ball (r_exit 2.5): "
            "every path would stop at step 0\n")
        assert not (out / "simulate.json").exists()

    def test_box_center_start_outside_the_exit_ball_is_refused(self):
        # with no sim.x0 the paths start at the box center, here (3, 3)
        raw = base_config(box={"bounds": [[2.0, 4.0], [2.0, 4.0]], "n": 17})
        del raw["sim"]["x0"]
        ExperimentConfig.from_dict(raw)
        raw["sim"]["r_exit"] = 2.5
        with pytest.raises(ConfigError, match=re.escape(
                "sim: x0 [3.0, 3.0] is not inside the exit ball (r_exit 2.5)")):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("index", [0, 3], ids=["semigroup", "feynman_kac"])
    def test_zero_payload_is_refused_by_grid_values(self, monkeypatch, index):
        # one rule for both entry kinds: the payload check refuses it, not a
        # second copy in the config or in the Feynman-Kac input check
        raised = []

        def recording(*args):
            try:
                return grids.grid_values(*args)
            except ValueError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(sdelab.config, "grid_values", recording)
        monkeypatch.setattr(sdelab.diagnostics, "grid_values", recording)
        raw = json.loads(EXAMPLE_CONFIG.read_text())
        raw["diagnostics"][index]["payload"] = {"type": "bump", "center": [2.9, 2.9],
                                                "radius": 0.0001}
        message = "payload is 0 at every node of the grid, so it carries no mass on the box"
        with pytest.raises(ConfigError, match=re.escape(f"diagnostics[{index}]: {message}")):
            ExperimentConfig.from_dict(raw)
        assert raised == [message]

    def test_entry_step_off_grid_names_its_key(self, tmp_path, capsys):
        # the message named dt, the sim key, not the entry's own mc_dt
        rc = main(["diagnose", "--config", str(EXAMPLE_CONFIG), "--set",
                   "diagnostics.3.mc_dt=0.1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("error: diagnostics[3]: t_final=0.25 is off the step grid: "
                       "not an integer multiple of mc_dt=0.1\n")

    def test_box_with_infinite_spacing_is_a_box_error(self, tmp_path, capsys):
        # it warned three times, then blamed a payload 0 at every node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check", "--config", str(EXAMPLE_CONFIG), "--set",
                       "box.bounds=[[-1e308,1e308],[-3,3]]", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: box: bounds [[-1e+308, 1e+308], [-3.0, 3.0]] ")
        assert "spacing [inf, 0.09375]" in err

    @pytest.mark.parametrize("subcommand", ["check", "density"])
    def test_seed_flag_outside_u64_is_usage_error(self, tmp_path, capsys, subcommand):
        out = tmp_path / "out"
        rc = main([subcommand, "--config", str(EXAMPLE_CONFIG), "--seed", str(2**64),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: sim: master_seed must fit") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", _SUBCOMMANDS)
    def test_non_json_config_is_one_error_line(self, tmp_path, capsys, subcommand):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        rc = main([subcommand, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config is not valid JSON: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["check", "report"])
    @pytest.mark.parametrize("flag", ["--seed", "--out"])
    def test_flags_leave_a_non_mapping_config_to_the_load(
        self, tmp_path, capsys, subcommand, flag
    ):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        value = "3" if flag == "--seed" else str(tmp_path / "out")
        rc = main([subcommand, "--config", str(path), flag, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config must be a mapping") and err.count("\n") == 1

    def test_config_seed_outside_u64_is_a_sim_error(self, tmp_path, capsys):
        # the seed used to be refused only where a uniqueness entry derives
        # its own seeds from it, and the error named that entry
        rc = main(["simulate", "--config", str(EXAMPLE_CONFIG),
                   "--set", f"sim.master_seed={2**64}", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: sim: master_seed must fit") and err.count("\n") == 1

    def test_unallocatable_density_grid_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The node arrays of a 100001 x 100001 grid need ~75 GiB; the refusal is
        # simulated, so the test never asks for that memory.  Smaller grids, such
        # as the Feynman-Kac entry's payload grid evaluated at load, are built.
        points = BoxGrid.points

        def refuse(grid):
            if math.prod(grid.n) > 10**8:
                raise MemoryError(f"Unable to allocate the nodes of {grid.n}")
            return points(grid)

        monkeypatch.setattr(BoxGrid, "points", refuse)
        out = tmp_path / "out"
        rc = main(["density", "--config", str(EXAMPLE_CONFIG), "--set", "box.n=100001",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000200001 nodes" in err
        assert not out.exists() or not os.listdir(out)

    def test_unallocatable_slice_stack_is_usage_error(self, tmp_path, capsys):
        # 6e12 slices of 65 x 65 nodes: about 180 PiB, more than any 57-bit
        # address space, so the allocation fails without touching memory
        out = tmp_path / "out"
        rc = main(["semigroup", "--config", str(EXAMPLE_CONFIG),
                   "--set", "diagnostics.0.t_final=3e10", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: time slices of shape 6.000e12 x 65 x 65 need ")
        assert err.endswith(" GiB, more than can be allocated\n")
        assert not out.exists() or not os.listdir(out)

    def test_unallocatable_payload_grid_is_config_error(self):
        # the node points of 300001^3 nodes: each coordinate array needs about
        # 192 PiB, so evaluating the Feynman-Kac payload at load fails at once
        raw = base_config(diagnostics=[{
            "kind": "feynman_kac", "payload": {"type": "one"}, "x0": [0.0, 0.0, 0.0],
            "t_final": 0.5, "pde_dt": 0.25, "grid_n": 300001,
        }])
        raw["box"]["bounds"] = [[-3.0, 3.0]] * 3
        raw["sim"]["x0"] = [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=r"^diagnostics\[0\]: the points of "
                           r"27000270000900001 nodes of shape 300001 x 300001 x 300001 x 3 "
                           r"need .* GiB, more than can be allocated$"):
            ExperimentConfig.from_dict(raw)

    def test_entry_step_override_only_needs_its_own_horizon(self):
        # the krylov horizon 0.6 is a multiple of dt 0.3; the sim horizon is not
        raw = base_config(diagnostics=[{
            "kind": "krylov", "x0": [0.0, 0.0], "radius": 1.0, "t_final": 0.6,
            "dt": 0.3, "payloads": [{"type": "one"}],
        }])
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.inputs[0]["cfg"].dt == 0.3

    def test_load_keeps_raw_entries(self):
        raw = json.loads(EXAMPLE_CONFIG.read_text())
        raw["diagnostics"][0]["dt"] = 1
        raw["diagnostics"][0]["t_final"] = 2
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict()["diagnostics"] == raw["diagnostics"]
        assert type(cfg.diagnostics[0]["dt"]) is int


def _value_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _value_paths(child, prefix + (key,))


_EXAMPLE = json.loads(EXAMPLE_CONFIG.read_text())
_PATHS = list(_value_paths(_EXAMPLE))[1:]
_MUTANTS = [
    True, False, None, "x", "0.5", float("nan"), float("inf"), float("-inf"),
    0, 0.0, -1, -0.5, 2.5, 1e300, [], {}, [0.0], [[]],
]


class TestConfigFuzz:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_PATHS), st.sampled_from(_MUTANTS)),
                    min_size=1, max_size=3))
    def test_mutated_example_loads_or_raises_config_error(self, mutations):
        raw = copy.deepcopy(_EXAMPLE)
        for path, value in mutations:
            node = raw
            try:
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = copy.deepcopy(value)
            except (KeyError, IndexError, TypeError):
                continue  # an earlier mutation replaced a parent of this path
        try:
            ExperimentConfig.from_dict(raw)
        except ConfigError:
            pass


class TestCliArtifacts:
    def test_reports_are_deterministic_across_workers(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--workers", "1"]) == 0
        first = (tmp_path / "out" / "simulate.json").read_bytes()
        assert main(["simulate", "--config", path, "--workers", "8"]) == 0
        second = (tmp_path / "out" / "simulate.json").read_bytes()
        assert first == second

    def test_no_wall_clock_in_reports(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        text = (tmp_path / "out" / "check.json").read_text()
        assert "written_at" not in text and "elapsed" not in text
        sidecar = json.loads((tmp_path / "out" / "check.sidecar.json").read_text())
        assert sidecar["for"] == "check.json"
        assert "written_at" in sidecar

    def test_sidecar_elapsed_time_covers_its_own_report(self, tmp_path, monkeypatch):
        ticks = iter([10.0, 13.0, 20.0])
        monkeypatch.setattr("sdelab.cli.time.monotonic", lambda: next(ticks))
        emit = _Emitter(str(tmp_path))
        emit.report("first", {})
        emit.report("second", {})
        monkeypatch.undo()
        elapsed = [json.loads((tmp_path / f"{name}.sidecar.json").read_text())
                   ["elapsed_seconds"] for name in ("first", "second")]
        assert elapsed == [3.0, 7.0]

    def test_sidecar_records_peak_memory_outside_the_report(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        reports = []
        for workers in ("1", "2"):
            assert main(["simulate", "--config", path, "--workers", workers]) == 0
            reports.append((tmp_path / "out" / "simulate.json").read_bytes())
            sidecar = json.loads((tmp_path / "out" / "simulate.sidecar.json").read_text())
            assert sidecar["peak_rss_mib"] > 0.0
        assert reports[0] == reports[1]
        assert b"rss" not in reports[0]

    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 4097, 40000])
    def test_table_bytes_equal_per_value_formatting(self, tmp_path, n_rows):
        # tables are formatted a block of rows at a time and written a slice
        # of text at a time; the bytes must be those of one f"{v:.17g}" per
        # value, on both sides of a block edge and of a slice edge (40000
        # rows make over 2 MiB of text, so slice edges fall inside rows)
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 0.0]
        rng = np.random.default_rng(n_rows)
        columns = [
            np.arange(n_rows, dtype=float),
            np.resize(special, n_rows),
            np.resize(special[::-1], n_rows),
            rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
        ]
        header = ["path", "x0", "x1", "x2"]
        _Emitter(str(tmp_path)).table("t", header, columns)
        lines = [",".join(header)]
        for row in np.column_stack(columns):
            lines.append(",".join(f"{v:.17g}" for v in row))
        want = "\n".join(lines) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode("utf-8")

    def test_table_peak_memory_stays_near_its_file_size(self, tmp_path):
        # the table's text is held once while it is written: no whole-table
        # array copy, no block list beside the joined text, no encoded copy
        n_rows = 200_000
        rng = np.random.default_rng(0)
        columns = [np.arange(n_rows, dtype=float),
                   rng.standard_normal(n_rows), rng.standard_normal(n_rows)]
        tracemalloc.start()
        try:
            _Emitter(str(tmp_path)).table("t", ["path", "x0", "x1"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (tmp_path / "t.csv").stat().st_size

    def test_terminal_table_is_formatted_with_only_the_terminal_states_alive(
            self, tmp_path, monkeypatch):
        # the ensemble is dropped and the path column is a range before the
        # table is formatted; kept alive, its bookkeeping (six float tally
        # rows, two int64 step arrays and a float path column) is 72 bytes a path
        n_paths = 16384
        traced = []
        table = _Emitter.table
        monkeypatch.setattr(_Emitter, "table", lambda self, *args: traced.append(
            tracemalloc.get_traced_memory()[0]) or table(self, *args))
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(EXAMPLE_CONFIG), "--out", str(tmp_path),
                         "--workers", "1", "--set", f"sim.n_paths={n_paths}",
                         "--set", "sim.dt=0.05"]) == 0
        finally:
            tracemalloc.stop()
        states = n_paths * 2 * 8  # the kept terminal states, two coordinates
        assert len(traced) == 1 and traced[0] < states + 36 * n_paths

    @pytest.mark.parametrize("subcommand, written", [
        ("simulate", ["terminal.csv", "simulate.json", "simulate.sidecar.json"]),
        ("density", ["density.csv",
                     "density_preinvariance.json", "density_preinvariance.sidecar.json",
                     "density_divergence.json", "density_divergence.sidecar.json"]),
        ("semigroup", ["semigroup_0_final.csv",
                       "semigroup_0.json", "semigroup_0.sidecar.json"]),
    ])
    def test_tables_are_written_before_their_reports(self, tmp_path, monkeypatch,
                                                     subcommand, written):
        # a sidecar's peak_rss_mib is the peak so far, so it covers the
        # runner's tables only when they are written first
        paths = []
        write = sdelab.cli._write_atomic
        monkeypatch.setattr(sdelab.cli, "_write_atomic",
                            lambda path, text: paths.append(path) or write(path, text))
        cfg = base_config(output_dir=str(tmp_path / "out"), diagnostics=[
            {"kind": "semigroup", "payload": {"type": "one"}, "t_final": 0.1,
             "dt": 0.01},
        ])
        main([subcommand, "--config", write_config(tmp_path, cfg)])
        assert [os.path.basename(p) for p in paths] == written

    @pytest.mark.parametrize("name, index, labels", [
        ("verdict", 0, None),
        ("wide_paths", 0, None),
        # a second seed gives the two-sample tests other pooled samples
        ("verdict", 7, {"diagnose"}),
    ], ids=["verdict", "wide_paths", "diagnose-seed7"])
    def test_verdict_outputs_match_benchmark_references(self, tmp_path, name, index, labels):
        # the benchmark's byte gate, run in-process: every report and table
        # each workload writes at seed index ``index`` has its recorded sha256
        refs = json.loads(REFERENCES.read_text())
        workload = refs["workloads"][name]
        for op in workload["ops"]:
            if labels is not None and op["label"] not in labels:
                continue
            out = tmp_path / op["label"]
            argv = [op["command"], "--config", str(EXAMPLE_CONFIG), "--out", str(out),
                    "--workers", "2", "--seed", str(refs["base_seed"] + index)]
            for item in op["set"]:
                argv += ["--set", item]
            assert main(argv) == 0, op["label"]
            written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                       for f in out.iterdir()
                       if f.suffix in (".json", ".csv") and ".sidecar." not in f.name}
            assert written == workload["digests"][index][op["label"]], op["label"]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_files_take_their_mode_from_the_umask(self, tmp_path, umask):
        # the temp files were made by mkstemp, mode 0o600 whatever the umask
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        old = os.umask(umask)
        try:
            assert main(["check", "--config", path, "--out", str(out)]) == 0
            assert main(["report", "--config", path, "--out", str(out)]) == 0
            _Emitter(str(out)).table("t", ["a"], [np.arange(3.0)])
        finally:
            os.umask(old)
        modes = {f: stat.S_IMODE(os.stat(out / f).st_mode) for f in os.listdir(out)}
        assert modes == dict.fromkeys(
            ["check.json", "check.sidecar.json", "combined.json", "t.csv"], 0o666 & ~umask)

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded: the write fails part way
        with pytest.raises(UnicodeEncodeError):
            sdelab.cli._write_atomic(str(tmp_path / "r.json"), "ok" * 10 + "\ud800")
        assert os.listdir(tmp_path) == []

    def test_semigroup_payload_is_evaluated_by_the_load_and_by_the_runner(
            self, tmp_path, monkeypatch):
        # the config load checks it on the grid and keeps only the callable;
        # the runner evaluates it again for evolve
        calls = []
        required, optional, build = sdelab.config._PAYLOADS["bump"]
        entry = json.loads(EXAMPLE_CONFIG.read_text())["diagnostics"][0]
        assert entry["kind"] == "semigroup" and entry["payload"]["type"] == "bump"

        def counted(spec, dim):
            f = build(spec, dim)
            if spec != entry["payload"]:  # the Feynman-Kac entry's bump
                return f
            return lambda x: calls.append(np.shape(x)) or f(x)

        monkeypatch.setitem(sdelab.config._PAYLOADS, "bump", (required, optional, counted))
        assert main(["semigroup", "--config", str(EXAMPLE_CONFIG), "--out",
                     str(tmp_path / "out"), "--workers", "1"]) == 0
        assert calls == [(65, 65, 2), (65, 65, 2)]

    def test_no_temp_files_left_behind(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        assert not [f for f in os.listdir(tmp_path / "out") if f.startswith(".tmp-")]

    def test_seed_flag_changes_digest_and_samples(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["simulate", "--config", path]) == 0
        rep1 = json.loads((tmp_path / "out" / "simulate.json").read_text())
        csv1 = (tmp_path / "out" / "terminal.csv").read_text()
        assert main(["simulate", "--config", path, "--seed", "8"]) == 0
        rep2 = json.loads((tmp_path / "out" / "simulate.json").read_text())
        csv2 = (tmp_path / "out" / "terminal.csv").read_text()
        assert rep1["meta"]["config_digest"] != rep2["meta"]["config_digest"]
        assert rep2["meta"]["master_seed"] == 8
        assert csv1 != csv2

    def test_report_merges_matching_digests(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        assert main(["simulate", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        combined = json.loads((tmp_path / "out" / "combined.json").read_text())
        assert combined["passed"] is True
        assert [r["file"] for r in combined["reports"]] == [
            "check.json",
            "simulate.json",
        ]

    def test_report_rejects_mixed_digests(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--seed", "8"]) == 0
        assert main(["report", "--out", str(tmp_path / "out")]) == 2

    def test_report_reads_set_overrides(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        assert main(["report", "--config", path, "--set", f"output_dir={out}"]) == 0
        combined = json.loads((out / "combined.json").read_text())
        assert [r["file"] for r in combined["reports"]] == ["check.json"]

    def test_report_refuses_a_non_json_config(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "--config", str(bad), "--out", str(out)]) == 2
        assert not (out / "combined.json").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"meta": 3}'])
    def test_report_refuses_a_stray_json_file(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        (out / "stray.json").write_text(text)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stray.json" in err and "Traceback" not in err
        assert not (out / "combined.json").exists()

    def test_report_refuses_reports_of_another_config(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        config = str(EXAMPLE_CONFIG)
        assert main(["check", "--config", config, "--seed", "5", "--out", out]) == 0
        seed5 = json.loads((tmp_path / "out" / "check.json").read_text())
        capsys.readouterr()
        assert main(["report", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        loaded = ExperimentConfig.from_dict(json.loads(EXAMPLE_CONFIG.read_text())).digest
        assert err.startswith("error: ") and "check.json" in err
        assert seed5["meta"]["config_digest"] in err and loaded in err
        assert not (tmp_path / "out" / "combined.json").exists()

    def test_report_refuses_a_report_without_digest_under_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        (out / "loose.json").write_text('{"meta": {}, "passed": true}')
        capsys.readouterr()
        assert main(["report", "--config", path, "--out", str(out)]) == 2
        assert "loose.json" in capsys.readouterr().err
        assert not (out / "combined.json").exists()

    def test_report_config_keeps_consistent_bytes(self, tmp_path):
        out = tmp_path / "out"
        config = str(EXAMPLE_CONFIG)
        assert main(["check", "--config", config, "--seed", "5", "--out", str(out)]) == 0
        assert main(["report", "--config", config, "--seed", "5", "--out", str(out)]) == 0
        with_config = (out / "combined.json").read_bytes()
        (out / "combined.json").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "combined.json").read_bytes() == with_config

    def test_report_needs_out_dir(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["report", "--config", path]) == 2

    def test_report_on_empty_dir(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert main(["report", "--out", str(tmp_path / "out")]) == 2

    def test_rerun_reproduces_report_bytes(self, tmp_path):
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        assert main(["check", "--config", path]) == 0
        first = (tmp_path / "out" / "check.json").read_bytes()
        assert main(["check", "--config", path]) == 0
        assert first == (tmp_path / "out" / "check.json").read_bytes()
