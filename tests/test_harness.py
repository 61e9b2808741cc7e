import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outbreak_local
from outbreak_local import ConfigError, ExperimentConfig, harness, parallel, run_experiment
from outbreak_local.cli import main, parse_degrees, parse_p
from outbreak_local.harness import config_hash, write_csv, write_json


def small_config(master_seed=7):
    return {
        "gen": {"model": "k_regular", "params": {"d": 3, "n": 400}, "seed": 1},
        "master_seed": master_seed,
        "tasks": [
            {"type": "giant", "p": 0.8, "trials": 4},
            {"type": "estimate", "p": 0.8, "k": 8, "q": 40},
            {"type": "histogram", "p": 0.7, "trials": 40, "delta": 0.05,
             "zeta_degree_law": {"3": 1.0}},
            {"type": "survival", "grid": [0.0, 0.5, 0.9, 1.0], "method": "analytic",
             "degree_law": {"3": 1.0}},
            {"type": "survival", "grid": [0.5, 0.9], "method": "empirical", "trials": 4},
            {"type": "bridges", "vertex": 0, "k": 2, "p": 0.6, "trials": 200},
            {"type": "expansion", "eps": 0.3, "mode": "edge", "budget": 100},
        ],
    }


# SHA-256 of every artifact of small_config() at one worker. A change that
# claims to keep behaviour keeps these; only a change meant to alter the
# artifacts may update them.
SMALL_CONFIG_SHA256 = {
    "bridges_05.json":
        "d2c98af00fce87b40a6ab6a9f6e5c3b591feb771da6579b4562842276254d9fa",
    "estimate_01.json":
        "7d332cd6ca4094ceb1688cf36d71b8c2286b57b7c42673b498c76fe8b8212aea",
    "expansion_06.json":
        "78b829a7060a927611da1d075496c94f2af9857cbdace56479aa7681ac7c2646",
    "giant_00.csv":
        "00e9c5f229e8d0f40988e5d45f2c18785cc21f91645bb545d49279b07da3e3f3",
    "giant_00.json":
        "d03fd034d5f8d1ffbc0a57ffecce1cdfedb83fc25305dd1a9db17838c659f0d6",
    "histogram_02.csv":
        "7a4071e17054787c7aab7ab59d3f13d3b85df90551ff0c746b7c9d796a539046",
    "histogram_02.json":
        "6797c062df28edcf8e47b82f32b4c4bea8cd22365f0063f3f0dc37f361a7f799",
    "manifest.json":
        "e5047c37839220b8c0bc715d6c0e8841eec59c413dac812c36b6949b0a9bb05e",
    "survival_03.csv":
        "62ff9e0d9a28bb44a6a2c7f5edb8f9af5ff57d1f53e47ec7195eab0a2dbbc8a3",
    "survival_04.csv":
        "7c668be63ba367e4cd0d8c85989bd0dd4a3103c2ff69c8d3a70c4ec75eb304c1",
}

# Two estimate configs large enough that the queries stop early and the
# overlap diagnostic (overlap_fraction about 0.46 on the 3-regular graph)
# runs several rounds, pinned the same way.
ESTIMATE_CONFIGS = {
    "regular": {
        "gen": {"model": "k_regular", "params": {"d": 3, "n": 20000}, "seed": 3},
        "master_seed": 11,
        "tasks": [
            {"type": "estimate", "p": 0.9, "k": 6, "q": 500},
            {"type": "estimate", "p": 0.6, "k": 6, "q": 500, "count_seed": False},
        ],
    },
    "pa": {
        "gen": {"model": "pa", "params": {"m": 2, "n": 20000}, "seed": 3},
        "master_seed": 11,
        "tasks": [
            {"type": "estimate", "p": 0.3, "k": 10, "q": 300, "degree_biased": True},
        ],
    },
}
ESTIMATE_CONFIG_SHA256 = {
    "regular": {
        "estimate_00.json":
            "5ad83df2f422853b2da1f0572b03eceee5bf47705b4671d6ba102d0ca5f1a790",
        "estimate_01.json":
            "facaf8d35bc4bc1e08e8f7fcfc417abad8e0dea7ef8c4711a64d659bf2eff6b2",
        "manifest.json":
            "8a41a6c68c3050777add6e7eaba534653253c83f8b767e04f2e7b70eb8b3972b",
    },
    "pa": {
        "estimate_00.json":
            "f760f3f88e811d7d37edea2098aa017e8fce397252e5607576a5767a132468aa",
        "manifest.json":
            "f6f29845de5cb64ffde9f93fae4c6ea067e54fa3a16e6604b746f8375d47ea6b",
    },
}


def manifest_hashes(manifest):
    return [(t["type"], t["status"], [f["sha256"] for f in t["files"]])
            for t in manifest["tasks"]]


class TestConfigValidation:
    def test_valid(self):
        cfg = ExperimentConfig.from_dict(small_config())
        assert len(cfg.tasks) == 7
        assert cfg.hash() == ExperimentConfig.from_dict(small_config()).hash()

    def test_unknown_task_type(self):
        data = small_config()
        data["tasks"].append({"type": "plot"})
        with pytest.raises(ConfigError, match="unknown type"):
            ExperimentConfig.from_dict(data)

    def test_bad_probability(self):
        data = small_config()
        data["tasks"][0]["p"] = 1.3
        with pytest.raises(ConfigError, match="outside"):
            ExperimentConfig.from_dict(data)

    def test_validation_happens_before_any_run(self):
        data = small_config()
        data["tasks"].append({"type": "estimate", "p": 0.5, "k": 0, "q": 5})
        with pytest.raises(ConfigError, match="k must be"):
            ExperimentConfig.from_dict(data)

    def test_lambda_alias(self):
        data = small_config()
        del data["tasks"][0]["p"]
        data["tasks"][0]["lambda"] = 1.0
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.tasks[0]["lambda"] == 1.0

    def test_missing_grid(self):
        data = small_config()
        data["tasks"][3].pop("grid")
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("task, field", [
        ({"type": "estimate", "p": 0.5, "k": "abc", "q": 3}, "k"),
        ({"type": "estimate", "p": 0.5, "k": 3, "q": "many"}, "q"),
        ({"type": "estimate", "p": "x", "k": 3, "q": 3}, "p"),
        ({"type": "giant", "lambda": "fast", "trials": 2}, "lambda"),
        ({"type": "giant", "p": 0.5, "trials": None}, "trials"),
        ({"type": "bridges", "p": 0.5, "k": 2, "trials": 2, "vertex": "v0"}, "vertex"),
        ({"type": "expansion", "eps": [0.3]}, "eps"),
        ({"type": "histogram", "p": 0.5, "trials": 2, "zeta_ref": "x"}, "zeta_ref"),
        ({"type": "histogram", "p": 0.5, "trials": 2, "delta": "x"}, "delta"),
    ])
    def test_non_numeric_field(self, task, field):
        data = small_config()
        data["tasks"].append(task)
        with pytest.raises(ConfigError, match=f"task 7: {field} must be"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("fields, message", [
        ({"delta": -1}, "delta must lie in"),
        ({"delta": 0}, "delta must lie in"),
        ({"delta": 1}, "delta must lie in"),
        ({"zeta_ref": 1.5}, "zeta_ref must lie in"),
        ({"zeta_ref": -0.5}, "zeta_ref must lie in"),
    ])
    def test_histogram_band_out_of_range(self, fields, message):
        data = small_config()
        data["tasks"].append({"type": "histogram", "p": 0.5, "trials": 2, **fields})
        with pytest.raises(ConfigError, match=f"task 7: {message}"):
            ExperimentConfig.from_dict(data)

    def test_null_zeta_ref_means_none(self):
        data = small_config()
        data["tasks"].append({"type": "histogram", "p": 0.5, "trials": 2, "zeta_ref": None})
        assert ExperimentConfig.from_dict(data).tasks[7]["zeta_ref"] is None

    def test_non_numeric_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            ExperimentConfig.from_dict(dict(small_config(), master_seed="x"))


class TestRunExperiment:
    def test_all_tasks_ok_and_reproducible(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config())
        m1 = run_experiment(cfg, tmp_path / "a", threads=1)
        m2 = run_experiment(cfg, tmp_path / "b", threads=3)
        assert all(t["status"] == "ok" for t in m1["tasks"])
        assert manifest_hashes(m1) == manifest_hashes(m2)
        assert (tmp_path / "a" / "manifest.json").exists()

    def test_manifest_covers_all_files(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config())
        manifest = run_experiment(cfg, tmp_path, threads=1)
        listed = {f["path"] for t in manifest["tasks"] for f in t["files"]}
        on_disk = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert listed == on_disk

    def test_partial_failure_preserves_other_outputs(self, tmp_path):
        data = small_config()
        # n=400 exceeds the exact-enumeration cap: this task fails at runtime
        data["tasks"].insert(0, {"type": "expansion", "eps": 0.3, "exact": True})
        cfg = ExperimentConfig.from_dict(data)
        manifest = run_experiment(cfg, tmp_path, threads=1)
        statuses = [t["status"] for t in manifest["tasks"]]
        assert statuses[0] == "failed"
        assert manifest["tasks"][0]["error"]["code"] == "ExpansionCapError"
        assert statuses[1:] == ["ok"] * 7

    def test_artifact_bytes_pinned(self, tmp_path):
        run_experiment(ExperimentConfig.from_dict(small_config()), tmp_path, threads=1)
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in tmp_path.iterdir()} == SMALL_CONFIG_SHA256

    @pytest.mark.parametrize("name", sorted(ESTIMATE_CONFIGS))
    def test_estimate_artifact_bytes_pinned(self, tmp_path, name):
        run_experiment(ExperimentConfig.from_dict(ESTIMATE_CONFIGS[name]), tmp_path, threads=1)
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in tmp_path.iterdir()} == ESTIMATE_CONFIG_SHA256[name]

    def test_failed_build_still_writes_manifest(self, tmp_path):
        data = small_config()
        data["gen"] = {"model": "cm", "params": {"degrees": [3, 1]}, "seed": 1}
        run_experiment(ExperimentConfig.from_dict(data), tmp_path, threads=1)
        assert [f.name for f in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [t["status"] for t in manifest["tasks"]] == ["failed"] * 7
        assert {t["error"]["code"] for t in manifest["tasks"]} == {"GeneratorError"}
        assert "not graphical" in manifest["tasks"][0]["error"]["message"]

    def test_different_master_seed_changes_outputs(self, tmp_path):
        m1 = run_experiment(ExperimentConfig.from_dict(small_config(1)), tmp_path / "a")
        m2 = run_experiment(ExperimentConfig.from_dict(small_config(2)), tmp_path / "b")
        assert manifest_hashes(m1) != manifest_hashes(m2)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config())
        run_experiment(cfg, tmp_path, threads=1)
        hist = (tmp_path / "histogram_02.csv").read_text().splitlines()
        assert hist[0].startswith("# ")
        assert hist[1] == "trial,seed,final_size,relative_size"
        surv = (tmp_path / "survival_03.csv").read_text().splitlines()
        assert surv[1] == "p,zeta,err,method"
        assert [line.split(",")[0] for line in surv[2:]] == ["0.0", "0.5", "0.9", "1.0"]


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path, x: write_json(path, {"x": x}),
        lambda path, x: write_csv(path, ["x"], [(x,)], {"seed": 0}),
    ])
    def test_failed_replace_keeps_old_bytes(self, tmp_path, monkeypatch, write):
        target = tmp_path / "artifact"
        write(target, 1)
        old = target.read_bytes()

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(harness.os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            write(target, 2)
        assert target.read_bytes() == old
        assert list(tmp_path.iterdir()) == [target]


class TestThreads:
    @pytest.mark.parametrize("env", ["-4", "0", "abc", "2.5"])
    def test_bad_env_rejected(self, monkeypatch, env):
        monkeypatch.setenv("OUTBREAK_LOCAL_THREADS", env)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            parallel.resolve_threads(None)

    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.delenv("OUTBREAK_LOCAL_THREADS", raising=False)
        assert parallel.resolve_threads(None) == 1
        monkeypatch.setenv("OUTBREAK_LOCAL_THREADS", "3")
        assert parallel.resolve_threads(None) == 3
        assert parallel.resolve_threads(2) == 2
        with pytest.raises(ValueError, match="threads must be >= 1"):
            parallel.resolve_threads(0)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        requested = []

        class SerialPool:  # records the worker count; starts no thread
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert parallel.parallel_map(lambda i: i * i, 50, threads=10_000) == [
            i * i for i in range(50)]
        assert parallel.parallel_map(lambda i: i, 2, threads=10_000) == [0, 1]
        assert requested == [3, 2]
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel.parallel_map(lambda i: i, 5, threads=8) == list(range(5))
        assert requested == [3, 2]


class TestCliParsers:
    def test_parse_degrees(self):
        assert parse_degrees("3x4").tolist() == [3, 3, 3, 3]
        assert parse_degrees("1,2,3").tolist() == [1, 2, 3]
        assert parse_degrees("2x2,5").tolist() == [2, 2, 5]
        with pytest.raises(ValueError):
            parse_degrees("")

    def test_parse_p(self):
        from fractions import Fraction

        assert parse_p("0.5") == 0.5
        assert parse_p("1/2") == Fraction(1, 2)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_generate_and_oracle(self, tmp_path, capsys):
        assert self.run("generate", "--model", "cm", "--degrees", "2,2,2",
                        "--seed", "4", "--out", str(tmp_path)) == 0
        edges = next(tmp_path.glob("*.edges"))
        assert self.run("oracle", "--graph", str(edges), "--vertex", "0",
                        "--p", "1/2", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(out) == {"1": 0.25, "2": 0.25, "3": 0.5}
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["law_exact"] == {"1": "1/4", "2": "1/4", "3": "1/2"}

    def test_estimate_spec_invocation(self, tmp_path):
        assert self.run("estimate", "--model", "cm", "--degrees", "3x1000",
                        "--p", "0.9", "--k", "10", "--q", "50",
                        "--seed", "7", "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "estimate.json").read_text())["report"]
        assert set(rep) >= {"k", "q", "n_tilde", "halfwidth", "master_seed",
                            "overlap_fraction"}
        assert rep["k"] == 10 and rep["q"] == 50

    def test_outbreak_and_survival_and_expansion(self, tmp_path):
        graph_dir = tmp_path / "g"
        assert self.run("generate", "--model", "k-regular", "--d", "3", "--n", "100",
                        "--seed", "1", "--out", str(graph_dir)) == 0
        edges = str(next(graph_dir.glob("*.edges")))
        assert self.run("outbreak", "--graph", edges, "--p", "0.7", "--trials", "20",
                        "--seed", "2", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "outbreak.csv").read_text().splitlines()
        assert lines[1] == "trial,seed,final_size,relative_size"
        assert len(lines) == 22
        assert self.run("survival", "--method", "analytic", "--degree-law", "3:1.0",
                        "--grid", "0,0.5,1", "--seed", "0", "--out", str(tmp_path)) == 0
        assert self.run("expansion", "--graph", edges, "--eps", "0.3", "--exact",
                        "--out", str(tmp_path)) == 1  # n=100 above exact cap
        assert self.run("expansion", "--graph", edges, "--eps", "0.3",
                        "--budget", "50", "--out", str(tmp_path)) == 0

    def test_bridges_and_percolate(self, tmp_path):
        graph = tmp_path / "p3.edges"
        graph.write_text("0 1\n1 2\n")
        assert self.run("bridges", "--graph", str(graph), "--vertex", "0", "--k", "2",
                        "--p", "0.5", "--trials", "200", "--seed", "3",
                        "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "bridges.json").read_text())["report"]
        assert abs(rep["pivotal_rate"] - 1.0) < 0.3
        assert self.run("percolate", "--graph", str(graph), "--p", "0.5",
                        "--seed", "1", "--out", str(tmp_path)) == 0

    def test_validation_exit_codes(self, tmp_path, capsys):
        assert self.run("generate", "--model", "cm", "--degrees", "3,1",
                        "--seed", "0", "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible_generator"
        assert self.run("oracle", "--graph", str(tmp_path / "nope.edges"),
                        "--vertex", "0", "--p", "0.5", "--out", str(tmp_path)) == 1

    def test_generate_motif_overlay(self, tmp_path):
        motifs = tmp_path / "motifs.json"
        motifs.write_text(json.dumps(
            {"3": [{"edges": [[0, 1], [1, 2], [0, 2]], "ext": [1, 1, 1], "p": 1.0}]}))
        assert self.run("generate", "--model", "motif-overlay",
                        "--external-model", "k-regular", "--d", "3", "--n", "20",
                        "--motifs", str(motifs), "--seed", "5",
                        "--out", str(tmp_path)) == 0
        meta = json.loads(next(tmp_path.glob("motif_overlay_*.json")).read_text())
        assert meta["n"] == 60

    def test_outbreak_negative_delta_rejected(self, tmp_path, capsys):
        graph = tmp_path / "p3.edges"
        graph.write_text("0 1\n1 2\n")
        assert self.run("outbreak", "--graph", str(graph), "--p", "0.5", "--trials", "3",
                        "--delta", "-1", "--out", str(tmp_path)) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_config"
        assert not (tmp_path / "outbreak.csv").exists()

    def test_lambda_flag(self, tmp_path):
        graph = tmp_path / "k3.edges"
        graph.write_text("0 1\n0 2\n1 2\n")
        assert self.run("giant", "--graph", str(graph), "--lambda", "1.0",
                        "--trials", "3", "--seed", "0", "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "giant.json").read_text())
        assert rep["p"] == 0.5

    def test_p_and_lambda_together_rejected(self, tmp_path, capsys):
        graph = tmp_path / "k3.edges"
        graph.write_text("0 1\n0 2\n1 2\n")
        assert self.run("estimate", "--graph", str(graph), "--p", "0.9", "--lambda", "1.0",
                        "--k", "1", "--q", "10", "--out", str(tmp_path)) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_config"
        assert not (tmp_path / "estimate.json").exists()

    def test_giant_writes_csv_and_json(self, tmp_path):
        assert self.run("giant", "--model", "k-regular", "--d", "3", "--n", "200",
                        "--p", "0.8", "--trials", "4", "--seed", "3",
                        "--out", str(tmp_path)) == 0
        lines = (tmp_path / "giant.csv").read_text().splitlines()
        assert lines[1] == "trial,giant_fraction" and len(lines) == 6
        rep = json.loads((tmp_path / "giant.json").read_text())
        assert rep["task"] == {"type": "giant", "p": 0.8, "trials": 4}
        assert 0.5 < rep["mean"] <= 1.0

    def test_experiment_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        assert self.run("experiment", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert all(t["status"] == "ok" for t in manifest["tasks"])

    def test_experiment_with_failed_task_exits_nonzero(self, tmp_path):
        data = small_config()
        data["tasks"] = [{"type": "expansion", "eps": 0.3, "exact": True}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert self.run("experiment", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")) == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTBREAK_LOCAL_THREADS", "2")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        assert self.run("experiment", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")) == 0


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        # the child imports the package this suite imported, installed or not
        src = str(Path(outbreak_local.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "outbreak_local.cli", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "outbreak-local/" in proc.stdout


def test_config_hash_stable():
    h = config_hash({"a": 1, "b": [1, 2]})
    assert h == config_hash({"b": [1, 2], "a": 1})
    assert len(h) == 16
