"""Command-line front end. Every subcommand writes CSV/JSON artifacts with
embedded provenance and exits 0 on success, 1 on validation errors, 2 on
runtime failures; errors are printed to stderr as one JSON object."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .generators import GeneratorError, GenSpec
from .graph import ExpansionCapError, GraphError, load_edge_list, save_edge_list
from .harness import (
    ConfigError,
    ExperimentConfig,
    _provenance,
    config_hash,
    run_experiment,
    run_task,
    validate_task,
    write_csv,
    write_json,
)
from .oracle import OracleCapError, exact_outbreak_distribution, exact_zeta_k
from .percolation import FixedPointError, percolate
from .parallel import resolve_threads
from .seeds import substream_seed

# Error code and exit status per exception class; an exception takes the
# entry of its nearest listed base class.
ERRORS = {
    ConfigError: ("invalid_config", 1),
    GeneratorError: ("infeasible_generator", 1),
    GraphError: ("invalid_graph", 1),
    OracleCapError: ("oracle_cap_exceeded", 1),
    ExpansionCapError: ("expansion_cap_exceeded", 1),
    json.JSONDecodeError: ("invalid_json", 1),
    ValueError: ("invalid_value", 1),
    KeyError: ("missing_parameter", 1),
    FileNotFoundError: ("missing_file", 1),
    FixedPointError: ("nonconvergence", 2),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_degrees(text: str) -> np.ndarray:
    """Degree sequence like '3x100000' or '3,3,4,1' (tokens may mix)."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if "x" in token:
            d, count = token.split("x")
            out.extend([int(d)] * int(count))
        elif token:
            out.append(int(token))
    if not out:
        raise ValueError(f"empty degree sequence: {text!r}")
    return np.asarray(out, dtype=np.int64)


def parse_p(text: str):
    """Probability as a float or an exact fraction 'a/b'."""
    if "/" in text:
        return Fraction(text)
    return float(text)


def parse_degree_law(text: str) -> dict:
    """Degree law like '3:1.0' or '1:0.2,4:0.8'."""
    law = {}
    for token in text.split(","):
        k, w = token.split(":")
        law[int(k)] = float(w)
    return law


def parse_grid(text: str) -> list:
    """Comma-separated p values, e.g. '0,0.5,1'."""
    return [float(x) for x in text.split(",")]


def _gen_spec_from_args(args, seed: int, model: str | None = None) -> GenSpec:
    """The spec of --model, or of `model` (a motif overlay's external model)."""
    model = (model or args.model).replace("-", "_")
    if model == "cm":
        params = {"degrees": parse_degrees(args.degrees).tolist()}
    elif model in ("k_regular", "two_block"):
        params = {"d": args.d, "n": args.n}
    elif model == "pa":
        params = {"m": args.m, "n": args.n}
    elif model == "motif_overlay":
        data = json.loads(Path(args.motifs).read_text())
        if not args.external_model:
            raise ValueError("motif overlays need --external-model")
        external = _gen_spec_from_args(args, substream_seed(seed, "external"),
                                       args.external_model)
        params = {"external": external.to_json_dict(), "motifs": data}
    else:
        raise ValueError(f"unknown model {args.model!r}")
    return GenSpec(model=model, params=params, seed=seed)


def _load_or_generate(args, seed: int):
    if args.graph:
        g = load_edge_list(args.graph)
        return g, {"graph_file": str(args.graph)}
    if args.model:
        spec = _gen_spec_from_args(args, substream_seed(seed, "generate"))
        return spec.build(), {"gen_spec_hash": spec.content_hash()}
    raise ValueError("give --graph FILE or --model with its parameters")


def _shared_parser() -> argparse.ArgumentParser:
    """The graph source and the common flags of every subcommand but
    `experiment`; none of them is a task field."""
    sub = argparse.ArgumentParser(add_help=False)
    sub.add_argument("--graph", help="edge-list file (one 'u v' per line)")
    sub.add_argument("--model", choices=["cm", "k-regular", "pa", "two-block", "motif-overlay"])
    sub.add_argument("--degrees", help="degree sequence, e.g. 3x100000 or 3,3,4")
    sub.add_argument("--d", type=int, help="regular degree")
    sub.add_argument("--n", type=int, help="vertex count")
    sub.add_argument("--m", type=int, help="attachment out-degree")
    sub.add_argument("--motifs", help="motif distribution JSON file")
    sub.add_argument("--external-model", choices=["cm", "k-regular", "pa"],
                     help="external model for motif overlays")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: OUTBREAK_LOCAL_THREADS or 1)")
    sub.add_argument("--out", default=".", help="output directory")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="outbreak-local", description=__doc__)
    parser.add_argument("--version", action="version", version=f"outbreak-local/{__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    shared = _shared_parser()

    def command(name, text, task_type=None):
        s = subs.add_parser(name, parents=[shared], help=text)
        if task_type:  # every option past the shared ones is a field of the task
            s.set_defaults(type=task_type)
        return s

    command("generate", "generate a graph and write its edge list")

    s = command("percolate", "one Bernoulli(p) edge mask")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--trial", type=int, default=0)

    s = command("outbreak", "single-seed outbreak size histogram", "histogram")
    s.add_argument("--p", type=float)
    s.add_argument("--lambda", type=float, help="transmission rate; p = l/(l+1)")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--delta", type=float, default=0.05)
    s.add_argument("--zeta-ref", type=float, default=None)

    s = command("giant", "giant-component fraction over percolation trials", "giant")
    s.add_argument("--p", type=float)
    s.add_argument("--lambda", type=float)
    s.add_argument("--trials", type=int, required=True)

    s = command("estimate", "local ball-query estimator", "estimate")
    s.add_argument("--p", type=float)
    s.add_argument("--lambda", type=float)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--degree-biased", action="store_true")
    s.add_argument("--count-others-only", dest="count_seed", action="store_false",
                   help="require k infected besides the seed")

    s = command("survival", "zeta over a p grid", "survival")
    s.add_argument("--grid", type=parse_grid, required=True, help="comma-separated p values")
    s.add_argument("--method", choices=["analytic", "empirical"], default="analytic")
    s.add_argument("--degree-law", type=parse_degree_law,
                   help="analytic degree law, e.g. 3:1.0")
    s.add_argument("--trials", type=int, default=20)

    s = command("expansion", "large-set expansion report", "expansion")
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--mode", choices=["edge", "vertex"], default="edge")
    s.add_argument("--exact", action="store_true")
    s.add_argument("--budget", type=int, default=2000)

    s = command("bridges", "pivotal-edge / k-bridge diagnostics", "bridges")
    s.add_argument("--vertex", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)

    s = command("oracle", "exact tiny-graph laws by mask enumeration")
    s.add_argument("--vertex", type=int, help="single source vertex")
    s.add_argument("--seeds", help="comma-separated seed vertices")
    s.add_argument("--p", required=True, help="float or exact fraction a/b")
    s.add_argument("--zeta-k", type=int, default=None,
                   help="also report P(C(v) reaches distance >= k)")

    s = subs.add_parser("experiment", help="run a task list from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None, help="override master_seed")
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--out", default=".", help="output directory")
    return parser


def vars_for_hash(args) -> dict:
    skip = {"threads", "out", "command"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _cmd_generate(args, out: Path, threads: int) -> None:
    spec = _gen_spec_from_args(args, substream_seed(args.seed, "generate"))
    g = spec.build()
    path = out / f"{spec.model}_{spec.content_hash()}.edges"
    save_edge_list(g, path, comments=[
        f"model={spec.model} seed={args.seed} spec_hash={spec.content_hash()} "
        f"n={g.n} m={g.m} erased={g.meta.get('erased', False)}"
    ])
    write_json(out / (path.stem + ".json"), {
        "provenance": _provenance(spec.content_hash(), args.seed),
        "gen": spec.to_json_dict(), "n": g.n, "m": g.m, "meta": g.meta,
    })
    print(path)


def _cmd_percolate(args, out: Path, threads: int) -> None:
    g, src = _load_or_generate(args, args.seed)
    mask = percolate(g, args.p, args.seed, args.trial)
    prov = _provenance(config_hash(vars_for_hash(args)), args.seed, src)
    path = out / f"mask_p{args.p}_t{args.trial}.csv"
    write_csv(path, ["edge_id", "u", "v", "open"],
              [(e, int(u), int(v), int(b)) for e, ((u, v), b)
               in enumerate(zip(g.edges, mask.bits))], prov)
    print(path)


def _cmd_task(args, out: Path, threads: int) -> None:
    """One task through the experiment runner's table, seeded with --seed,
    written under the subcommand's fixed file stem."""
    shared = set(vars(_shared_parser().parse_args([]))) | {"command"}
    task = {k: v for k, v in vars(args).items() if k not in shared and v is not None}
    validate_task(task, 0)
    if task["type"] == "survival" and task["method"] == "analytic":
        law = ",".join(f"{k}:{w}" for k, w in task["degree_law"].items())
        g, src = None, {"degree_law": law}
    else:
        g, src = _load_or_generate(args, args.seed)
    stem = f"survival_{task['method']}" if task["type"] == "survival" else args.command
    prov = _provenance(config_hash(vars_for_hash(args)), args.seed, src)
    print(run_task(g, task, stem, args.seed, out, prov, threads)[0])


def _cmd_oracle(args, out: Path, threads: int) -> None:
    g, src = _load_or_generate(args, args.seed)
    p = parse_p(args.p)
    if args.seeds:
        seeds = [int(x) for x in args.seeds.split(",")]
    elif args.vertex is not None:
        seeds = [args.vertex]
    else:
        raise ValueError("give --vertex or --seeds")
    law = exact_outbreak_distribution(g, seeds, p)
    payload = {
        "provenance": _provenance(config_hash(vars_for_hash(args)), args.seed, src),
        "p": str(p), "seeds": seeds, "rational": law.rational,
        "law": {str(v): float(q) for v, q in zip(law.support, law.probabilities)},
    }
    if law.rational:
        payload["law_exact"] = {str(v): f"{q.numerator}/{q.denominator}"
                                for v, q in zip(law.support, law.probabilities)}
    if args.zeta_k is not None:
        z = exact_zeta_k(g, seeds[0], args.zeta_k, p)
        payload["zeta_k"] = float(z)
    path = out / "oracle.json"
    write_json(path, payload)
    print(json.dumps(payload["law"], sort_keys=True))


def _cmd_experiment(args) -> None:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = ExperimentConfig.from_dict(dict(config.raw, master_seed=args.seed))
    threads = resolve_threads(args.threads)
    manifest = run_experiment(config, args.out, threads)
    failed = [t for t in manifest["tasks"] if t["status"] != "ok"]
    print(Path(args.out) / "manifest.json")
    if failed:
        raise RuntimeError(f"{len(failed)} task(s) failed; see manifest.json")


_COMMANDS = {
    "generate": _cmd_generate,
    "percolate": _cmd_percolate,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "experiment":
            _cmd_experiment(args)
        else:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            threads = resolve_threads(args.threads)
            _COMMANDS.get(args.command, _cmd_task)(args, out, threads)
        return 0
    except Exception as exc:
        code, status = next((ERRORS[cls] for cls in type(exc).__mro__ if cls in ERRORS),
                            ("runtime_error", 2))
        print(json.dumps({"error": code, "message": str(exc)}), file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
