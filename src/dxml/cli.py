"""Command-line pipeline driver.

Subcommands: train, predict, evaluate, sweep-k, embed-labels.  Logs go to
stderr; data goes to stdout or the --out path.  Exit codes: 0 success,
1 usage error, 2 data or validation error, 3 internal error.

Every flag of a subcommand can also come from a ``key = value`` config file
passed with --config; explicit flags win over the file, the file wins over
defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from contextlib import contextmanager
from typing import IO, Any, Sequence

import numpy as np

from . import data_io, graph_embed, label_graph, label_projection, net, predictor
from .cluster import kmeans
from .errors import DataFormatError, DxmlError, PointError, ValidationError
from .metrics import evaluate
from .model_io import ModelArtifacts, load_model, save_model

__all__ = ["main", "cmd_train", "cmd_predict", "cmd_evaluate", "cmd_sweep_k", "cmd_embed_labels"]

log = logging.getLogger("dxml")

SCALE_DEFAULTS = {
    "small": {"embed_dim": 100, "hidden": 256, "clusters": 1},
    "large": {"embed_dim": 300, "hidden": 512, "clusters": 8},
}
DEFAULT_KS = (1, 3, 5)
_SWITCH_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class _UsageError(Exception):
    pass


def _config_path(args: Sequence[str]) -> str | None:
    """The --config value among a subcommand's arguments, found as argparse finds it."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--config")
    try:
        return probe.parse_known_args(args)[0].config
    except argparse.ArgumentError:
        return None  # a malformed --config is reported by the subcommand's own parse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's --config file is read as its own flags, placed before
        # the command line's so that an explicit flag wins.
        if "--config" in self._option_string_actions:
            path = _config_path(args)
            if path is not None:
                args = self._config_argv(path) + list(args)
        return super().parse_known_args(args, namespace)

    def _config_argv(self, path: str) -> list[str]:
        """Turn ``key = value`` lines into flags; a key is a flag's name, dashes or underscores."""
        actions = {
            opt.lstrip("-").replace("-", "_"): action
            for action in self._actions if action.dest not in ("help", "config")
            for opt in action.option_strings
        }
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            self.error(f"cannot read config file {path}: {exc}")
        given: dict[argparse.Action, list[str]] = {}  # the last line for a flag wins
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            where = f"{path}:{lineno}"
            if not sep:
                self.error(f"{where}: expected 'key = value', got {raw.strip()!r}")
            action = actions.get(key.replace("-", "_"))
            if action is None:
                self.error(f"{where}: unknown config key {key!r}")
            flag = action.option_strings[-1]
            if action.nargs == 0:  # a switch is given or not
                if value.lower() not in _SWITCH_VALUES:
                    self.error(f"{where}: config key {key!r}: expected true/1/yes or false/0/no, "
                               f"got {value!r}")
                given[action] = [flag] if _SWITCH_VALUES[value.lower()] else []
                continue
            try:
                self._get_values(action, [value])  # the flag's own type and choices
            except argparse.ArgumentError as exc:
                self.error(f"{where}: config key {key!r}: {exc.message}")
            given[action] = [f"{flag}={value}"]
        return [arg for argv in given.values() for arg in argv]


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"list must contain positive integers, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"list contains duplicates: {text!r}")
    return values


def _seed(text: str) -> int:
    """A master seed: numpy's SeedSequence takes non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _fields(args: argparse.Namespace, prefix: str) -> dict[str, Any]:
    """The config fields given by flags whose dest is ``prefix.field``; the rest keep their defaults."""
    return {
        dest[len(prefix) + 1:]: value for dest, value in vars(args).items()
        if dest.startswith(prefix + ".") and value is not None
    }


def _validated(config):
    try:
        config.validate()
    except ValidationError as exc:
        raise _UsageError(str(exc)) from None
    return config


def _derived_seeds(master: int) -> dict[str, int]:
    children = np.random.SeedSequence(master).spawn(3)
    names = ("deepwalk", "net", "kmeans")
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}


@contextmanager
def _stage(name: str, timings: list[tuple[str, float]]):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    timings.append((name, dt))
    log.info("[%s] %.2fs", name, dt)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


# ── train ────────────────────────────────────────────────────────────────────


def _resolve_deepwalk(args: argparse.Namespace) -> tuple[dict[str, int], graph_embed.DeepWalkConfig]:
    """(derived seeds, validated DeepWalk config); --scale fills the dim a flag did not set."""
    seeds = _derived_seeds(args.seed)
    deepwalk = graph_embed.DeepWalkConfig(**{
        "dim": SCALE_DEFAULTS[args.scale]["embed_dim"],
        **_fields(args, "deepwalk"),
        "rng_seed": seeds["deepwalk"],
    })
    return seeds, _validated(deepwalk)


def _label_graph(args: argparse.Namespace, dataset: data_io.Dataset) -> label_graph.LabelGraph:
    """Read the graph from --graph-file or build it; write it to --export-graph if given."""
    if args.graph_file:
        with data_io.open_text(args.graph_file) as fh:
            graph = label_graph.read_adjacency(fh, dataset.num_labels)
    else:
        graph = label_graph.build_label_graph(dataset)
    if args.export_graph:
        with open(args.export_graph, "w", encoding="utf-8", newline="\n") as fh:
            label_graph.write_adjacency(graph, fh)
    return graph


def _resolve_train(args: argparse.Namespace):
    seeds, deepwalk = _resolve_deepwalk(args)
    train_cfg = _validated(net.TrainConfig(**_fields(args, "net"), rng_seed=seeds["net"]))
    preset = SCALE_DEFAULTS[args.scale]
    resolved = {
        "scale": args.scale,
        "seed": args.seed,
        "seeds": seeds,
        "normalize_features": args.normalize,
        "normalize_targets": args.normalize_targets,
        "hidden": preset["hidden"] if args.hidden is None else args.hidden,
        "clusters": preset["clusters"] if args.clusters is None else args.clusters,
    }
    if resolved["hidden"] < 1 or resolved["clusters"] < 1:
        raise _UsageError("hidden and clusters must be >= 1")
    return resolved, deepwalk, train_cfg


def cmd_train(args: argparse.Namespace) -> int:
    resolved, deepwalk_cfg, train_cfg = _resolve_train(args)
    if args.dry_run:
        plan = {
            "input": args.train_file,
            "model_out": args.model_out,
            "stages": [
                "parse + normalize features",
                "build label co-occurrence graph",
                "embed labels by random walks + skip-gram",
                "project label targets",
                "train embedding network",
                "cluster embedded training points",
                "write model file",
            ],
            "settings": {
                **resolved,
                "deepwalk": dataclasses.asdict(deepwalk_cfg),
                "net": dataclasses.asdict(train_cfg),
            },
        }
        print(json.dumps(plan, indent=2, sort_keys=True))
        return 0

    timings: list[tuple[str, float]] = []
    total0 = time.perf_counter()
    with _stage("load training data", timings):
        dataset = data_io.load_repo_file(args.train_file)
        dataset = data_io.normalize_features(dataset, resolved["normalize_features"])
    log.info(
        "loaded %d points, %d features, %d labels",
        dataset.num_points, dataset.num_features, dataset.num_labels,
    )

    with _stage("label graph", timings):
        graph = _label_graph(args, dataset)
    log.info("graph: %d nodes, %d edges", graph.num_nodes, graph.num_edges)

    with _stage("label embeddings", timings):
        embeddings = graph_embed.embed_labels(graph, deepwalk_cfg)

    with _stage("label targets", timings):
        targets, rows, skipped = label_projection.project_targets(
            embeddings, dataset, normalize=resolved["normalize_targets"]
        )
    if rows.size == 0:
        raise ValidationError("training file has no labeled points")
    # The float64 label vectors have served their purpose: keep them as the
    # float32 the model file stores (the same bytes), at half the memory.
    embeddings = graph_embed.EmbeddingMatrix(embeddings.values.astype(np.float32))

    xs = dataset.features.take(rows)
    try:  # name a failing point by its place in the file, not among the labeled points
        with _stage("network training", timings):
            mlp = net.train_embedding_net(
                xs, targets, dataset.num_features, train_cfg, resolved["hidden"]
            )
        with _stage("clustering", timings):
            train_embeds = net.embed_points(mlp, xs)
            clusters = kmeans(
                train_embeds, resolved["clusters"], rng_seed=resolved["seeds"]["kmeans"]
            )
    except PointError as exc:
        raise exc.renumbered(rows) from None

    with _stage("write model", timings):
        artifacts = ModelArtifacts(
            label_embeddings=embeddings,
            mlp=mlp,
            clusters=clusters,
            train_embeds=train_embeds,
            train_labels=dataset.label_sets(rows),
            meta={
                "scale": resolved["scale"],
                "seed": resolved["seed"],
                "seeds": resolved["seeds"],
                "normalize_features": resolved["normalize_features"],
                "normalize_targets": resolved["normalize_targets"],
                "deepwalk": dataclasses.asdict(deepwalk_cfg),
                "train": dataclasses.asdict(train_cfg),
                "counts": {
                    "input_points": dataset.num_points,
                    "unlabeled_skipped": skipped,
                },
            },
        )
        save_model(artifacts, args.model_out)
    for name, dt in timings:
        log.info("timing %-22s %8.2fs", name, dt)
    log.info("total %.2fs, model written to %s", time.perf_counter() - total0, args.model_out)
    return 0


# ── predict ──────────────────────────────────────────────────────────────────


def _load_test_for_model(artifacts: ModelArtifacts, path: str) -> data_io.Dataset:
    test = data_io.load_repo_file(path)
    if test.num_features != artifacts.mlp.input_dim:
        raise ValidationError(
            f"test file has {test.num_features} features, model expects {artifacts.mlp.input_dim}"
        )
    if test.num_labels != artifacts.label_embeddings.count:
        raise ValidationError(
            f"test file has {test.num_labels} labels, model expects {artifacts.label_embeddings.count}"
        )
    return data_io.normalize_features(test, artifacts.meta.get("normalize_features", "none"))


def _write_predictions(preds: Sequence[dict[int, float]], stream: IO[str]) -> None:
    for scores in preds:
        labels, values = predictor.rank_scores(scores)
        pairs = zip(labels.tolist(), values.tolist())
        stream.write("\t".join(f"{label}:{score!r}" for label, score in pairs) + "\n")


def cmd_predict(args: argparse.Namespace) -> int:
    if args.k < 1 or args.threads < 1:  # threads is checked, then unused: the search is one thread
        raise _UsageError("k and threads must be >= 1")
    artifacts = load_model(args.model)
    test = _load_test_for_model(artifacts, args.test_file)
    t0 = time.perf_counter()
    preds = predictor.predict_batch(
        artifacts.mlp, artifacts.clusters, artifacts.train_embeds, artifacts.train_labels,
        test.features, k=args.k, weighting=args.weighting,
    )
    log.info("predicted %d points in %.2fs", len(preds), time.perf_counter() - t0)
    stream, owned = _open_out(args.out)
    try:
        _write_predictions(preds, stream)
    finally:
        if owned:
            stream.close()
    return 0


# ── evaluate ─────────────────────────────────────────────────────────────────


def _read_predictions(path: str, num_points: int, num_labels: int) -> list[dict[int, float]]:
    maps: list[dict[int, float]] = []
    with data_io.open_text(path) as fh:
        lineno = 0
        for raw in fh:
            lineno += 1
            line = raw.rstrip("\r\n")
            if len(maps) == num_points:
                if line.strip() == "":
                    continue
                raise DataFormatError(f"expected {num_points} prediction lines", line=lineno)
            scores: dict[int, float] = {}
            if line.strip():
                for tok in line.split("\t"):
                    label_s, sep, score_s = tok.partition(":")
                    if not sep:
                        raise DataFormatError(f"malformed prediction token {tok!r}", line=lineno)
                    try:
                        label, score = int(label_s), float(score_s)
                    except ValueError:
                        raise DataFormatError(
                            f"malformed prediction token {tok!r}", line=lineno
                        ) from None
                    if not 0 <= label < num_labels:
                        raise DataFormatError(
                            f"label {label} outside [0, {num_labels})", line=lineno
                        )
                    if label in scores:
                        raise DataFormatError(f"duplicate label {label}", line=lineno)
                    scores[label] = score
            maps.append(scores)
    if len(maps) < num_points:
        raise DataFormatError(
            f"expected {num_points} prediction lines, found {len(maps)}", line=lineno + 1
        )
    return maps


def cmd_evaluate(args: argparse.Namespace) -> int:
    test = data_io.load_repo_file(args.test_file)
    maps = _read_predictions(args.predictions, test.num_points, test.num_labels)
    report = evaluate(maps, test, ks=args.ks, skip_unlabeled=args.skip_unlabeled)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.format_kv())
    return 0


# ── sweep-k ──────────────────────────────────────────────────────────────────


def cmd_sweep_k(args: argparse.Namespace) -> int:
    grid, ks = args.k_grid, args.ks
    artifacts = load_model(args.model)
    test = _load_test_for_model(artifacts, args.validation_file)

    # One search at max k; each smaller k reads a prefix of the neighbors.
    per_point = predictor.knn_batch(
        artifacts.clusters, artifacts.train_embeds,
        net.embed_points(artifacts.mlp, test.features), max(grid),
    )

    reports: dict[int, Any] = {}
    for k in grid:
        maps = predictor.score_neighbors(
            artifacts.clusters, artifacts.train_labels,
            [(ids[:k], dists[:k]) for ids, dists in per_point], args.weighting,
        )
        reports[k] = evaluate(maps, test, ks=ks, skip_unlabeled=args.skip_unlabeled)

    header = f"{'k':>6}" + "".join(f"  {'P@' + str(x):>8}" for x in ks)
    header += "".join(f"  {'nDCG@' + str(x):>8}" for x in ks)
    print(header)
    print("-" * len(header))
    for k in grid:
        rep = reports[k]
        row = f"{k:>6}"
        row += "".join(f"  {100.0 * rep.precision[x]:>8.2f}" for x in ks)
        row += "".join(f"  {100.0 * rep.ndcg[x]:>8.2f}" for x in ks)
        print(row)
    best_lines = []
    for metric, getter in (("P", "precision"), ("nDCG", "ndcg")):
        for x in ks:
            best = min(grid, key=lambda k: (-getattr(reports[k], getter)[x], k))
            best_lines.append(f"best_k_{metric}@{x}={best}")
    print("\n".join(best_lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(best_lines) + "\n")
    return 0


# ── embed-labels ─────────────────────────────────────────────────────────────


def cmd_embed_labels(args: argparse.Namespace) -> int:
    _, cfg = _resolve_deepwalk(args)
    dataset = data_io.load_repo_file(args.train_file)
    embeddings = graph_embed.embed_labels(_label_graph(args, dataset), cfg)
    stream, owned = _open_out(args.out)
    try:
        graph_embed.write_embeddings_text(embeddings, stream)
    finally:
        if owned:
            stream.close()
    return 0


# ── parser ───────────────────────────────────────────────────────────────────


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="key = value file of these flags; flags win")


# A flag whose dest is "deepwalk.<field>" or "net.<field>" sets that field of
# DeepWalkConfig or TrainConfig; a flag left unset keeps the dataclass default.
def _add_label_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scale", choices=("small", "large"), default="small",
                     help="size preset: embedding dim, hidden width, cluster count")
    sub.add_argument("--seed", type=_seed, default=0, help="master seed, >= 0; stage seeds derive from it")
    sub.add_argument("--embed-dim", type=int, dest="deepwalk.dim", metavar="N",
                     help="label embedding dimension")
    sub.add_argument("--walks-per-node", type=int, dest="deepwalk.walks_per_node", metavar="N",
                     help="random walks started per label")
    sub.add_argument("--walk-length", type=int, dest="deepwalk.walk_length", metavar="N",
                     help="steps per walk")
    sub.add_argument("--window", type=int, dest="deepwalk.window", metavar="N",
                     help="skip-gram context window")
    sub.add_argument("--negatives", type=int, dest="deepwalk.negative_samples", metavar="N",
                     help="negative samples per pair")
    sub.add_argument("--embed-epochs", type=int, dest="deepwalk.epochs", metavar="N",
                     help="skip-gram epochs over the corpus")
    sub.add_argument("--embed-lr", type=float, dest="deepwalk.initial_learning_rate", metavar="X",
                     help="initial skip-gram learning rate")
    sub.add_argument("--embed-min-lr", type=float, dest="deepwalk.min_learning_rate", metavar="X",
                     help="floor of the decayed rate")
    sub.add_argument("--weighted-walks", action="store_true", dest="deepwalk.weighted_walks",
                     default=None, help="step proportionally to co-occurrence counts")
    sub.add_argument("--graph-file", metavar="FILE",
                     help="read the label graph from an edge list instead of building it")
    sub.add_argument("--export-graph", metavar="FILE", help="also write the edge list here")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dxml", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    subs = parser.add_subparsers(dest="command", required=True)

    tr = subs.add_parser("train", help="fit a model from a labeled training file")
    tr.add_argument("train_file")
    tr.add_argument("--model-out", required=True, metavar="FILE")
    tr.add_argument("--normalize", choices=("none", "unit_l2"), default="unit_l2",
                    help="per-point feature scaling")
    tr.add_argument("--no-target-norm", action="store_false", dest="normalize_targets",
                    help="skip unit-norm scaling of label targets")
    tr.add_argument("--hidden", type=int, help="hidden layer width")
    tr.add_argument("--clusters", type=int, help="k-means cluster count")
    tr.add_argument("--epochs", type=int, dest="net.epochs", metavar="N",
                    help="network training epochs")
    tr.add_argument("--lr", type=float, dest="net.learning_rate", metavar="X",
                    help="SGD learning rate")
    tr.add_argument("--momentum", type=float, dest="net.momentum", metavar="X")
    tr.add_argument("--weight-decay", type=float, dest="net.weight_decay", metavar="X")
    tr.add_argument("--dropout", type=float, dest="net.dropout_rate", metavar="X",
                    help="dropout rate on the output layer")
    tr.add_argument("--batch-size", type=int, dest="net.minibatch_size", metavar="N")
    tr.add_argument("--dry-run", action="store_true", help="print the plan and stop")
    _add_label_flags(tr)
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    pr = subs.add_parser("predict", help="write ranked label scores for a test file")
    pr.add_argument("model")
    pr.add_argument("test_file")
    pr.add_argument("-k", type=int, default=10, help="neighbors consulted per point")
    pr.add_argument("--weighting", choices=("uniform", "inverse_distance"), default="uniform")
    pr.add_argument("--threads", type=int, default=1,
                    help="accepted and unused; the search runs in one thread")
    pr.add_argument("--out", metavar="FILE", help="predictions path, default stdout")
    _add_common(pr)
    pr.set_defaults(func=cmd_predict)

    ev = subs.add_parser("evaluate", help="score a predictions file against labels")
    ev.add_argument("predictions")
    ev.add_argument("test_file")
    ev.add_argument("--ks", type=_int_list, default=DEFAULT_KS,
                    help="comma-separated ranks, default 1,3,5")
    ev.add_argument("--skip-unlabeled", action="store_true",
                    help="drop unlabeled test points instead of counting zeros")
    ev.add_argument("--out", metavar="FILE", help="also write key=value metrics here")
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    sw = subs.add_parser("sweep-k", help="evaluate a grid of neighbor counts")
    sw.add_argument("model")
    sw.add_argument("validation_file")
    sw.add_argument("--k-grid", type=_int_list, required=True,
                    help="comma-separated candidate k values")
    sw.add_argument("--ks", type=_int_list, default=DEFAULT_KS,
                    help="ranks to report, default 1,3,5")
    sw.add_argument("--weighting", choices=("uniform", "inverse_distance"), default="uniform")
    sw.add_argument("--skip-unlabeled", action="store_true")
    sw.add_argument("--out", metavar="FILE", help="write best_k lines here")
    _add_common(sw)
    sw.set_defaults(func=cmd_sweep_k)

    em = subs.add_parser("embed-labels", help="run only the label-embedding stages")
    em.add_argument("train_file")
    em.add_argument("--out", metavar="FILE", help="embedding text path, default stdout")
    _add_label_flags(em)
    _add_common(em)
    em.set_defaults(func=cmd_embed_labels)
    return parser


def _setup_logging(args: argparse.Namespace) -> None:
    level = logging.INFO
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s", force=True)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _setup_logging(args)
    try:
        return int(args.func(args) or 0)
    except _UsageError as exc:
        log.error("usage error: %s", exc)
        return 1
    except (DxmlError, OSError) as exc:  # data, validation and model-file errors
        log.error("error: %s", exc)
        return 2
    except Exception:
        log.exception("internal error")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
