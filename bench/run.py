#!/usr/bin/env python3
"""dxml benchmark: train, batch predict, single queries and sweep-k, end to end.

    python3 bench/run.py --workload bibtex-m1 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The benchmark generates a seeded
dataset (``bench/gen.py``), then runs each phase as its own child process
through the real ``dxml`` CLI (``python3 -m dxml.cli`` with ``src`` on
PYTHONPATH), measuring wall time and peak RSS (``os.wait4`` in
``bench/launcher.py``).  The phases run in rounds, repeated until
``--seconds`` are used up, and each timing metric is the median of its
repetitions.  Every output is recomputed by an independent oracle
(``bench/oracle.py``).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each phase runs twice, untraced and then traced (``bench/tracer.py`` wraps
every public function of every dxml module from outside), and the metrics
are per layer; the wall-time difference is the tracing overhead.

All load comes from one process with one client: ``predict --threads 1``
and BLAS threads pinned to min(2, nproc).
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path[:0] = [HERE, SRC]  # the oracle loads models with this checkout's dxml

PREDICT_K = 10  # batch predict: the CLI's default k and uniform vote; gives P@k
LOOP_K = 100  # single queries and sweep-k: a large k, inverse-distance vote
LOOP_WEIGHTING = "inverse_distance"
HEAD_POINTS = 100  # the closed loop and sweep-k run on the first HEAD_POINTS test points
LOOP_SHARE = 0.02  # each round's closed loop runs this share of --seconds, whole passes
SWEEP_GRID = (1, 5, 10, 20, 50, 100)
KS = (1, 3, 5)
# On a shared 2-core machine the same work runs up to 1.7 times slower under
# the load of other tenants, changing from one second to the next and, in
# busy stretches, for minutes.  So each timing metric is the median of many
# repetitions of the same work, spread evenly over the run: the run repeats
# short rounds of every phase until --seconds are used up.
MIN_ROUNDS = 3  # round r trains with --seed r % MIN_ROUNDS; a traced run makes exactly this many
PREDICTS = 2  # batch predicts per round, one before and one after the closed loop
PARTS = PREDICTS * MIN_ROUNDS  # the test set is cut into this many parts for batch predict
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    shape: str  # a key of gen.SHAPES
    train_flags: tuple[str, ...]


# Why each workload exists.  Every round trains a model, sets up again, batch
# predicts two parts of the test set with a closed loop of single-point
# predicts on the head of the test set between them, and (first rounds only)
# runs sweep-k on that head; evaluate scores the batch predictions of the
# first rounds, which cover the test set once.  The shapes and presets make
# different layers carry the cost.
WORKLOADS = {
    # Bibtex shape, --scale small, one cluster.  Skip-gram's per-pair Python
    # loop and the per-point loops of net.loss_and_gradients carry train_s;
    # every query scans all training points, so predictor.knn_search carries
    # predict_pts_per_s and the query latencies; aggregate_labels and
    # metrics.evaluate do their most work in the single queries and sweep-k.
    # Walks and epochs are cut so that a round takes about seven seconds.
    "bibtex-m1": Workload("bibtex", ("--scale", "small", "--walks-per-node", "1",
                                     "--embed-epochs", "1", "--epochs", "1")),
    # Wide shape, --scale large (dim 300, H 512, m 8).  The dense d x H
    # momentum update in net.sgd_step, k-means and parsing carry train_s and
    # the k-means temporaries its peak RSS; each query is routed to one of
    # eight clusters, so forward, routing and parsing weigh more in predict.
    # Walks are cut so skip-gram is a small share, and epochs so that a round
    # takes about seven seconds.
    "wide-m8": Workload("wide", ("--scale", "large", "--walks-per-node", "1", "--walk-length",
                                 "4", "--window", "2", "--embed-epochs", "1", "--epochs", "1")),
}

# Gated end-to-end metrics, with their units.
END_TO_END = {
    "setup_s": "s", "train_s": "s", "predict_pts_per_s": "pts/s", "query_p50_ms": "ms",
    "train_peak_rss_mb": "MB", "predict_peak_rss_mb": "MB",
    "p_at_1": "%", "p_at_3": "%", "p_at_5": "%", "ndcg_at_5": "%",
}
# Printed but not gated.  A p99 is made of the slowest moments of the run,
# and sweep-k runs only in three rounds; across ten seeds their spread has
# reached the largest bound (0.25) a metric may have.
PRINTED = {"query_p99_ms": "ms", "sweep_s": "s"}

# Per-layer metric -> (unit, kind, source span).  kind is "s" (inclusive
# seconds), "self_s", "calls", a tracer counter, or a trace-wide quantity.
PER_LAYER = {
    "graph_embed.fit_skipgram.s": ("s", "s", "graph_embed.fit_skipgram"),
    "graph_embed.generate_walks.s": ("s", "s", "graph_embed.generate_walks"),
    "graph_embed.skipgram_tokens": ("count", "graph_embed.skipgram_tokens",
                                    "graph_embed.fit_skipgram"),
    "net.loss_and_gradients.self_s": ("s", "self_s", "net.loss_and_gradients"),
    "net.loss_and_gradients.calls": ("count", "calls", "net.loss_and_gradients"),
    "net.sgd_step.self_s": ("s", "self_s", "net.sgd_step"),
    "net.train_embedding_net.s": ("s", "s", "net.train_embedding_net"),
    "net.embed_points.s": ("s", "s", "net.embed_points"),
    "cluster.kmeans.s": ("s", "s", "cluster.kmeans"),
    "cluster.kmeans.iters": ("count", "cluster.kmeans.iters", "cluster.kmeans"),
    "predictor.knn_search.self_s": ("s", "self_s", "predictor.knn_search"),
    "predictor.knn_search.calls": ("count", "calls", "predictor.knn_search"),
    "predictor.rows_scanned": ("count", "predictor.rows_scanned", "predictor.knn_search"),
    "predictor.rows_per_neighbor": ("rows/nbr", "rows_per_neighbor", "predictor.knn_search"),
    "predictor.knn_shortfall": ("count", "predictor.knn_shortfall", "predictor.knn_search"),
    "net.forward.self_s": ("s", "self_s", "net.forward"),
    "net.forward.calls": ("count", "calls", "net.forward"),
    "cluster.nearest_cluster.self_s": ("s", "self_s", "cluster.nearest_cluster"),
    "predictor.aggregate_labels.self_s": ("s", "self_s", "predictor.aggregate_labels"),
    "predictor.top_p.self_s": ("s", "self_s", "predictor.top_p"),
    "predictor.predict.self_s": ("s", "self_s", "predictor.predict"),
    "metrics.evaluate.s": ("s", "s", "metrics.evaluate"),
    "metrics.evaluate.calls": ("count", "calls", "metrics.evaluate"),
    "data_io.load_repo_file.s": ("s", "s", "data_io.load_repo_file"),
    "data_io.normalize_features.s": ("s", "s", "data_io.normalize_features"),
    "label_graph.build_label_graph.s": ("s", "s", "label_graph.build_label_graph"),
    "label_projection.project_targets.s": ("s", "s", "label_projection.project_targets"),
    "model_io.save_model.s": ("s", "s", "model_io.save_model"),
    "model_io.load_model.s": ("s", "s", "model_io.load_model"),
    "model_io.model_bytes": ("bytes", "model_io.model_bytes", "model_io.save_model"),
    "cli.train.self_s": ("s", "self_s", "cli.train"),
    "cli.predict.self_s": ("s", "self_s", "cli.predict"),
    "cli.sweep-k.self_s": ("s", "self_s", "cli.sweep-k"),
    "process.startup_s": ("s", "startup_s", None),
    "trace.overhead_s": ("s", "overhead_s", None),
    "trace.unattributed_s": ("s", "unattributed_s", None),
}


@dataclass
class Phase:
    name: str
    wall_s: float
    rss_mb: float
    code: int
    out: str
    err: str
    spans: dict | None = None


class Launcher:
    """Client of ``launcher.py``, the small process that starts every phase."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], cwd: str, stdout: str, stderr: str) -> dict:
        env = dict(os.environ, DXML_BENCH_SRC=SRC)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        request = {"cmd": cmd, "cwd": cwd, "env": env, "stdout": stdout, "stderr": stderr,
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: str
    launcher: Launcher
    wl: Workload
    phases: dict[str, Phase] = field(default_factory=dict)
    untraced: dict[str, Phase] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def run_child(run: Run, name: str, argv: list[str], traced: bool) -> Phase:
    """Run one phase process; record its wall time and peak RSS."""
    stem = run.path(name + (".traced" if traced else ""))
    spans = stem + ".spans.json"
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--spans", spans] + argv
    elif argv[0] == "cli":
        cmd = [sys.executable, "-m", "dxml.cli"] + argv[1:]
    else:
        cmd = [sys.executable, os.path.join(HERE, "child.py")] + argv
    reply = run.launcher.run(cmd, run.work, stem + ".out", stem + ".err")
    texts = []
    for ext in (".out", ".err"):
        with open(stem + ext, "r", encoding="utf-8", errors="replace") as fh:
            texts.append(fh.read())
    result = Phase(name=name, wall_s=reply["wall_s"], rss_mb=reply["maxrss_kb"] / 1024.0,
                   code=reply["code"], out=texts[0], err=texts[1])
    if traced and os.path.exists(spans):
        with open(spans, "r", encoding="utf-8") as fh:
            result.spans = json.load(fh)
    run.check(result.code == 0, f"{name}{' (traced)' if traced else ''}: exit {result.code}: "
              + result.err.strip()[-300:])
    if result.code != 0:
        raise RuntimeError(f"phase {name} failed")
    return result


def phase(run: Run, name: str, argv: list[str]) -> Phase:
    """Run a phase; in a traced run, untraced first and then traced."""
    if run.trace:
        run.untraced[name] = run_child(run, name, argv, traced=False)
    run.phases[name] = run_child(run, name, argv, traced=run.trace)
    return run.phases[name]


def slices(n: int, parts: int) -> list[tuple[int, int]]:
    """The ``parts`` contiguous, near-equal parts of range(n)."""
    cuts = [n * r // parts for r in range(parts + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def setup_data(run: Run):
    """Generate the dataset and write its files; record the time and a digest.

    Besides train.txt and test.txt it writes each part of the test set that a
    round batch-predicts (test.s.txt) and the head of the test set that the
    closed loop and sweep-k run on (head.txt).  Returns the shape and both
    splits.
    """
    import gen

    shape = gen.SHAPES[run.wl.shape]
    t0 = time.perf_counter()
    train, test = gen.generate(shape, run.seed)
    files = {"train.txt": train, "test.txt": test,
             "head.txt": gen.rows(test, 0, min(HEAD_POINTS, test.num_points))}
    for s, (a, b) in enumerate(slices(test.num_points, PARTS)):
        files[f"test.{s}.txt"] = gen.rows(test, a, b)
    blobs = []
    for name, split in files.items():
        blobs.append(gen.repo_bytes(split, shape))
        with open(run.path(name), "wb") as fh:
            fh.write(blobs[-1])
    run.setup_times.append(time.perf_counter() - t0)
    run.digests.add(gen.digest(*blobs))
    return shape, train, test


def predict_parts(r: int) -> list[int]:
    """The parts of the test set that round r batch-predicts, in order."""
    return [PREDICTS * (r % MIN_ROUNDS) + j for j in range(PREDICTS)]


def run_round(run: Run, r: int) -> None:
    """Train, set up again, batch predict, closed loop, batch predict, (first rounds) sweep-k.

    Round r does the same work as round r % MIN_ROUNDS: it trains with
    --seed r % MIN_ROUNDS and batch-predicts the parts ``predict_parts(r)``
    of the test set with that model.  An untraced round also sets up again
    after training, rewriting the same bytes, so that set-up is timed once per
    round.
    """
    model = f"model.{r}.dxml"
    phase(run, f"train.{r}", ["cli", "-q", "train", "train.txt", "--model-out", model,
                              "--seed", str(r % MIN_ROUNDS), *run.wl.train_flags])
    if not run.trace:
        setup_data(run)
    for j, s in enumerate(predict_parts(r)):
        if j == 1:
            phase(run, f"loop.{r}", ["loop", model, "head.txt", f"loop.{r}.pred",
                                     f"loop.{r}.top", f"loop.{r}.lat", str(LOOP_K),
                                     LOOP_WEIGHTING, repr(LOOP_SHARE * run.seconds)])
        phase(run, f"predict.{r}.{j}", ["cli", "-q", "predict", model, f"test.{s}.txt", "-k",
                                        str(PREDICT_K), "--threads", "1",
                                        "--out", f"predict.{r}.{j}.pred"])
    if r < MIN_ROUNDS:
        phase(run, f"sweep-k.{r}", ["cli", "-q", "sweep-k", model, "head.txt", "--k-grid",
                                    ",".join(map(str, SWEEP_GRID)), "--ks",
                                    ",".join(map(str, KS)), "--weighting", LOOP_WEIGHTING])


def run_phases(run: Run) -> None:
    """Rounds until --seconds are used up (a traced run: MIN_ROUNDS), then evaluate.

    A round is started only if the last one, taken again, still fits.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round(run, run.rounds)
        run.rounds += 1
        now = time.perf_counter()
        if run.rounds >= MIN_ROUNDS and (run.trace or now + (now - t0) - start > run.seconds):
            break
    # The first MIN_ROUNDS rounds predict every part of the test set once, in order.
    with open(run.path("predict.pred"), "wb") as out:
        for c in range(PARTS):
            with open(run.path(f"predict.{c // PREDICTS}.{c % PREDICTS}.pred"), "rb") as fh:
                out.write(fh.read())
    phase(run, "evaluate", ["cli", "-q", "evaluate", "predict.pred", "test.txt", "--ks",
                            ",".join(map(str, KS)), "--out", "quality.kv"])


def check_outputs(run: Run, shape, test) -> dict:
    """Oracle checks of every prediction, every sweep table and the evaluation.

    The oracle's neighbours and votes are computed once per distinct model
    file and set of test points, so rounds that repeat a training cost little.
    """
    import gen
    import oracle

    total = oracle.Report()
    models: dict[str, oracle.OracleModel] = {}
    neighbours: dict[tuple, oracle.Neighbours] = {}
    votes: dict[tuple, tuple[list, list]] = {}
    kmax = max(PREDICT_K, LOOP_K, *SWEEP_GRID)

    def expected(r, a, b, k, weighting):
        """The oracle's score maps and ambiguity flags for test points a .. b - 1."""
        path = run.path(f"model.{r}.dxml")
        with open(path, "rb") as fh:
            key = hashlib.sha256(fh.read()).hexdigest()
        if key not in models:
            models[key] = oracle.read_model(path)
        model = models[key]
        if (key, a, b) not in neighbours:
            part = gen.rows(test, a, b)
            neighbours[key, a, b] = oracle.neighbours(model, oracle.embed(model, part), kmax)
        nb = neighbours[key, a, b]
        if (key, a, b, k, weighting) not in votes:
            votes[key, a, b, k, weighting] = (
                [oracle.vote(model, nb.ids[i], nb.dists[i], k, weighting) for i in range(b - a)],
                [nb.ambiguous(i, k, weighting) for i in range(b - a)])
        return votes[key, a, b, k, weighting]

    parts = slices(test.num_points, PARTS)
    head = gen.rows(test, 0, min(HEAD_POINTS, test.num_points))
    pred_maps = []
    for r in range(run.rounds):
        for j, s in enumerate(predict_parts(r)):
            a, b = parts[s]
            want, amb = expected(r, a, b, PREDICT_K, "uniform")
            rep, parsed = oracle.check_predictions(run.path(f"predict.{r}.{j}.pred"), want, amb,
                                                   f"predict.{r}.{j}")
            total.add(rep)
            if r < MIN_ROUNDS:
                pred_maps += parsed

        want, amb = expected(r, 0, head.num_points, LOOP_K, LOOP_WEIGHTING)
        rep, _ = oracle.check_predictions(run.path(f"loop.{r}.pred"), want, amb, f"loop.{r}")
        with open(run.path(f"loop.{r}.top"), "r", encoding="utf-8") as fh:
            tops = fh.read().splitlines()
        for i, scores in enumerate(want):
            rep.attempted += 1
            top = [int(t) for t in tops[i].split()] if i < len(tops) else None
            if not amb[i] and top != oracle.top_labels(scores, 5):
                rep.fail(f"loop.{r}: point {i + 1} top labels differ")
        total.add(rep)

        if r >= MIN_ROUNDS:
            continue
        # sweep-k: every row of its table, recomputed from the oracle's own votes.
        table = oracle.parse_sweep_table(run.phases[f"sweep-k.{r}"].out)
        for k in SWEEP_GRID:
            want, amb = expected(r, 0, head.num_points, k, LOOP_WEIGHTING)
            ref = oracle.ranking_metrics(want, head, shape.num_labels, KS)
            slack = 0.005 + 1e-6 + 100.0 * sum(amb) / head.num_points
            got = table.get(k, {})
            total.attempted += 1
            if any(abs(got.get(key, -1e9) - ref[key]) > slack for key in ref):
                total.fail(f"sweep-k.{r}: row k={k} {got} differs from the oracle {ref}")

    # evaluate: the program's P@k / nDCG@k of the first rounds' batch predictions.
    ref = oracle.ranking_metrics(pred_maps, test, shape.num_labels, KS)
    with open(run.path("quality.kv"), "r", encoding="utf-8") as fh:
        quality = oracle.parse_kv(fh.read())
    total.attempted += 1
    if any(abs(quality.get(key, -1e9) - ref[key]) > 0.005 + 1e-6 for key in ref):
        total.fail(f"evaluate: {quality} differs from the oracle {ref}")

    run.attempted += total.attempted
    run.failed += total.failed
    run.failures.extend(total.messages)
    return {"checked": total.attempted, "failed": total.failed, "ambiguous": total.ambiguous,
            "quality": quality}


def cosine_baseline(run: Run, train, test, shape) -> float:
    """Feature-space cosine 10-NN P@1, computed once per dataset and cached."""
    import oracle

    cache = os.path.join(WORK, f"baseline-{run.workload}-{run.seed}-{min(run.digests)}.json")
    try:
        with open(cache, "r", encoding="utf-8") as fh:
            return float(json.load(fh)["p_at_1"])
    except (OSError, ValueError, KeyError):
        pass
    value = oracle.cosine_knn_p1(train, test, shape.num_features)
    with open(cache, "w", encoding="utf-8") as fh:
        json.dump({"p_at_1": value}, fh)
    return value


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha}


def end_to_end(run: Run, n_test: int, quality: dict) -> tuple[dict, int]:
    """Every end-to-end figure, gated or printed, and the single-query count.

    Each timing is the median of its repetitions over the whole run, and
    query_p50_ms and query_p99_ms are quantiles of all the run's single
    queries.
    """
    lat = []
    for r in range(run.rounds):
        with open(run.path(f"loop.{r}.lat"), "r", encoding="utf-8") as fh:
            lat += [float(line) for line in fh if line.strip()]
    parts = slices(n_test, PARTS)

    def walls(name):
        return [ph.wall_s for key, ph in run.phases.items() if key.split(".")[0] == name]

    def peak(name):
        return max(ph.rss_mb for key, ph in run.phases.items() if key.split(".")[0] == name)

    return {
        "setup_s": statistics.median(run.setup_times),
        "train_s": statistics.median(walls("train")),
        "predict_pts_per_s": statistics.median(
            (parts[s][1] - parts[s][0]) / run.phases[f"predict.{r}.{j}"].wall_s
            for r in range(run.rounds) for j, s in enumerate(predict_parts(r))),
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p99_ms": 1e3 * statistics.quantiles(lat, n=100, method="inclusive")[98],
        "sweep_s": statistics.median(walls("sweep-k")),
        "train_peak_rss_mb": peak("train"),
        "predict_peak_rss_mb": peak("predict"),
        "p_at_1": quality["P@1"],
        "p_at_3": quality["P@3"],
        "p_at_5": quality["P@5"],
        "ndcg_at_5": quality["nDCG@5"],
    }, len(lat)


def per_layer(run: Run) -> tuple[dict[str, float], list[str], list[dict]]:
    """Per-layer totals over the traced phases, absent metrics, per-phase rows."""
    from tracer import aggregate

    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    wrapped: set[str] = set()
    rows = []
    for ph in run.phases.values():
        agg = aggregate(ph.spans["spans"])
        for name, row in agg.items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in ph.spans["counts"].items():
            counts[key] = value if key == "model_io.model_bytes" else counts.get(key, 0) + value
        wrapped.update(ph.spans["wrapped"])
        self_sum = sum(row["self_s"] for row in agg.values())
        startup = ph.spans["startup_s"]
        rows.append({"phase": ph.name, "wall_s": ph.wall_s, "startup_s": startup,
                     "self_sum_s": self_sum, "unattributed_s": ph.wall_s - startup - self_sum,
                     "untraced_wall_s": run.untraced[ph.name].wall_s})
    nbrs = counts.get("predictor.neighbors_returned", 0)
    derived = {
        "rows_per_neighbor": counts.get("predictor.rows_scanned", 0) / nbrs if nbrs else 0.0,
        "startup_s": sum(r["startup_s"] for r in rows),
        "overhead_s": sum(r["wall_s"] - r["untraced_wall_s"] for r in rows),
        "unattributed_s": sum(r["unattributed_s"] for r in rows),
    }
    metrics, absent = {}, []
    for metric, (_, kind, source) in PER_LAYER.items():
        if source is not None and source not in wrapped:
            absent.append(metric)
            metrics[metric] = 0.0
        elif kind in ("s", "self_s", "calls"):
            metrics[metric] = float(totals.get(source, {}).get(kind, 0.0))
        else:
            metrics[metric] = float(derived.get(kind, counts.get(kind, 0)))
    return metrics, absent, rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dxml", "cli.py")):
        print(f"error: no dxml sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    # The launcher starts before this process loads numpy or any data.
    run = Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), work=work, launcher=Launcher(),
              wl=WORKLOADS[args.workload])
    try:
        return _run(run, args)
    finally:
        run.launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(run: Run, args) -> int:
    import gen

    env = environment()
    shape, train, test = setup_data(run)
    stats = gen.split_stats(train, test, shape)
    try:
        run_phases(run)
        complete = True
    except RuntimeError:
        complete = False
    run.check(len(run.digests) == 1, "generator: the same seed gave different bytes")

    lines = [f"# dxml benchmark: workload={run.workload} seed={run.seed} "
             f"seconds={run.seconds:g} trace={int(run.trace)}",
             f"# env {json.dumps(env, sort_keys=True)}",
             f"# data {json.dumps(stats, sort_keys=True)}"]
    for ph in run.phases.values():
        twin = run.untraced.get(ph.name)
        lines.append(f"# phase {ph.name:<11} wall {ph.wall_s:8.3f} s  peak_rss {ph.rss_mb:7.1f} MB"
                     + (f"  untraced wall {twin.wall_s:8.3f} s" if twin else ""))
    metrics: dict[str, float] = {}
    units = END_TO_END
    if complete:
        check = check_outputs(run, shape, test)
        n_head = min(HEAD_POINTS, test.num_points)
        e2e, samples = end_to_end(run, test.num_points, check["quality"])
        lines.append(f"# oracle: checked {check['checked']}, failed {check['failed']}, "
                     f"ambiguous {check['ambiguous']}")
        lines.append(f"# rounds: {run.rounds}; single queries: {samples} samples in "
                     f"{samples // n_head} passes, {samples // 100} beyond p99")
        if run.trace:
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
            metrics, absent, rows = per_layer(run)
            for row in rows:
                lines.append(
                    "# trace {phase:<11} wall {wall_s:8.3f} = startup {startup_s:6.3f} + "
                    "self {self_sum_s:8.3f} + unattributed {unattributed_s:6.3f}; "
                    "untraced wall {untraced_wall_s:8.3f}".format(**row))
            for name, value in metrics.items():
                lines.append(f"# {name:<36} {value:14.6g} {units[name]}"
                             + ("  (absent)" if name in absent else ""))
        else:
            metrics = {name: e2e[name] for name in END_TO_END}
            baseline = cosine_baseline(run, train, test, shape)
            for name, value in e2e.items():
                lines.append(f"# {name:<20} {value:12.4f} {END_TO_END.get(name) or PRINTED[name]}"
                             + ("" if name in END_TO_END else "  (printed, not gated)"))
            lines.append(f"# {'failed_frac':<20} {run.failed / run.attempted:12.4f} 1  "
                         f"(attempted {run.attempted}, failed {run.failed})")
            lines.append(f"# reference: feature-space cosine 10-NN P@1 {baseline:.2f} "
                         f"beside dxml P@1 {metrics['p_at_1']:.2f}")
    lines.extend(f"# FAILED {msg}" for msg in run.failures)
    print("\n".join(lines))
    result = {
        "correct": complete and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": max(run.failed, 0 if complete else 1),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
