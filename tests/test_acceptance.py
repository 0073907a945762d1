"""Acceptance gate: one test per shipping criterion.

Each test prints an ``ACCEPTANCE <n> <name>: PASS/FAIL`` line straight to the
terminal.  The two benchmark tests need the public repository data files on
disk (see conftest for the environment variables) and skip with instructions
when they are absent.
"""

import io
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dxml import (
    ClusterIndex,
    DeepWalkConfig,
    LabelSet,
    MlpModel,
    ModelArtifacts,
    SparseVector,
    embed_labels,
    evaluate,
    kmeans,
    load_model,
    parse_repo_file,
    predict,
    save_model,
    write_repo_file,
)
from dxml.cli import main
from dxml.graph_embed import EmbeddingMatrix

from conftest import _benchmark_paths, random_dataset, sparse
from test_cli import TINY_FLAGS, read_bytes
from test_cluster import nearest_cluster
from test_graph_embed import two_cliques
from test_metrics import brute_ndcg, brute_precision, ndcg_at_k, precision_at_k
from test_net import finite_difference_check
from test_predictor import embed, knn_one, trained_toy_artifacts


@pytest.fixture
def announce(request):
    """Writer that bypasses output capture so every run shows the verdict."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(text: str) -> None:
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    return emit


@contextmanager
def criterion(emit, num: int, name: str):
    try:
        yield
    except BaseException:
        emit(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    emit(f"ACCEPTANCE {num} {name}: PASS")


def _run_benchmark(train_path, test_path, tmp_path, extra_flags=()):
    model = str(tmp_path / "model.dxml")
    preds = str(tmp_path / "preds.txt")
    metrics = str(tmp_path / "metrics.txt")
    t0 = time.perf_counter()
    assert main(["-q", "train", str(train_path), "--model-out", model, *extra_flags]) == 0
    assert main(["-q", "predict", model, str(test_path), "--out", preds]) == 0
    elapsed = time.perf_counter() - t0
    assert main(["-q", "evaluate", preds, str(test_path), "--out", metrics]) == 0
    kv = dict(
        line.split("=") for line in read_bytes(metrics).decode().splitlines()
    )
    return {k: float(v) for k, v in kv.items()}, elapsed


def test_01_bibtex_end_to_end(bibtex_files, tmp_path, announce):
    train_path, test_path = bibtex_files
    with criterion(announce, 1, "bibtex end-to-end precision"):
        kv, elapsed = _run_benchmark(train_path, test_path, tmp_path)
        announce(
            f"  bibtex: P@1={kv['P@1']:.2f} P@3={kv['P@3']:.2f} "
            f"P@5={kv['P@5']:.2f} in {elapsed:.0f}s"
        )
        assert abs(kv["P@1"] - 66.03) <= 2.5
        assert abs(kv["P@3"] - 40.21) <= 2.5
        assert abs(kv["P@5"] - 27.51) <= 2.5
        assert elapsed <= 20 * 60


@pytest.mark.slow
def test_02_mediamill_end_to_end(mediamill_files, tmp_path, announce):
    train_path, test_path = mediamill_files
    with criterion(announce, 2, "mediamill end-to-end precision"):
        kv, elapsed = _run_benchmark(train_path, test_path, tmp_path)
        announce(f"  mediamill: P@1={kv['P@1']:.2f} in {elapsed:.0f}s")
        assert abs(kv["P@1"] - 88.73) <= 3.0
        assert elapsed <= 2 * 60 * 60


def test_03_ndcg1_equals_p1(announce):
    with criterion(announce, 3, "reported nDCG@1 equals P@1"):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ds = random_dataset(
                rng, n=int(rng.integers(1, 40)), L=8, allow_unlabeled=True
            )
            maps = []
            for _ in range(ds.num_points):
                chosen = rng.choice(8, size=int(rng.integers(1, 6)), replace=False)
                maps.append({int(l): float(rng.integers(0, 4)) / 3 for l in chosen})
            report = evaluate(maps, ds, ks=(1, 3))
            assert report.ndcg[1] == report.precision[1]
        # and per point, including empty truth
        for _ in range(300):
            scores = rng.integers(0, 5, size=10) / 4
            truth = LabelSet.from_iterable(
                rng.choice(10, size=int(rng.integers(0, 4)), replace=False).tolist()
            )
            assert ndcg_at_k(scores, truth, 1) == precision_at_k(scores, truth, 1)


def test_04_gradient_check(announce):
    with criterion(announce, 4, "analytic gradients match finite differences"):
        passed = total = 0
        for seed in range(100, 120):  # 20 random configurations
            p, t = finite_difference_check(seed)
            passed += p
            total += t
        announce(f"  gradient entries within tolerance: {passed}/{total}")
        assert passed / total >= 0.99


def test_05_metric_oracle(announce):
    with criterion(announce, 5, "metrics agree exactly with brute force"):
        rng = np.random.default_rng(55)
        for trial in range(1000):
            n = int(rng.integers(1, 30))
            style = trial % 8
            if style == 0:
                scores = np.full(n, 0.25)  # all scores tied
            else:
                scores = rng.integers(0, 6, size=n) / 5
            if style == 1:
                truth_set = set()  # empty label set
            else:
                size = int(rng.integers(0, min(n, 7) + 1))
                truth_set = set(rng.choice(n, size=size, replace=False).tolist())
            truth = LabelSet.from_iterable(truth_set)
            k = int(rng.integers(1, n + 3))
            assert precision_at_k(scores, truth, k) == brute_precision(
                scores.tolist(), truth_set, k
            )
            assert ndcg_at_k(scores, truth, k) == brute_ndcg(
                scores.tolist(), truth_set, k
            )


def test_06_kmeans_monotone_and_routing(announce):
    with criterion(announce, 6, "k-means objective monotone, routing exact"):
        rng = np.random.default_rng(66)
        for trial in range(50):
            n = int(rng.integers(8, 120))
            dim = int(rng.integers(2, 10))
            m = int(rng.integers(1, min(n, 10)))
            index = kmeans(rng.standard_normal((n, dim)), m, rng_seed=trial)
            for before, after in zip(index.wcss_history, index.wcss_history[1:]):
                assert after <= before + 1e-12
            for _ in range(20):
                q = rng.standard_normal(dim)
                brute = int(np.argmin(((index.centers - q) ** 2).sum(axis=1)))
                assert nearest_cluster(index, q) == brute


def test_07_knn_exact_and_m1_reduction(announce):
    with criterion(announce, 7, "k-NN matches full sort; m=1 is global k-NN"):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(1, 50))
            dim = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 2))
            vectors = rng.standard_normal((n, dim))
            q = rng.standard_normal(dim)
            ids, _ = knn_one(vectors, q, k)
            d2 = ((vectors - q) ** 2).sum(axis=1)
            want = sorted(range(n), key=lambda i: (d2[i], i))[: min(k, n)]
            assert ids.tolist() == want, f"trial {trial}"

        mlp, clusters, embeds, label_sets, _ = trained_toy_artifacts(seed=7, m=1)
        for _ in range(25):
            x = sparse(enumerate(rng.standard_normal(8)))
            got = predict(mlp, clusters, embeds, label_sets, x, k=5, p=5)
            fx = embed(mlp, x)
            d2 = ((embeds - fx) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(embeds.shape[0]), d2))[:5]
            want_scores: dict[int, float] = {}
            for i in order.tolist():
                for label in label_sets[i]:
                    want_scores[label] = want_scores.get(label, 0.0) + 1.0 / 5
            assert got.scores == want_scores  # exact float equality


def test_08_walk_embedding_separates_cliques(announce):
    with criterion(announce, 8, "two 5-cliques separate in embedding space"):
        graph = two_cliques(5)
        vectors = embed_labels(graph, DeepWalkConfig(rng_seed=0)).values.T
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = unit @ unit.T
        first = np.arange(5)
        second = np.arange(5, 10)
        intra = np.concatenate(
            [sims[np.ix_(first, first)].ravel(), sims[np.ix_(second, second)].ravel()]
        )
        intra = intra[intra < 1.0 - 1e-12]  # drop self-similarity
        inter = sims[np.ix_(first, second)].ravel()
        gap = float(intra.mean() - inter.mean())
        announce(f"  cosine gap: {gap:.3f}")
        assert gap >= 0.2


def test_09_end_to_end_determinism(data_files, tmp_path, announce):
    train, test = data_files
    with criterion(announce, 9, "training and prediction byte-identical"):
        models = []
        for tag in ("a", "b"):
            model = str(tmp_path / f"{tag}.dxml")
            assert main(["-q", "train", train, "--model-out", model, *TINY_FLAGS]) == 0
            models.append(model)
        assert read_bytes(models[0]) == read_bytes(models[1])
        preds = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{tag}.preds")
            assert main(["-q", "predict", models[0], test, "--out", out]) == 0
            preds.append(out)
        assert read_bytes(preds[0]) == read_bytes(preds[1])


def _benchmark_scale_dataset():
    # Bibtex dimensions: 1836 features, 159 labels, a few thousand points
    rng = np.random.default_rng(10)
    n, d, L = 2440, 1836, 159
    points = []
    for _ in range(n):
        nnz = int(rng.integers(40, 100))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int32)
        vals = rng.random(nnz) + 0.5
        labels = rng.choice(L, size=int(rng.integers(0, 5)), replace=False)
        points.append(
            (SparseVector(idx, vals), LabelSet.from_iterable(labels.tolist()))
        )
    from dxml import Dataset

    return Dataset(num_points=n, num_features=d, num_labels=L, points=points)


def test_10_round_trips_at_benchmark_scale(tmp_path, announce):
    with criterion(announce, 10, "dataset and model round-trips exact"):
        paths = _benchmark_paths("bibtex")
        if paths is not None:
            with open(paths[0], "r", encoding="utf-8") as fh:
                ds = parse_repo_file(fh)
        else:
            ds = _benchmark_scale_dataset()
        text = write_repo_file(ds)
        again = parse_repo_file(io.StringIO(text))
        assert again == ds
        assert write_repo_file(again) == text

        rng = np.random.default_rng(11)

        def f32(*shape):
            return rng.standard_normal(shape).astype(np.float32).astype(np.float64)

        n, d, H, el, L, m = 2440, 1836, 256, 100, 159, 1
        artifacts = ModelArtifacts(
            label_embeddings=EmbeddingMatrix(values=f32(el, L)),
            mlp=MlpModel(W1=f32(d, H), b1=f32(H), W2=f32(H, el), b2=f32(el)),
            clusters=ClusterIndex(
                centers=f32(m, el),
                assignments=np.zeros(n, dtype=np.int64),
            ),
            train_embeds=f32(n, el),
            train_labels=[
                LabelSet.from_iterable(
                    rng.choice(L, size=int(rng.integers(0, 5)), replace=False).tolist()
                )
                for _ in range(n)
            ],
            meta={"scale": "small", "seed": 0},
        )
        first = str(tmp_path / "first.dxml")
        second = str(tmp_path / "second.dxml")
        save_model(artifacts, first)
        loaded = load_model(first)
        assert loaded.mlp == artifacts.mlp
        assert loaded.train_labels == artifacts.train_labels
        save_model(loaded, second)
        assert read_bytes(first) == read_bytes(second)
