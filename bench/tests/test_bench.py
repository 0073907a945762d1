"""Tests of the benchmark's own parts: generator, oracle and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import os
import sys
import textwrap

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

TINY = gen.Shape(n_train=240, n_test=40, num_features=300, num_labels=30)


def test_same_seed_gives_identical_bytes():
    a = [gen.repo_bytes(s, TINY) for s in gen.generate(TINY, 7)]
    b = [gen.repo_bytes(s, TINY) for s in gen.generate(TINY, 7)]
    c = [gen.repo_bytes(s, TINY) for s in gen.generate(TINY, 8)]
    assert a == b
    assert a != c


def test_generated_files_parse_and_stats_match():
    from dxml import parse_repo_file

    train, test = gen.generate(TINY, 3)
    parsed = parse_repo_file(gen.repo_bytes(train, TINY).decode("ascii"))
    assert (parsed.num_points, parsed.num_features, parsed.num_labels) == (240, 300, 30)
    for i in (0, 17, 239):
        idx, val = train.features(i)
        assert np.array_equal(parsed.points[i][0].indices, idx)
        assert np.array_equal(parsed.points[i][0].values, val)
        assert np.array_equal(parsed.points[i][1].ids, train.labels(i))
    stats = gen.split_stats(train, test, TINY)
    assert stats["n_train"] == 240 and stats["L"] == 30
    assert 0 < stats["graph_edges"] <= 30 * 29 // 2
    assert all(test.labels(i).size for i in range(test.num_points))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from dxml import cli

    work = tmp_path_factory.mktemp("tiny")
    train, test = gen.generate(TINY, 5)
    for name, split in (("train.txt", train), ("test.txt", test)):
        (work / name).write_bytes(gen.repo_bytes(split, TINY))
    model, preds = str(work / "model.dxml"), str(work / "preds.txt")
    assert cli.main(["-q", "train", str(work / "train.txt"), "--model-out", model,
                     "--embed-dim", "16", "--hidden", "32", "--clusters", "2",
                     "--walks-per-node", "2", "--walk-length", "10", "--embed-epochs", "1",
                     "--epochs", "2"]) == 0
    assert cli.main(["-q", "predict", model, str(work / "test.txt"), "-k", "5",
                     "--out", preds]) == 0
    m = oracle.read_model(model)
    nb = oracle.neighbours(m, oracle.embed(m, test), 5)
    want = [oracle.vote(m, nb.ids[i], nb.dists[i], 5, "uniform") for i in range(test.num_points)]
    amb = [nb.ambiguous(i, 5, "uniform") for i in range(test.num_points)]
    return preds, want, amb


def test_oracle_accepts_the_program_output(tiny_run):
    preds, want, amb = tiny_run
    rep, _ = oracle.check_predictions(preds, want, amb, "predict")
    assert rep.failed == 0, rep.messages
    assert rep.attempted == len(want)


def test_oracle_flags_a_perturbed_score_and_a_swapped_label(tiny_run, tmp_path):
    preds, want, amb = tiny_run
    with open(preds, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    clear = [i for i, a in enumerate(amb) if not a]
    i, j = clear[0], clear[1]
    label, score = lines[i].split("\t")[0].split(":")
    lines[i] = "\t".join([f"{label}:{float(score) + 1e-6!r}"] + lines[i].split("\t")[1:])
    toks = lines[j].split("\t")
    absent = next(x for x in range(TINY.num_labels) if x not in want[j])
    toks[-1] = f"{absent}:{toks[-1].split(':')[1]}"
    lines[j] = "\t".join(toks)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rep, _ = oracle.check_predictions(str(bad), want, amb, "predict")
    assert rep.failed == 2, rep.messages


def test_oracle_flags_missing_lines(tiny_run, tmp_path):
    preds, want, amb = tiny_run
    with open(preds, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    rep, _ = oracle.check_predictions(str(short), want, amb, "predict")
    assert rep.failed == 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_of_a_nested_call(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "inner.py").write_text(textwrap.dedent("""
        __all__ = ["work"]
        CLOCK = None

        def work():
            CLOCK.now += 5.0
    """))
    # outer imports work by name: a separate binding that must be patched too.
    (pkg / "outer.py").write_text(textwrap.dedent("""
        from .inner import work
        __all__ = ["run"]
        CLOCK = None

        def run():
            CLOCK.now += 1.0
            work()
            CLOCK.now += 2.0
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.inner
    import fakepkg.outer

    clock = FakeClock()
    fakepkg.inner.CLOCK = fakepkg.outer.CLOCK = clock
    tracer = Tracer("test", clock=clock)
    names = tracer.install("fakepkg", layers=("inner", "outer", "gone"))
    assert names == ["inner.work", "outer.run"]  # the missing layer is absent, no crash
    fakepkg.outer.run()
    agg = aggregate(tracer.spans)
    assert agg["outer.run"] == {"calls": 1, "s": 8.0, "self_s": 3.0}
    assert agg["inner.work"] == {"calls": 1, "s": 5.0, "self_s": 5.0}
    assert tracer.spans[1][3] == 0  # inner's parent is the outer span
    for mod in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
        sys.modules.pop(mod, None)


def test_ranking_metrics_match_dxml_evaluate():
    from dxml import Dataset, LabelSet, SparseVector, evaluate

    _, test = gen.generate(TINY, 9)
    rng = np.random.default_rng(0)
    maps = [{int(j): float(rng.integers(1, 4)) for j in rng.choice(30, 4, replace=False)}
            for _ in range(test.num_points)]
    ds = Dataset(test.num_points, TINY.num_features, TINY.num_labels,
                 [(SparseVector(*test.features(i)), LabelSet(test.labels(i)))
                  for i in range(test.num_points)])
    rep = evaluate(maps, ds, ks=(1, 3, 5))
    ours = oracle.ranking_metrics(maps, test, TINY.num_labels, (1, 3, 5))
    for k in (1, 3, 5):
        assert ours[f"P@{k}"] == pytest.approx(100 * rep.precision[k], abs=1e-9)
        assert ours[f"nDCG@{k}"] == pytest.approx(100 * rep.ndcg[k], abs=1e-9)
