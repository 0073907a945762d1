"""One benchmark phase in its own process, optionally traced.

    python3 bench/child.py [--spans FILE] cli ARGS...
        run ``dxml.cli.main(ARGS)``
    python3 bench/child.py [--spans FILE] loop MODEL TEST PRED TOPS LATS K WEIGHTING SECONDS
        closed loop of one client: ``dxml.predict`` on one test point at a
        time, making whole passes over TEST in order until SECONDS have
        elapsed (at least one pass).  The first pass's predictions go to
        PRED (CLI format) and their top-p heads to TOPS; per-query latencies
        in seconds go to LATS, one per line.

With ``--spans`` the public functions of every dxml module are wrapped
before the phase starts and the spans are written to FILE at exit, with
the process start-up time: from ``DXML_BENCH_LAUNCHED`` (the launcher's
``time.monotonic()`` just before it started this process) to the start of
the phase.
"""

from __future__ import annotations

import os
import sys
import time


def _write_prediction(stream, scores) -> None:
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    stream.write("\t".join(f"{label}:{score!r}" for label, score in ranked) + "\n")


def closed_loop(model_path, test_path, pred_path, tops_path, lat_path, k, weighting,
                seconds) -> int:
    import dxml

    art = dxml.load_model(model_path)
    test = dxml.normalize_features(
        dxml.load_repo_file(test_path), art.meta.get("normalize_features", "none")
    )
    points = [sv for sv, _ in test.points]
    first_pass = []
    latencies = []
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while True:
        x = points[i % len(points)]
        t0 = clock()
        pred = dxml.predict(art.mlp, art.clusters, art.train_embeds, art.train_labels, x,
                            k=k, weighting=weighting)
        t1 = clock()
        latencies.append(t1 - t0)
        if i < len(points):
            first_pass.append(pred)
        i += 1
        if i % len(points) == 0 and t1 >= deadline:
            break
    with open(pred_path, "w", encoding="utf-8", newline="\n") as pf, \
            open(tops_path, "w", encoding="utf-8", newline="\n") as tf:
        for pred in first_pass:
            _write_prediction(pf, pred.scores)
            tf.write(" ".join(map(str, pred.top_labels)) + "\n")
    with open(lat_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(t) for t in latencies) + "\n")
    return 0


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    launched = os.environ.get("DXML_BENCH_LAUNCHED")
    mode, args = argv[0], argv[1:]

    import dxml  # noqa: F401  (start-up cost belongs to the process, not a span)

    src = os.environ.get("DXML_BENCH_SRC")
    if src and not os.path.abspath(dxml.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported dxml from {dxml.__file__}, expected it under {src}")

    tracer = None
    wrapped: list[str] = []
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=f"{mode}-{os.getpid()}")
        wrapped = tracer.install()
    startup = time.monotonic() - float(launched) if launched else None

    try:
        if mode == "cli":
            from dxml import cli

            return int(cli.main(args) or 0)
        if mode == "loop":
            m, t, p, tops, lats, k, w, s = args
            run = lambda: closed_loop(m, t, p, tops, lats, int(k), w, float(s))  # noqa: E731
            if tracer is None:
                return run()
            with tracer.span("bench.query_loop"):
                return run()
        raise SystemExit(f"unknown mode {mode}")
    finally:
        if tracer is not None:
            tracer.dump(spans_path, {"wrapped": wrapped, "startup_s": startup})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
