#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Pivot reproduction.

    python3 perfbench/run.py --workload basic-splits --seed 1 --seconds 16 --trace 0

Each run goes through the public API only: ``Federation(parties,
config=..., transport=...)``, ``PivotClassifier().fit(fed)``, then one
client sending single-row ``predict`` requests in a closed loop over
held-out rows.  The inputs come from ``repro.data.make_classification``
seeded by ``--seed``; the program sees only the generated rows.

``--trace 0`` times the run untraced and reports the end-to-end metrics.
``--trace 1`` does an untraced fit, a traced set-up, fit and
``TRACED_REQUESTS`` predictions, and another untraced fit, and reports the
per-layer metrics from the spans (see ``spans.py``); the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` when the run ends.
Every output is checked (``checks.py``); a fit or prediction that raises
or fails its check counts against ``success_rate``.  A broken invariant
(fit counts that differ between two fits of the same inputs, measured bus
bytes that differ from the estimate, self times that do not account for a
traced phase's wall time) fails the whole run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads, the metrics and which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape: m=3 parties, super client at index 0."""

    protocol: str  # "basic" | "enhanced"
    transport: str  # "inmemory" | "asyncio"
    keygen: str  # "dealer" | "distributed"
    keysize: int  # Paillier modulus bits
    n: int  # training rows
    dbar: int  # features per party
    b: int  # candidate splits per feature
    h: int  # maximum tree depth
    setups: int  # federations built per untraced run; setup_s is their median


WORKLOADS = {
    # MPC-bound: many candidate splits over few rows.
    "basic-splits": Workload(
        "basic", "inmemory", "dealer", 512, n=40, dbar=1, b=4, h=2, setups=25
    ),
    # Paillier-bound: many rows, few splits; Eq. 10 updates scale with n.
    "enhanced-rows": Workload(
        "enhanced", "inmemory", "dealer", 512, n=48, dbar=1, b=2, h=2, setups=25
    ),
    # Socket- and threshold-bound: loopback TCP, no dealer, real share combining.
    "deployed-sockets": Workload(
        "basic", "asyncio", "distributed", 192, n=40, dbar=2, b=2, h=2, setups=5
    ),
}

PARTIES = 3
#: Fits per untraced run, each on its own federation under its own key;
#: fit_s is their median and their counts must agree.
FITS = 2
CLASSES = 4
#: Low class separation keeps nodes impure, so the tree is full depth for
#: almost every seed and fits of different seeds do comparable work.
CLASS_SEP = 0.5
HELD_OUT_ROWS = 256
MIN_REQUESTS = 1000
#: predict_p50_quiet_ms: window length in requests (two request_order
#: cycles) and the quantile of the window medians it reports.
QUIET_WINDOW = 8
QUIET_QUANTILE = 0.05
TRACED_REQUESTS = 200
#: Time a traced phase's spans may leave uncovered: a share of its wall
#: time plus, per request, the bookkeeping around the call into the facade
#: (slicing the row, opening the request).
COVERAGE_SLACK = 0.01
REQUEST_SLACK_S = 50e-6
SPAN_DIR = os.path.join(ROOT, ".perfbench")


class InvariantError(RuntimeError):
    """A broken count or tracing invariant: the run fails."""


# -- inputs --------------------------------------------------------------------


def make_inputs(w: Workload, seed: int) -> dict[str, Any]:
    from repro.data import make_classification

    X, y = make_classification(
        w.n + HELD_OUT_ROWS, PARTIES * w.dbar, n_classes=CLASSES,
        class_sep=CLASS_SEP, seed=seed,
    )
    blocks = [X[:, i * w.dbar:(i + 1) * w.dbar] for i in range(PARTIES)]
    return {
        "train": [b[: w.n].copy() for b in blocks],
        "labels": y[: w.n].copy(),
        "held_out": [b[w.n:].copy() for b in blocks],
    }


def build_federation(w: Workload, inputs: dict[str, Any], config_seed: int):
    """Construct a Federation; returns it and its set-up seconds.

    Set-up k of every run uses seed k, whatever the workload seed, so that
    set-up time and memory are compared over the same key draws: the
    number of candidate primes a key search tries varies tenfold between
    draws, and distributed keygen's traffic sets the process's peak memory.
    ``config_seed`` seeds distributed key generation and the MPC engine
    through ``PivotConfig``; dealer key generation takes no seed, so its
    prime draws are pinned by ``seeded_primes``.
    """
    from repro import Federation, Party, PivotConfig
    from repro.tree.cart import TreeParams

    parties = [
        Party(block, labels=inputs["labels"] if i == 0 else None)
        for i, block in enumerate(inputs["train"])
    ]
    config = PivotConfig(
        keysize=w.keysize,
        protocol=w.protocol,
        keygen=w.keygen,
        decrypt_mode="combine" if w.keygen == "distributed" else "simulate",
        tree=TreeParams(max_depth=w.h, max_splits=w.b),
        seed=config_seed,
    )
    with seeded_primes(config_seed):
        start = time.perf_counter()
        fed = Federation(parties, config=config, transport=w.transport)
        elapsed = time.perf_counter() - start
    return fed, elapsed


@contextmanager
def seeded_primes(seed: int) -> Iterator[None]:
    """Draw the candidates of every unseeded prime-pair search from
    ``random.Random(seed)``; searches given their own generator (distributed
    keygen) keep it."""
    from repro.crypto import primes

    original = primes.random_prime_pair
    draws = random.Random(seed)

    def pair(bits: int, rng: Any = None) -> tuple[int, int]:
        return original(bits, draws if rng is None else rng)

    primes.random_prime_pair = pair
    try:
        yield
    finally:
        primes.random_prime_pair = original


def counters(fed) -> dict[str, int]:
    """Every cost counter the program keeps for one federation."""
    from repro.analysis import opcount

    ctx = fed.context
    bus, mpc = ctx.bus, ctx.engine.stats
    return {
        "bus_rounds": bus.rounds,
        "bus_bytes": bus.bytes_measured,
        "bus_bytes_estimated": bus.bytes_estimated,
        "mpc_rounds": mpc.rounds,
        "mpc_bytes": mpc.bytes,
        "dealer": ctx.engine.dealer.usage.total(),
        "obfuscators_made": ctx.batch.pool.generated,
        "obfuscators_left": len(ctx.batch.pool),
        **opcount.snapshot(),
    }


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in before}


def fit(fed):
    """One timed fit; returns the classifier, seconds and counter deltas."""
    from repro import PivotClassifier

    before = counters(fed)
    start = time.perf_counter()
    clf = PivotClassifier().fit(fed)
    seconds = time.perf_counter() - start
    moved = delta(counters(fed), before)
    check_bytes(fed)
    return clf, seconds, moved


def fit_or_fail(fed):
    """``fit``, or None when the fit raises; a broken invariant still
    fails the run."""
    try:
        return fit(fed)
    except InvariantError:
        raise
    except Exception:
        traceback.print_exc()
        print("# FAILED a fit raised", file=sys.stderr)
        return None


def check_bytes(fed) -> None:
    snap = fed.context.bus.snapshot()
    if snap["bytes_measured"] != snap["bytes_estimated"]:
        raise InvariantError(
            f"measured bus bytes {snap['bytes_measured']} != estimated "
            f"{snap['bytes_estimated']}"
        )


def check_same_counts(first: dict[str, int], second: dict[str, int]) -> None:
    """Fits of the same inputs under different keys cost the same."""
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    if diff:
        raise InvariantError(f"fit counts differ between fits of one input: {diff}")


# -- correctness ---------------------------------------------------------------


def check_fit(clf, fed, inputs: dict[str, Any]):
    """Node, leaf and stopping-rule checks of one fitted tree.

    Returns the plaintext tree's label for each held-out row and whether
    any check failed.
    """
    import checks

    tree = checks.open_tree(clf.model_, fed)
    grids = [client.split_values for client in fed.context.clients]
    problems, gap = checks.check_tree(
        tree, inputs["train"], inputs["labels"], grids, CLASSES, fed.context.config.tree
    )
    print(f"# node check: worst gain gap {gap:.6f} (tolerance {checks.GAIN_TOL})")
    for problem in problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    frac_bits = fed.context.fx.f
    expected = [
        checks.walk(tree, [b[row] for b in inputs["held_out"]], frac_bits)
        for row in range(HELD_OUT_ROWS)
    ]
    return expected, bool(problems)


def request_order(expected: list[int]) -> list[int]:
    """Held-out rows in the order the client sends them.

    Basic prediction of a row labelled 0 decrypts the deterministic
    ciphertext of zero (``c * 0`` is never re-randomised), about four times
    faster than any other label.  The share of such rows would move the
    median from seed to seed, so the mix is fixed: every fourth request is
    a row the model labels 0, when it has any, and the rest cycle through
    the other rows.
    """
    zeros = [row for row, label in enumerate(expected) if label == 0]
    others = [row for row, label in enumerate(expected) if label != 0]
    if not zeros or not others:
        return list(range(len(expected)))
    order = []
    for i in range(len(expected)):
        if i % 4 == 0:
            order.append(zeros[(i // 4) % len(zeros)])
        else:
            order.append(others[(i - i // 4 - 1) % len(others)])
    return order


def predict_row(clf, inputs: dict[str, Any], row: int) -> int:
    return int(clf.predict([b[row:row + 1] for b in inputs["held_out"]])[0])


def serve(
    clf, inputs, order: list[int], seconds: float, min_requests: int,
    tracer=None, chores: Sequence[Callable[[], None]] = (),
):
    """Closed loop of single-row predictions: one client, the next request
    sent when the last one returns, for ``seconds`` and at least
    ``min_requests`` requests.  Each of ``chores`` runs once between two
    requests, spread evenly over the ``seconds``, which do not count the
    time the chores take.  Returns latencies (s) and (row, prediction or
    None) pairs."""
    latencies: list[float] = []
    outputs: list[tuple[int, int | None]] = []
    pending = list(chores)
    start = time.perf_counter()

    def serving() -> float:
        return time.perf_counter() - start

    while len(latencies) < min_requests or serving() < seconds:
        done = len(chores) - len(pending)
        if pending and serving() >= seconds * done / len(chores):
            began = time.perf_counter()
            pending.pop(0)()
            start += time.perf_counter() - began
        i = len(latencies)
        row = order[i % len(order)]
        began = time.perf_counter()
        try:
            if tracer is None:
                out: int | None = predict_row(clf, inputs, row)
            else:
                with tracer.request(f"predict-{i}"):
                    out = predict_row(clf, inputs, row)
        except Exception:
            traceback.print_exc()
            out = None
        latencies.append(time.perf_counter() - began)
        outputs.append((row, out))
    for chore in pending:
        chore()
    return latencies, outputs


def quiet_p50(latencies: list[float]) -> float:
    """Median latency of a request while the host is quiet: the medians of
    consecutive ``QUIET_WINDOW``-request windows, at their
    ``QUIET_QUANTILE`` (nearest rank from below).

    The host's speed flips between a fast and a slow mode from one second
    to the next (interpreter-bound code runs up to 1.8x slower in the slow
    one), and the share of time in each drifts over minutes.  The median of
    all requests lands on whichever mode held most of the run, so it jumps
    between runs; the fastest windows recur in nearly every run and cost
    the same work each time.  A window holds a whole number of
    ``request_order`` cycles, so its median never falls on the fast
    label-0 rows.
    """
    count = max(1, len(latencies) // QUIET_WINDOW)
    medians = sorted(
        statistics.median(latencies[i * QUIET_WINDOW:(i + 1) * QUIET_WINDOW])
        for i in range(count)
    )
    return medians[int(QUIET_QUANTILE * (count - 1))]


def count_wrong(expected: list[int], outputs) -> int:
    wrong = sum(1 for row, out in outputs if out != expected[row])
    if wrong:
        print(f"# FAILED {wrong} predictions differ from the plaintext walk", file=sys.stderr)
    return wrong


# -- the two run modes ---------------------------------------------------------


def run_untraced(w: Workload, seed: int, seconds: float, min_requests: int):
    inputs = make_inputs(w, seed)
    feds, setup_times = [], []
    latencies: list[float] = []
    outputs: list[tuple[int, int | None]] = []

    def setup(k: int) -> None:
        fed, elapsed = build_federation(w, inputs, k)
        setup_times.append(elapsed)
        fed.close()

    # Set-ups beyond the first FITS run between requests while serving, so
    # that their median samples the host over the whole run, not one second.
    extra = [functools.partial(setup, k) for k in range(FITS, w.setups)]
    try:
        for k in range(FITS):
            fed, elapsed = build_federation(w, inputs, k)
            setup_times.append(elapsed)
            feds.append(fed)
        fitted = [
            (result, fed) for result, fed in zip(map(fit_or_fail, feds), feds)
            if result is not None
        ]
        failed = FITS - len(fitted)
        for (_, _, counts), _ in fitted[1:]:
            check_same_counts(fitted[0][0][2], counts)
        checked = [check_fit(clf, fed, inputs) for (clf, _, _), fed in fitted]
        failed += sum(bad for _, bad in checked)
        if fitted:
            (clf, _, _), served = fitted[0]
            for fed in feds:
                if fed is not served:
                    fed.close()
            feds = [served]
            expected = checked[0][0]
            latencies, outputs = serve(
                clf, inputs, request_order(expected), seconds, min_requests, chores=extra
            )
            check_bytes(served)
            failed += count_wrong(expected, outputs)
        else:
            for chore in extra:
                chore()
    finally:
        for fed in feds:
            fed.close()

    attempted = FITS + len(outputs)
    # Fit and latency metrics read 0 when no fit succeeded (correct is false).
    moved = fitted[0][0][2] if fitted else defaultdict(int)
    ms = [1000.0 * t for t in latencies]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "fit_s": (statistics.median([r[1] for r, _ in fitted] or [0.0]), "s"),
        "fit_rounds": (moved["bus_rounds"] + moved["mpc_rounds"], "count"),
        "fit_mb": ((moved["bus_bytes"] + moved["mpc_bytes"]) / 1e6, "MB"),
        "predict_p50_quiet_ms": (quiet_p50(ms) if ms else 0.0, "ms"),
        "predict_p99_ms": (
            statistics.quantiles(ms, n=100, method="inclusive")[98] if ms else 0.0, "ms"
        ),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(
        f"# {len(ms)} predict requests; error_rate {failed / attempted:.6f}; "
        f"p50 over all requests {statistics.median(ms or [0.0]):.6f} ms"
    )
    return attempted, failed, metrics


def untraced_fit(w: Workload, inputs: dict[str, Any], config_seed: int):
    """Fit on a fresh federation; returns the fit seconds and counts."""
    fed, _ = build_federation(w, inputs, config_seed)
    try:
        _, seconds, moved = fit(fed)
    finally:
        fed.close()
    return seconds, moved


def run_traced(name: str, w: Workload, seed: int, requests: int):
    import spans
    from repro import PivotClassifier

    inputs = make_inputs(w, seed)
    untraced_s, untraced_counts = untraced_fit(w, inputs, 0)

    tracer = spans.Tracer()
    fed = None
    try:
        spans.install(tracer)
        with tracer.request("setup"):
            fed, setup_s = build_federation(w, inputs, 1)
        setup_counts = counters(fed)
        before = counters(fed)
        with tracer.request("fit"):
            start = time.perf_counter()
            clf = PivotClassifier().fit(fed)
            traced_s = time.perf_counter() - start
        fit_counts = delta(counters(fed), before)
        check_same_counts(untraced_counts, fit_counts)
        expected, failed = check_fit(clf, fed, inputs)
        before = counters(fed)
        latencies, outputs = serve(
            clf, inputs, request_order(expected), 0.0, requests, tracer
        )
        serve_counts = delta(counters(fed), before)
        tracer.uninstall()
        check_bytes(fed)
        failed += count_wrong(expected, outputs)
        dropped = fed.context.bus.transport.snapshot()["dropped"]
    finally:
        tracer.uninstall()
        if fed is not None:
            fed.close()
    attempted = 1 + len(outputs)
    # One untraced fit before the traced one and one after, so warm-up and
    # host drift during the run do not land on one side only.
    after_s, after_counts = untraced_fit(w, inputs, 2)
    check_same_counts(untraced_counts, after_counts)

    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.jsonl"))
    check_coverage(
        tracer, {"setup": (setup_s, 1), "fit": (traced_s, 1), "serve": (sum(latencies), requests)}
    )
    metrics = layer_metrics(
        tracer, setup_counts, fit_counts, serve_counts, requests,
        dropped, traced_s / statistics.mean([untraced_s, after_s]),
    )
    return attempted, failed, metrics


def check_coverage(tracer, walls: dict[str, tuple[float, int]]) -> None:
    """Each phase's self times must account for its wall time, measured by
    the caller around the phase's requests: ``walls`` maps a phase to its
    seconds and its number of requests.

    Self times sum to the duration of the phase's root spans, so this
    fails when the spans miss time the caller waited (a request entering
    below the federation facade, work outside every wrapped function) and
    when a span lands in the wrong phase (its phase then exceeds its wall
    time).
    """
    from spans import LAYER, PARENT, REQUEST, phase_of

    traced_ns: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if own < 0:
            raise InvariantError(f"span {span} is shorter than its children")
        if span[PARENT] is None and span[LAYER] != "federation":
            raise InvariantError(f"request entered below the federation facade: {span}")
        traced_ns[phase_of(span[REQUEST])] += own
    for phase, (wall, requests) in walls.items():
        traced = traced_ns[phase] / 1e9
        if not wall * (1 - COVERAGE_SLACK) - requests * REQUEST_SLACK_S <= traced <= wall:
            raise InvariantError(
                f"{phase}: self times sum to {traced:.6f} s, "
                f"{wall:.6f} s measured around its requests"
            )
        print(f"# {phase}: spans cover {traced / wall:.4%} of {wall:.6f} s")


def layer_metrics(tracer, setup_c, fit_c, serve_c, requests, dropped, overhead):
    """Per-layer metrics from the spans and counter deltas of a traced run."""
    from spans import END, KIND, LAYER, REQUEST, START, phase_of

    self_ns = tracer.self_times()
    layer_s: dict[tuple[str, str], float] = defaultdict(float)
    kind_s: dict[tuple[str, str], float] = defaultdict(float)
    kind_total: dict[tuple[str, str], float] = defaultdict(float)
    kind_calls: dict[tuple[str, str], int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_ns):
        phase = phase_of(span[REQUEST])
        layer_s[phase, span[LAYER]] += own / 1e9
        if span[KIND]:
            kind_s[phase, span[KIND]] += own / 1e9
            kind_total[phase, span[KIND]] += (span[END] - span[START]) / 1e9
            kind_calls[phase, span[KIND]] += 1

    made = fit_c["obfuscators_made"]
    taken = made - fit_c["obfuscators_left"]
    per = 1.0 / requests
    return {
        "setup.federation.keygen_s": (kind_s["setup", "keygen"], "s"),
        "setup.network.rounds": (setup_c["bus_rounds"], "count"),
        "setup.network.codec_s": (kind_s["setup", "codec"], "s"),
        "setup.network.wait_s": (kind_s["setup", "bus"], "s"),
        "fit.core.gain_s": (kind_total["fit", "gain"], "s"),
        "fit.core.splits_scored": (tracer.counts["fit", "splits_scored"], "count"),
        "fit.core.self_s": (layer_s["fit", "core"], "s"),
        "fit.mpc.self_s": (layer_s["fit", "mpc"], "s"),
        "fit.mpc.div_calls": (kind_calls["fit", "div"], "count"),
        "fit.mpc.div_s": (kind_s["fit", "div"], "s"),
        "fit.mpc.mults": (fit_c["cs"], "count"),
        "fit.mpc.triples": (fit_c["dealer"], "count"),
        "fit.mpc.rounds": (fit_c["mpc_rounds"], "count"),
        "fit.mpc.mb": (fit_c["mpc_bytes"] / 1e6, "MB"),
        "fit.mpc.conversion_s": (kind_s["fit", "conversion"], "s"),
        "fit.crypto.self_s": (layer_s["fit", "crypto"], "s"),
        "fit.crypto.obfuscator_s": (kind_s["fit", "obfuscator"], "s"),
        "fit.crypto.obfuscators": (made, "count"),
        "fit.crypto.obfuscator_use": (taken / made if made else 0.0, "ratio"),
        "fit.crypto.encryptions": (tracer.counts["fit", "encryptions"], "count"),
        "fit.crypto.decryptions": (fit_c["cd"], "count"),
        "fit.crypto.threshold_s": (kind_s["fit", "threshold"], "s"),
        "fit.federation.react_s": (kind_s["fit", "react"], "s"),
        "fit.network.rounds": (fit_c["bus_rounds"], "count"),
        "fit.network.mb": (fit_c["bus_bytes"] / 1e6, "MB"),
        "fit.network.codec_s": (kind_s["fit", "codec"], "s"),
        "fit.network.wait_s": (kind_s["fit", "bus"], "s"),
        "serve.crypto.threshold_s": (kind_s["serve", "threshold"] * per, "s/req"),
        "serve.federation.react_s": (kind_s["serve", "react"] * per, "s/req"),
        "serve.network.rounds": (serve_c["bus_rounds"] * per, "count/req"),
        "serve.network.codec_s": (kind_s["serve", "codec"] * per, "s/req"),
        "serve.network.wait_s": (kind_s["serve", "bus"] * per, "s/req"),
        "serve.core.self_s": (layer_s["serve", "core"] * per, "s/req"),
        "serve.mpc.self_s": (layer_s["serve", "mpc"] * per, "s/req"),
        "serve.mpc.rounds": (serve_c["mpc_rounds"] * per, "count/req"),
        "serve.crypto.self_s": (layer_s["serve", "crypto"] * per, "s/req"),
        "network.dropped": (dropped, "count"),
        "trace.overhead": (overhead, "ratio"),
    }


# -- command line --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    w = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = run_traced(args.workload, w, args.seed, TRACED_REQUESTS)
    else:
        attempted, failed, metrics = run_untraced(w, args.seed, args.seconds, MIN_REQUESTS)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
