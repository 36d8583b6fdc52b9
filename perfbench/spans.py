"""Layer-boundary span tracing for the Pivot benchmark.

The tracer wraps the public functions of each ``repro`` layer from the
outside (nothing in ``src/`` knows it exists) and records a span whenever a
call crosses from one layer into another.  Calls that stay inside a layer
only bump counters, so a Beaver multiplication made inside a secure
division adds no span of its own.  A few functions always get a span even
when their caller is in the same layer, because a metric names them
(``kind``): secure division, the split-gain circuit, share conversions,
obfuscator refills, threshold decryption, key generation, party reactions
and the wire codec.

A span is ``[name, layer, kind, start_ns, end_ns, parent, request]``; the
request is ``setup``, ``fit`` or ``predict-<i>``.  Spans stay in memory
until :meth:`Tracer.write` is called once at the end of a traced run.
Only calls made on the thread that installed the tracer are recorded: the
asyncio transport's event-loop thread runs concurrently with the caller,
and its time is already part of the caller's waits.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, LAYER, KIND, START, END, PARENT, REQUEST = range(7)


class Tracer:
    """Records spans and counters around wrapped ``repro`` functions."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: (phase, counter name) -> total, e.g. ("fit", "splits_scored").
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._request: str | None = None
        self._phase = ""
        self._thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- requests -----------------------------------------------------------

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Attribute every span opened in the body to ``request_id``."""
        if self._request is not None or self._stack:
            raise RuntimeError("requests do not nest")
        self._request = request_id
        self._phase = phase_of(request_id)
        try:
            yield
        finally:
            self._request = None
            if self._stack:
                raise RuntimeError(f"spans left open in request {request_id}")

    # -- wrapping -----------------------------------------------------------

    def _wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        kind: str,
        always: bool,
        counter: tuple[str, Callable[..., int]] | None,
    ) -> Callable[..., Any]:
        tracer = self
        spans, stack = self.spans, self._stack
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._request is None or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.counts[tracer._phase, counter[0]] += counter[1](*args, **kwargs)
            if stack and not always and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            span = [name, layer, kind, time.perf_counter_ns(), 0,
                    stack[-1] if stack else None, tracer._request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()

        return traced

    def patch_methods(
        self,
        cls: type,
        names: list[str],
        layer: str,
        kind: str = "",
        always: bool = False,
        counter: tuple[str, Callable[..., int]] | None = None,
    ) -> None:
        """Wrap methods defined on ``cls`` itself (inherited ones are skipped)."""
        for attr in names:
            original = cls.__dict__.get(attr)
            if not callable(original):
                raise AttributeError(f"{cls.__qualname__}.{attr} is not a plain method")
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, kind, always, counter))

    def patch_functions(
        self,
        module: Any,
        names: list[str],
        layer: str,
        kind: str = "",
        always: bool = False,
        counter: tuple[str, Callable[..., int]] | None = None,
    ) -> None:
        """Wrap module-level functions, including every ``from m import f``
        copy of them held by another loaded ``repro`` module."""
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.split(".")[0] == "repro"
        ]
        for attr in names:
            original = getattr(module, attr)
            wrapped = self._wrap(original, layer, kind, always, counter)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover (ns)."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, layer, kind, start,
        end, parent, request."""
        keys = ("name", "layer", "kind", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def phase_of(request_id: str) -> str:
    """``predict-17`` -> ``serve``; ``setup`` and ``fit`` map to themselves."""
    return "serve" if request_id.startswith("predict") else request_id


def _public(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``repro``: federation, core, mpc,
    crypto and network."""
    from repro.core import context, gain, prediction, trainer
    from repro.crypto import batch, encoding, paillier, threshold
    from repro.federation import estimators, federation, party
    from repro.mpc import advanced, comparison, conversion, engine
    from repro.network import bus, flows, wire

    # federation: the facade every request enters through, key generation
    # and each party's reactions to protocol messages.
    tracer.patch_methods(federation.Federation, ["__init__"], "federation")
    tracer.patch_methods(
        estimators._FederatedEstimator, ["fit", "predict"], "federation"
    )
    tracer.patch_methods(party.PartyRuntime, ["handle"], "federation", "react", True)
    tracer.patch_methods(
        party.PartyService, ["answer_decrypt", "publish_shares"], "federation", "react", True
    )
    tracer.patch_methods(
        party.PartyRuntime, ["split_statistics", "apply_split"], "federation"
    )
    tracer.patch_functions(flows, ["run_distributed_keygen"], "federation", "keygen", True)
    tracer.patch_functions(
        threshold, ["generate_threshold_keypair"], "federation", "keygen", True
    )

    # core: trainer orchestration, the gain circuit and prediction.
    tracer.patch_methods(context.PivotContext, ["__init__", *_public(context.PivotContext)], "core")
    tracer.patch_methods(trainer.TreeTrainer, ["fit"], "core")
    tracer.patch_functions(
        gain, ["secure_split_gains"], "core", "gain", True,
        counter=("splits_scored", lambda fx, task, node, splits, *a, **k: len(splits)),
    )
    tracer.patch_functions(
        prediction,
        ["run_predict_batch_slices", "predict_basic_encrypted_slices",
         "run_predict_enhanced", "enhanced_prediction_share"],
        "core",
    )

    # mpc: the SPDZ engine, fixed-point circuits, comparisons, conversions.
    tracer.patch_methods(engine.MPCEngine, _public(engine.MPCEngine), "mpc")
    fixed = [n for n in _public(advanced.FixedPointOps) if n != "div"]
    tracer.patch_methods(advanced.FixedPointOps, fixed, "mpc")
    tracer.patch_methods(advanced.FixedPointOps, ["div"], "mpc", "div", True)
    tracer.patch_functions(
        comparison,
        ["bit_lt_public", "prefix_or_msb_first", "mod2m", "trunc", "trunc_pr",
         "ltz", "lt", "gt", "le", "eqz", "eq", "bit_dec", "select", "argmax"],
        "mpc",
    )
    tracer.patch_functions(
        conversion,
        ["cipher_to_share", "ciphers_to_shares", "share_to_cipher",
         "decrypt_shared_cipher"],
        "mpc", "conversion", True,
    )

    # crypto: Paillier arithmetic, the batch engine, obfuscator refills and
    # threshold decryption.
    tracer.patch_methods(
        paillier.Ciphertext,
        ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
         "obfuscate"],
        "crypto",
    )
    tracer.patch_methods(
        paillier.PaillierPublicKey, ["raw_encrypt"], "crypto",
        counter=("encryptions", lambda *a, **k: 1),
    )
    tracer.patch_methods(paillier.PaillierPublicKey, ["encrypt"], "crypto")
    tracer.patch_methods(
        encoding.EncryptedNumber,
        ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "obfuscate"],
        "crypto",
    )
    tracer.patch_methods(encoding.PaillierEncoder, ["encrypt", "encrypt_vector"], "crypto")
    tracer.patch_functions(encoding, ["encrypted_dot_product"], "crypto")
    tracer.patch_functions(paillier, ["dot_product"], "crypto")
    tracer.patch_methods(batch.BatchCryptoEngine, _public(batch.BatchCryptoEngine), "crypto")
    tracer.patch_methods(batch.ObfuscatorPool, ["precompute"], "crypto", "obfuscator", True)
    tracer.patch_methods(
        threshold.ThresholdKeyShare, ["partial_decrypt", "partial_decrypt_batch"],
        "crypto", "threshold", True,
    )
    tracer.patch_methods(
        threshold.ThresholdPaillier, ["joint_decrypt", "joint_decrypt_batch"],
        "crypto", "threshold", True,
    )
    tracer.patch_functions(
        threshold, ["combine_partial_vectors", "combine_partial_decryptions"],
        "crypto", "threshold", True,
    )

    # network: the message bus (delivery, barriers, waits) and the codec.
    tracer.patch_methods(
        bus.MessageBus,
        ["send_payload", "broadcast_payload", "send_control", "receive_control",
         "receive", "receive_any", "receive_tagged", "receive_raw", "drain",
         "pending", "pending_total", "assert_drained", "send", "broadcast", "round"],
        "network", "bus",
    )
    tracer.patch_methods(
        wire.WireCodec, ["serialize", "deserialize", "estimate"], "network", "codec", True
    )

