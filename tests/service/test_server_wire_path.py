"""The single-process server's zero-copy wire path vs the python golden.

``PlacementServer`` turns every ``place`` request into a ``WireBatch``
- binary frames decode to column views, NDJSON requests encode at the
edge - so NDJSON requests, full-output frames and array frames meet in
one reorder buffer and enter the engine through ``place_wire_batch``
whatever its backend. Every
test here runs one scripted conversation against two live servers - the
pure-python golden and a numpy-backend server - and requires the same
reply bytes for every request, the same ``stats`` and the same
checkpoint content afterwards.

A conversation is a list of *phases*; all requests of a phase are in
flight together (shuffled over two binary connections and one NDJSON
connection) and a phase ends when all are answered. Phases are built so
their replies cannot depend on arrival order: a phase either advances
the cursor with contiguous valid requests (plus at most one invalid
request at its end), or probes it with duplicates and partial overlaps.

Skipped without numpy; the differential skips where the compiled kernel
is unavailable, since the numpy backend then does not exist - the
no-kernel test pins that such a host refuses ``backend=numpy`` and
serves ``auto`` on python.
"""

from __future__ import annotations

import asyncio
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.backends import backend_available  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.obs.drift import DriftMonitor  # noqa: E402
from repro.service import wire  # noqa: E402
from repro.service.engine import PlacementEngine  # noqa: E402
from repro.service.server import PlacementServer  # noqa: E402
from repro.service.state import _read_container  # noqa: E402
from repro.utxo.transaction import (  # noqa: E402
    OutPoint,
    Transaction,
    TxOutput,
)

N_SHARDS = 8
#: (golden spec, spec under test)
SPEC_PAIRS = [
    ("optchain:backend=python", "optchain:backend=numpy"),
    ("optchain-topk:cap=3,backend=python", "optchain-topk:cap=3,backend=numpy"),
]
KERNEL = backend_available("numpy")
requires_kernel = pytest.mark.skipif(
    not KERNEL, reason="compiled kernel unavailable"
)


def _tx(txid, inputs, n_outputs):
    return Transaction(
        txid=txid,
        inputs=tuple(OutPoint(p, i) for p, i in inputs),
        outputs=tuple(TxOutput(1) for _ in range(n_outputs)),
    )


def _valid_stream(rng: random.Random, n: int):
    """A valid spend sequence and, per outpoint, who spent it.

    About one transaction in thirty has 70 outputs: spending one of
    its outputs past index 62 makes the kernel punt the batch to the
    python journal (``FALLBACK``)."""
    txs, unspent, spent = [], [], []
    for txid in range(n):
        n_out = 70 if rng.random() < 0.03 else rng.choice([0, 1, 1, 2, 2, 3])
        if txid == 0:
            n_out = max(n_out, 1)
        fan_in = min(len(unspent), rng.choice([0, 1, 1, 2, 3]))
        inputs = [
            unspent.pop(rng.randrange(len(unspent))) for _ in range(fan_in)
        ]
        spent.extend((txid, outpoint) for outpoint in inputs)
        txs.append(_tx(txid, inputs, n_out))
        unspent.extend((txid, index) for index in range(n_out))
    return txs, spent


def _corrupt(rng: random.Random, frame, spent):
    """``frame`` with one extra input that can never validate."""
    position = rng.randrange(len(frame))
    victim = frame[position]
    earlier = [op for spender, op in spent if spender < victim.txid]
    choice = rng.choice(["future", "respent", "dup", "badindex"])
    if choice == "respent" and earlier:
        bad = rng.choice(earlier)
    elif choice == "dup" and victim.inputs:
        bad = (victim.inputs[0].txid, victim.inputs[0].index)
    elif choice == "badindex" and victim.txid:
        bad = (rng.randrange(victim.txid), rng.choice([71, 200]))
    else:
        bad = (victim.txid + rng.randrange(3), 0)
    broken = Transaction(
        txid=victim.txid,
        inputs=victim.inputs + (OutPoint(*bad),),
        outputs=victim.outputs,
    )
    return frame[:position] + [broken] + frame[position + 1 :]


@st.composite
def conversations(draw):
    """``(stream, phases, attach_at)``; a phase is
    ``(advances, [(codec, txs), ...])`` with the requests in txid
    order, ``attach_at`` the phase before which a drift monitor is
    attached (None: never)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stream, spent = _valid_stream(
        rng, draw(st.integers(min_value=20, max_value=180))
    )
    codecs = draw(
        st.sampled_from(
            [
                ["array"],
                ["array", "array", "array", "full", "json"],
                ["array", "json"],
            ]
        )
    )
    frames = []
    start = 0
    while start < len(stream):
        size = rng.choice([1, 2, 5, 9, 17, 40])
        frames.append(stream[start : start + size])
        start += size
    phases = []
    index = 0
    while index < len(frames):
        count = rng.choice([1, 2, 3, 5])
        phase = [(rng.choice(codecs), f) for f in frames[index : index + count]]
        index = min(index + count, len(frames))
        if index < len(frames) and rng.random() < 0.4:
            # Invalid contents for the range the next phase will fill.
            phase.append(
                (rng.choice(codecs), _corrupt(rng, frames[index], spent))
            )
        phases.append((True, phase))
        cursor = frames[index - 1][-1].txid + 1
        if rng.random() < 0.4:
            probes = []
            for _ in range(rng.choice([1, 2, 3])):
                if rng.random() < 0.6:
                    # Full duplicate: answered from the record.
                    probes.append(rng.choice(frames[:index]))
                elif cursor < len(stream) and cursor > 1:
                    # Partial overlap: straddles the cursor.
                    low = rng.randrange(max(0, cursor - 6), cursor)
                    probes.append(stream[low : cursor + rng.randrange(1, 5)])
            if probes:
                phases.append(
                    (False, [(rng.choice(codecs), f) for f in probes])
                )
    attach_at = draw(
        st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(phases) - 1)
        )
    )
    return stream, phases, attach_at


class _Connections:
    """Two binary connections and one NDJSON connection to a server."""

    async def open(self, port: int) -> None:
        self.streams = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(3)
        ]

    async def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
            await writer.wait_closed()

    def send(self, rng, request_id: int, codec: str, txs, override=None) -> int:
        """Write one ``place`` request; returns the connection used."""
        codec = override or codec
        if codec == "json":
            line = {"op": "place", "id": request_id}
            line["txs"] = wire.encode_batch(txs)
            self.streams[2][1].write(json.dumps(line).encode() + b"\n")
            return 2
        which = rng.randrange(2)
        self.streams[which][1].write(
            wire.encode_place_request(
                request_id, txs, full_outputs=codec == "full"
            )
        )
        return which

    async def control(self, request_id: int, op: str, obj=None) -> dict:
        self.streams[0][1].write(
            wire.encode_control_request(request_id, op, obj)
        )
        kind, _, payload = await wire.read_frame(self.streams[0][0])
        return wire.decode_response(kind, payload)

    async def replies(self, sent: dict[int, int]) -> dict:
        """``{request_id: reply bytes}`` for ``{request_id: conn}``."""
        out = {}
        for which in range(3):
            reader = self.streams[which][0]
            for _ in [r for r, conn in sent.items() if conn == which]:
                if which == 2:
                    line = await reader.readline()
                    out[json.loads(line)["id"]] = line
                else:
                    kind, request_id, payload = await wire.read_frame(reader)
                    out[request_id] = (kind, payload)
        assert out.keys() == sent.keys()
        return out


def _converse(*args):
    # A reply that never comes must fail the test, not hang the suite.
    return asyncio.run(asyncio.wait_for(_conversation(*args), timeout=120))


async def _conversation(spec, phases, attach_at, seed, checkpoint, codec=None):
    """Replies (by request id), ``stats``, the engine batches by entry
    point (``{"wire": n, "objects": n}``) and the checkpoint of one
    conversation against a fresh server on ``spec``; ``codec``
    overrides every request's codec."""
    engine = PlacementEngine(make_placer(spec, N_SHARDS), epoch_length=32)
    entries = {"wire": 0, "objects": 0}

    def counting(entry, method):
        def counted(batch, **kwargs):
            entries[entry] += 1
            return method(batch, **kwargs)

        return counted

    engine.place_wire_batch = counting("wire", engine.place_wire_batch)
    engine.place_batch = counting("objects", engine.place_batch)
    server = PlacementServer(engine, port=0)
    await server.start()
    conns = _Connections()
    await conns.open(server.port)
    rng = random.Random(seed)  # the same shuffles against every server
    replies = {}
    request_id = 0
    try:
        for number, (advances, phase) in enumerate(phases):
            order = list(range(len(phase)))
            rng.shuffle(order)
            if advances:
                # The phase's first request goes last, once the others
                # sit in the reorder buffer: the phase is then exactly
                # one coalesced run on every server, so epoch sweeps
                # (which run between engine batches) line up and
                # ``stats`` and checkpoints are comparable.
                order.remove(0)
            sent = {}
            for position in order:
                sent[request_id + position] = conns.send(
                    rng, request_id + position, *phase[position], codec
                )
            if advances:
                waited = 0
                while len(server._sequencer.pending) < len(order):
                    await asyncio.sleep(0.001)
                    waited += 1
                    assert waited < 10_000, "a request never queued"
            if number == attach_at:
                # Batches queued before the monitor and after it are
                # the same WireBatch; the engine materializes them from
                # here on (the shadow placer reads objects).
                monitor = DriftMonitor(
                    N_SHARDS, method="optchain", sample_every=2
                )
                monitor.rebase(engine.n_placed)
                engine.drift_monitor = monitor
            if advances:
                sent[request_id] = conns.send(
                    rng, request_id, *phase[0], codec
                )
            replies.update(await conns.replies(sent))
            request_id += len(phase)
        stats = (await conns.control(request_id, "stats"))["stats"]
        saved = await conns.control(
            request_id + 1, "checkpoint", {"path": str(checkpoint)}
        )
        assert saved["ok"]
    finally:
        await conns.close()
        await server.stop()
    _, header, payload = _read_container(checkpoint)
    # The nonce names the file, not the state.
    header.pop("snapshot_nonce")
    return replies, stats, entries, (header, payload)


def _run(spec, conversation, seed, codec=None):
    _, phases, attach_at = conversation
    with tempfile.TemporaryDirectory() as tmp:
        return _converse(
            spec, phases, attach_at, seed, Path(tmp) / "snap", codec
        )


@requires_kernel
class TestMonoWirePathDifferential:
    @pytest.mark.parametrize("golden_spec,spec", SPEC_PAIRS)
    @settings(max_examples=30, deadline=None)
    @given(conversation=conversations(), seed=st.integers(0, 2**16))
    def test_replies_stats_checkpoint_identical(
        self, golden_spec, spec, conversation, seed
    ):
        stream, phases, _ = conversation
        golden = _run(golden_spec, conversation, seed)
        served = _run(spec, conversation, seed)
        assert served[0] == golden[0]
        assert golden[1].pop("spec") != served[1].pop("spec")
        assert served[1] == golden[1]
        # One path: every batch enters either engine as a WireBatch.
        for run in (golden, served):
            assert run[2]["objects"] == 0 and run[2]["wire"] > 0
        # Checkpoint bytes order sparse vectors by backend (dict
        # insertion vs dense row), so their reference is the same
        # backend with every request sent as a full-output frame.
        full = _run(spec, conversation, seed, codec="full")
        assert full[2]["objects"] == 0
        assert served[3] == full[3]
        # The conversation places the whole stream, and the golden
        # server agrees with the offline placer.
        assert golden[1]["n_placed"] == len(stream)
        placed = {}
        request_id = 0
        for _, phase in phases:
            for position, (_, txs) in enumerate(phase):
                reply = golden[0][request_id + position]
                if isinstance(reply, bytes):
                    body = json.loads(reply)
                else:
                    body = wire.decode_response(*reply)
                if body["ok"]:
                    for tx, shard in zip(txs, body["shards"]):
                        assert placed.setdefault(tx.txid, shard) == shard
            request_id += len(phase)
        assert [placed[i] for i in range(len(stream))] == make_placer(
            golden_spec, N_SHARDS
        ).place_stream(stream)


class TestMonoDegrade:
    def test_no_kernel_auto_serves_python(
        self, monkeypatch
    ):
        """Without the compiled kernel there is no numpy backend to
        degrade: an explicit ``backend=numpy`` server refuses to build,
        ``auto`` serves python - silently and byte-identically."""
        import repro.core.backends.ckernel as ckernel

        monkeypatch.setattr(
            ckernel, "kernel_unavailable_reason", lambda: "no C compiler"
        )
        with pytest.raises(ConfigurationError, match="no C compiler"):
            make_placer("optchain:backend=numpy", N_SHARDS)
        stream, _ = _valid_stream(random.Random(5), 120)
        phases = [
            (True, [("array", stream[start : start + 10])])
            for start in range(0, len(stream), 10)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            golden = _converse(
                "optchain:backend=python", phases, None, 1,
                Path(tmp) / "golden.snap",
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                served = _converse(
                    "optchain", phases, None, 1, Path(tmp) / "auto.snap"
                )
        assert not [e for e in caught if e.category is RuntimeWarning]
        assert served[0] == golden[0]
        assert served[1]["spec"] == "optchain:backend=python"
        assert served[2] == golden[2] == {"wire": 12, "objects": 0}

    @requires_kernel
    def test_kernel_server_does_not_warn(self):
        stream, _ = _valid_stream(random.Random(6), 60)
        phases = [
            (True, [("array", stream[:30])]),
            (True, [("array", stream[30:])]),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                served = _converse(
                    "optchain:backend=numpy", phases, None, 1,
                    Path(tmp) / "numpy.snap",
                )
        assert not [e for e in caught if e.category is RuntimeWarning]
        assert served[2] == {"wire": 2, "objects": 0}
