"""Tests for the versioned record store: semantics, durability, merges."""

from __future__ import annotations

import pytest

import repro.apps.versioned_store as vs_mod
from repro.apps.factories import app_factory
from repro.apps.versioned_store import (
    VersionedStore,
    prov_from_tuple,
    prov_tuple,
)
from repro.client.sim import SimStoreClient
from repro.core.modes import Mode
from repro.core.versioning import Provenance, VersionEntry
from repro.fuzz.checkers import CheckContext, make_checkers, run_checkers
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import ProcessId


def store_cluster(n: int = 5, seed: int = 0) -> Cluster:
    cluster = Cluster(
        n, app_factory=app_factory("store", n), config=ClusterConfig(seed=seed)
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(100)
    return cluster


def provs_at(cluster: Cluster, site: int) -> set[tuple]:
    app = cluster.app_at(site)
    return {
        prov_tuple(e.prov) for chain in app.chains.values() for e in chain
    }


# ---------------------------------------------------------------------------
# Basic semantics through the client tier
# ---------------------------------------------------------------------------


def test_put_commits_with_token_and_reads_back() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=0, client_id="alice")
    put = client.put("k", "v1")
    assert put.ok and put.reply.prov is not None
    token = put.reply.prov
    # Read-your-writes against a *different* replica: either the write
    # already replicated there (ok) or the replica must refuse (retry),
    # never silently serve an older version.
    other = SimStoreClient(cluster, site=3, client_id="alice2")
    got = other.get("k", ryw=token)
    assert got.reply.status == "ok" and got.reply.value == "v1"
    assert got.reply.prov == token


def test_put_retry_is_exactly_once() -> None:
    cluster = store_cluster()
    app = cluster.app_at(0)
    done: list = []
    first = app.put("k", "v", client="c9", client_seq=1, on_done=done.append)
    cluster.run_for(100)
    assert first.status == "committed"
    # The client's resubmission of the same (client, client_seq) lands
    # on the original entry: same token, no new chain link.
    again = app.put("k", "v", client="c9", client_seq=1)
    assert again.status == "committed" and again.token == first.token
    assert len(app.chains["k"]) == 1


def test_history_returns_full_chain_oldest_first() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=1, client_id="h")
    for i in range(3):
        assert client.put("k", f"v{i}").ok
    res = cluster.app_at(2).history("k")
    assert res.status == "ok"
    assert [e.value for e in res.chain] == ["v0", "v1", "v2"]
    assert [e.prov for e in res.chain] == sorted(e.prov for e in res.chain)
    assert res.value == "v2"  # head doubles as the get() answer


def test_leader_is_least_view_member() -> None:
    cluster = store_cluster()
    assert cluster.app_at(3).leader() == ProcessId(0, 0)
    client = SimStoreClient(cluster, site=3, client_id="l", read_mode="leader")
    client.put("k", "v")
    got = client.get("k")
    # The dialed replica is not the leader: the client must have been
    # redirected there rather than served locally.
    assert got.reply.status == "ok"
    assert "not_leader" in got.retries


def test_prov_tuple_roundtrip() -> None:
    p = Provenance(7, ProcessId(3, 2), 41)
    assert prov_from_tuple(prov_tuple(p)) == p


# ---------------------------------------------------------------------------
# Durability: base + op log
# ---------------------------------------------------------------------------


def test_crash_recover_restores_chains_from_disk() -> None:
    cluster = store_cluster()
    client = SimStoreClient(cluster, site=2, client_id="d")
    tokens = [client.put(f"k{i}", i).reply.prov for i in range(5)]
    assert all(t is not None for t in tokens)
    before = provs_at(cluster, 2)
    cluster.crash(2)
    cluster.run_for(50)
    cluster.recover(2)
    assert cluster.settle(timeout=1000)
    cluster.run_for(100)
    assert provs_at(cluster, 2) >= before


def test_applies_append_to_op_log_not_full_base(monkeypatch) -> None:
    # The serving path must stay O(1) per write: applies append to the
    # op log; the full base is only rewritten at the compaction
    # threshold (or on adoption).
    cluster = store_cluster(n=3)
    app = cluster.app_at(0)
    baseline_base = app.stack.storage.read(vs_mod._CHAINS_KEY)
    client = SimStoreClient(cluster, site=0, client_id="log")
    assert client.put("k", "v").ok
    log = app.stack.storage.read(vs_mod._LOG_KEY)
    assert log and log[-1][0] == "k"
    assert isinstance(log[-1][1], VersionEntry)
    assert app.stack.storage.read(vs_mod._CHAINS_KEY) == baseline_base


def test_compaction_rewrites_base_and_resets_log(monkeypatch) -> None:
    monkeypatch.setattr(vs_mod, "_COMPACT_EVERY", 3)
    cluster = store_cluster(n=3)
    client = SimStoreClient(cluster, site=0, client_id="c")
    for i in range(4):
        assert client.put(f"k{i}", i).ok
    app = cluster.app_at(0)
    assert app._log_len < 3
    base = dict(app.stack.storage.read(vs_mod._CHAINS_KEY))
    assert len(base) >= 3
    # Recovery replays base + whatever the log holds past compaction.
    before = provs_at(cluster, 0)
    cluster.crash(0)
    cluster.run_for(50)
    cluster.recover(0)
    assert cluster.settle(timeout=1000)
    cluster.run_for(100)
    assert provs_at(cluster, 0) >= before


# ---------------------------------------------------------------------------
# Adoption and merge policies
# ---------------------------------------------------------------------------


def _entry(epoch: int, site: int, seq: int, value: str) -> VersionEntry:
    return VersionEntry(value, Provenance(epoch, ProcessId(site, 0), seq))


def test_adopt_state_unions_with_local_chains() -> None:
    # A put can apply between the moment this replica's settlement offer
    # was snapshotted and the moment the decision arrives; adoption must
    # keep it, not clobber it with the (older) decided snapshot.
    store = VersionedStore()
    local = _entry(3, 1, 1, "local-concurrent")
    decided = _entry(2, 0, 1, "decided")
    store.chains = {"k": (local,)}
    store.adopt_state({"k": (decided,), "other": (_entry(1, 2, 1, "x"),)})
    assert store.chains["k"] == (decided, local)
    assert "other" in store.chains
    # Idempotent: adopting the same decision again changes nothing.
    snapshot = dict(store.chains)
    store.adopt_state({"k": (decided,)})
    assert store.chains == snapshot


def test_merge_app_states_drops_retired_incarnations() -> None:
    from repro.core.group_object import AppStateOffer

    store = VersionedStore()
    stale = {"k": (_entry(1, 0, 1, "old"),)}
    live = {"k": (_entry(1, 0, 1, "old"), _entry(2, 0, 2, "new"))}
    other = {"k": (_entry(2, 1, 1, "peer"),)}
    offers = [
        AppStateOffer(ProcessId(0, 0), stale, version=9, last_epoch=1),
        AppStateOffer(ProcessId(0, 1), live, version=2, last_epoch=2),
        AppStateOffer(ProcessId(1, 0), other, version=3, last_epoch=2),
    ]
    merged = store.merge_app_states(offers)
    provs = {e.prov for e in merged["k"]}
    assert provs == {
        _entry(1, 0, 1, "").prov,
        _entry(2, 0, 2, "").prov,
        _entry(2, 1, 1, "").prov,
    }


# ---------------------------------------------------------------------------
# Partitions: provenance survives divergence (satellite property test)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disjoint_partition_writes_all_survive_merge(seed: int) -> None:
    cluster = store_cluster(seed=seed)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(400)  # let each side install its own view
    majority = SimStoreClient(cluster, site=0, client_id="maj")
    minority = SimStoreClient(cluster, site=3, client_id="min")
    acked: dict[tuple, tuple[str, object]] = {}
    for i in range(4):
        put = majority.put(f"shared{i % 2}", f"maj{i}")
        if put.ok:
            acked[put.reply.prov] = (f"shared{i % 2}", f"maj{i}")
        put = minority.put(f"shared{i % 2}", f"min{i}")
        if put.ok:
            acked[put.reply.prov] = (f"shared{i % 2}", f"min{i}")
    assert acked, "no write was acked in either partition"
    cluster.heal()
    assert cluster.settle(timeout=2000)
    cluster.run_for(300)
    # Every acked write survives on every live replica, with its value
    # recorded under the exact provenance it was acked with.
    for site in range(5):
        app = cluster.app_at(site)
        for prov, (key, value) in acked.items():
            chain = app.chains.get(key, ())
            match = [e for e in chain if prov_tuple(e.prov) == prov]
            assert match and match[0].value == value, (
                f"site {site} lost acked write {prov} on {key!r}"
            )
        for chain in app.chains.values():
            assert list(chain) == sorted(chain, key=lambda e: e.prov)


# ---------------------------------------------------------------------------
# Settlement write-loss regression (the canonical seed-7 schedule)
# ---------------------------------------------------------------------------


def test_no_acked_write_lost_across_crash_recover_partition_merge() -> None:
    from repro.workload.clients import StoreClient

    cluster = Cluster(
        5, app_factory=app_factory("store", 5), config=ClusterConfig(seed=7)
    )
    assert cluster.settle(timeout=500)
    client = StoreClient(cluster, interval=12.0)
    client.start()
    cluster.run_for(100)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(200)
    cluster.crash(4)
    cluster.run_for(100)
    cluster.heal()
    cluster.recover(4)
    assert cluster.settle(timeout=3000)
    cluster.run_for(300)
    client.stop()
    reports = run_checkers(
        cluster.gather_trace(),
        make_checkers(["AckedWriteLoss"]),
        CheckContext(time_scale=cluster.time_scale),
    )
    assert reports and reports[0].checked > 0
    assert not reports[0].violations, reports[0].violations


# ---------------------------------------------------------------------------
# Same-turn put batching
# ---------------------------------------------------------------------------


def _count_traffic(cluster: Cluster, writer: int):
    """Count the writer's ``puts`` multicasts and every replica's acks."""
    multicasts: list = []
    acks = {site: 0 for site in cluster.stacks}
    stack = cluster.stack_at(writer)
    multicast = stack.multicast

    def counted_multicast(payload, trace=None):
        if getattr(payload, "op", (None,))[0] == "puts":
            multicasts.append(payload.op)
        return multicast(payload, trace)

    stack.multicast = counted_multicast
    for site in cluster.stacks:
        replica = cluster.stack_at(site)

        def counted_direct(dst, payload, site=site, send=replica.send_direct):
            if isinstance(payload, vs_mod._StoreAck):
                acks[site] += 1
            send(dst, payload)

        replica.send_direct = counted_direct
    return multicasts, acks


def _burst(cluster: Cluster, site: int, puts: list[tuple], done: list) -> list:
    """Submit ``puts`` from one scheduled callback (one turn) at ``site``."""
    handles: list = []

    def turn() -> None:
        app = cluster.app_at(site)
        for key, value, client, seq, size in puts:
            handles.append(
                app.put(key, value, client=client, client_seq=seq, size=size,
                        on_done=lambda h: done.append((cluster.now, h)))
            )

    cluster.after(1.0, turn)
    return handles


def test_same_turn_puts_share_one_multicast_and_one_ack_per_replica() -> None:
    cluster = store_cluster()
    multicasts, acks = _count_traffic(cluster, 0)
    done: list = []
    handles = _burst(
        cluster, 0, [(f"k{i}", i, "b", i + 1, 0) for i in range(5)], done
    )
    cluster.run_for(100)
    assert len(multicasts) == 1 and len(multicasts[0][1]) == 5
    assert acks == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
    assert all(h.status == "committed" for h in handles)
    assert len({when for when, _h in done}) == 1  # committed together
    tokens = [h.token for h in handles]
    assert len(set(tokens)) == 5 and tokens == sorted(tokens)
    assert all(t.writer == cluster.stack_at(0).pid for t in tokens)
    for site in range(5):
        app = cluster.app_at(site)
        for i, handle in enumerate(handles):
            assert [e.prov for e in app.chains[f"k{i}"]] == [handle.token]


def test_duplicates_within_and_across_batches_apply_once() -> None:
    cluster = store_cluster()
    multicasts, _acks = _count_traffic(cluster, 0)
    done: list = []
    first = _burst(
        cluster, 0, [("k", "v", "d", 1, 0), ("k", "v", "d", 1, 0),
                     ("j", "w", "d", 2, 0)], done,
    )
    cluster.run_for(100)
    assert len(multicasts) == 1
    assert [h.status for h in first] == ["committed"] * 3
    assert first[0].token == first[1].token != first[2].token
    # The client's retry in a later batch, next to a fresh put: the
    # retry collapses onto the original entry, the fresh put applies.
    again = _burst(cluster, 0, [("k", "v", "d", 1, 0), ("m", "x", "d", 3, 0)], done)
    cluster.run_for(100)
    assert [h.status for h in again] == ["committed"] * 2
    assert again[0].token == first[0].token
    assert len(multicasts) == 2 and len(multicasts[1][1]) == 1
    for site in range(5):
        chains = cluster.app_at(site).chains
        assert [len(chains[key]) for key in ("k", "j", "m")] == [1, 1, 1]


@pytest.mark.parametrize("disruption", ["mode", "view", "crash"])
def test_disruption_between_accept_and_flush_aborts_the_whole_batch(
    disruption: str,
) -> None:
    from repro.client.protocol import ClientRequest
    from repro.client.service import StoreService

    cluster = store_cluster()
    multicasts, _acks = _count_traffic(cluster, 0)
    app = cluster.app_at(0)
    replies: list = []

    def accept() -> None:
        service = StoreService(app)
        for i in range(4):
            service.handle_request(
                ClientRequest(i, "put", key=f"x{i}", value=i, client="z",
                              client_seq=i + 1),
                replies.append,
            )

    if disruption == "view":
        # Accept in the old view from inside the new view's delivery,
        # before the store itself sees the view change.
        on_view = app.on_view

        def hooked(eview) -> None:
            app.on_view = on_view
            accept()
            on_view(eview)

        app.on_view = hooked
        cluster.crash(4)
    else:
        def turn() -> None:
            accept()
            if disruption == "mode":
                app.automaton.mode = Mode.SETTLING
            else:
                cluster.crash(0)

        cluster.after(1.0, turn)
    cluster.run_for(300)
    assert [r.status for r in replies] == ["retry"] * 4
    assert multicasts == []
    for site in range(5):
        assert not any(k.startswith("x") for k in cluster.app_at(site).chains)


@pytest.mark.parametrize("bound", ["count", "bytes"])
def test_size_bound_splits_an_oversized_turn(bound: str) -> None:
    cluster = store_cluster()
    multicasts, acks = _count_traffic(cluster, 2)
    if bound == "count":
        n, size, batches = 2 * vs_mod._BATCH_PUTS + 5, 0, 3
    else:
        n, size, batches = 7, vs_mod._BATCH_BYTES // 3, 3
    done: list = []
    handles = _burst(
        cluster, 2, [(f"s{i}", i, "o", i + 1, size) for i in range(n)], done
    )
    cluster.run_for(200)
    assert len(multicasts) == batches
    assert sum(len(op[1]) for op in multicasts) == n
    assert acks[0] == batches and acks[2] == 0
    assert all(h.status == "committed" for h in handles)
    tokens = [h.token for h in handles]
    assert len(set(tokens)) == n and tokens == sorted(tokens)


def test_largest_batch_encodes_within_the_frame_cap() -> None:
    """A batch the byte bound admits fits one frame in either codec,
    even when the peers' codec inflates every value byte 6x (JSON
    control-character escapes) relative to the client's."""
    from types import SimpleNamespace

    from repro.client.protocol import ClientRequest, client_request_frame
    from repro.core.group_object import _OpMsg
    from repro.realnet.codec import (
        MAX_FRAME_BYTES, encode_frame, encode_value,
    )
    from repro.realnet.codec_bin import encode_value_bin
    from repro.types import Message, MessageId, ViewId

    value = "\x01" * (256 * 1024)
    request = ClientRequest(1, "put", key="k", value=value, client="c", client_seq=1)
    hint = len(client_request_frame(SimpleNamespace(binary=True), request)) - 4
    count = vs_mod._BATCH_BYTES // hint
    assert count >= 2
    items = tuple((f"k{i}", value, "c", i + 1, i + 1) for i in range(count))
    pid = ProcessId(0, 0)
    msg = Message(MessageId(pid, ViewId(1, pid), 1), _OpMsg(("puts", items)))
    assert len(encode_frame({"k": "msg", "p": encode_value(msg)})) <= MAX_FRAME_BYTES
    assert len(encode_value_bin(msg)) <= MAX_FRAME_BYTES
