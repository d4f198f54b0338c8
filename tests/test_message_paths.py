"""The shared RPC/RDMA message path: inline boundary, oversize replies and
registered pools across redials, on both designs."""

import pytest

from repro.experiments import Cluster, ClusterConfig
from repro.nfs import Nfs3Status, NfsError

THRESHOLD = ClusterConfig().profile.rpcrdma.inline_threshold

#: ``count + _REPLY_OVERHEAD > threshold`` in the Read-Write client: the
#: READDIR count above which it advertises a reply chunk.
REPLY_CHUNK_CUTOFF = THRESHOLD - 192


def _pattern(n: int, salt: int) -> bytes:
    return bytes((i * 7 + salt) % 251 for i in range(n))


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_read_write_round_trip_across_inline_boundary(transport):
    c = Cluster(ClusterConfig(transport=transport))
    nfs = c.mounts[0].nfs
    sizes = range(THRESHOLD - 256, THRESHOLD + 65, 16)

    def proc():
        mismatched = []
        for size in sizes:
            data = _pattern(size, size)
            fh, _ = yield from nfs.create(nfs.root, f"f{size}")
            written, _ = yield from nfs.write(fh, 0, data)
            got, eof, _ = yield from nfs.read(fh, 0, size)
            if written != size or got != data or not eof:
                mismatched.append(size)
        return mismatched

    assert c.run(proc()) == []


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_readdir_counts_across_reply_chunk_cutoff(transport):
    c = Cluster(ClusterConfig(transport=transport))
    nfs = c.mounts[0].nfs
    names = {f"entry{i:02d}" for i in range(12)}
    counts = range(REPLY_CHUNK_CUTOFF - 64, REPLY_CHUNK_CUTOFF + 65, 16)

    def proc():
        dir_fh, _ = yield from nfs.mkdir(nfs.root, "d")
        for name in sorted(names):
            yield from nfs.create(dir_fh, name)
        listings = []
        for count in counts:
            entries = yield from nfs.readdir(dir_fh, count)
            listings.append({e.name for e in entries} - {".", ".."})
        return listings

    assert c.run(proc()) == [names] * len(counts)


def _populated_dir(c, nfs, nentries):
    def proc():
        dir_fh, _ = yield from nfs.mkdir(nfs.root, "big")
        for i in range(nentries):
            yield from nfs.create(dir_fh, f"file-with-a-longish-name-{i:05d}")
        return dir_fh

    return c.run(proc())


@pytest.mark.parametrize(("nentries", "verb", "count"), [
    (3500, "readdir", None),
    (60, "readdir", REPLY_CHUNK_CUTOFF),
    (60, "readdirplus", 4096),
])
def test_read_write_reply_too_large_for_chunk_is_io_error(nentries, verb, count):
    """A READDIR reply larger than the client's reply chunk (or too large
    to go inline when none was advertised) is answered with an error
    reply: the caller gets NFS3ERR_IO and the connection stays up."""
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    nfs = c.mounts[0].nfs
    dir_fh = _populated_dir(c, nfs, nentries)
    server = c.server_transports[0]
    args = () if count is None else (count,)

    def listing():
        try:
            yield from getattr(nfs, verb)(dir_fh, *args)
        except NfsError as exc:
            return exc.status
        return "listed"

    assert c.run(listing()) is Nfs3Status.IO
    assert server.replies_too_large.events == 1
    assert not server.failed

    def follow_up():
        for _ in range(3):
            yield from nfs.getattr(dir_fh)

    c.run(follow_up())
    assert c.mounts[0].transport.reconnects.events == 0


@pytest.mark.parametrize("transport", ["rdma-rr", "tcp-ipoib"])
def test_large_directory_lists_where_the_reply_can_grow(transport):
    """The same 3,500-entry directory lists in full where the reply is
    not bounded by a client-advertised chunk."""
    c = Cluster(ClusterConfig(transport=transport))
    nfs = c.mounts[0].nfs
    dir_fh = _populated_dir(c, nfs, 3500)
    entries = c.run(nfs.readdir(dir_fh))
    assert len({e.name for e in entries} - {".", ".."}) == 3500


@pytest.mark.parametrize("transport", ["rdma-rr", "rdma-rw"])
def test_redials_leave_client_registrations_flat(transport):
    """Every redial tears down the registered pools it replaces: TPT
    entries, arena bytes and pool sizes match before and after."""
    c = Cluster(ClusterConfig(transport=transport))
    mount = c.mounts[0]
    nfs, client = mount.nfs, mount.transport
    data = _pattern(256 * 1024, 3)

    def warm():
        fh, _ = yield from nfs.create(nfs.root, "kept")
        yield from nfs.write(fh, 0, data)
        return fh

    fh = c.run(warm())

    def snapshot():
        c.sim.run(until=c.sim.now + 1_000.0)  # let send completions settle
        node = client.node
        return (node.hca.tpt.live_entries, node.arena.allocated_bytes,
                [(len(pool.regions), len(pool.free)) for pool in client.pools])

    before = snapshot()
    for _ in range(3):
        client.qp.enter_error("injected fault")
        client.qp.peer.enter_error("injected fault (remote)")
        got, _, _ = c.run(nfs.read(fh, 0, len(data)))
        assert got == data
    assert client.reconnects.events == 3
    assert snapshot() == before
    if transport == "rdma-rr":
        assert len(client.bounce_pool.free) == c.config.profile.rpcrdma.bounce_pool_entries
