"""Pure-numpy NetCDF-4 (HDF5) reader + minimal fixture writer.

Modern climate products are NetCDF-4 — HDF5 containers following the
netCDF-4 conventions — while the reference's committed fixtures are classic
CDF-1 (handled by netcdfio).  The reference reads both through GDAL
(/root/reference/tests/data_tests/tests_data.py:154 drives .nc rasters);
no HDF5 library exists in this environment, so the HDF5 file format (a
public spec) is parsed directly.

Supported surface — BOTH libhdf5 dialects netCDF-4 files come in:
- earliest-compat (the netCDF-4 default): superblock v0, version-1 object
  headers, symbol-table groups (B-tree v1 + local heap + SNOD nodes);
- latest bounds: superblock v2/v3 (checksummed, VALIDATED on read),
  version-2 "OHDR" object headers (checksummed chunks + OCHK
  continuations, validated), compact Link-Info/Link-message groups,
  version-3 attributes, version-2 dataspaces.
Shared across both: contiguous and chunked (B-tree v1 indexed) dataset
layouts, deflate + shuffle filters (pipeline message v1 and v2),
fixed-point / float / string datatypes, and the netCDF-4 dimension
conventions (CLASS="DIMENSION_SCALE" coordinate variables referenced from
data variables' DIMENSION_LIST vlen-of-object-reference attributes via the
global heap).  Latest-bounds NEW chunked datasets use version-4 data
layout messages — supported chunk indexes: single chunk (type 1, incl.
the filtered-single-chunk flag), implicit (type 2), fixed array (type 3:
FAHD header + unpaged FADB data block), extensible array (type 4: EAHD /
EAIB index block / EADB data blocks / EASB super blocks — ONE unlimited
dimension, the netCDF record-dimension shape) and version-2 B-tree
(type 5: BTHD / BTIN / BTLF, record types 10 and 11 — more than one
unlimited dimension), every block Jenkins-checksummed and validated on
read.  Dense link storage (the libhdf5 phase change above 8 links —
fractal heap of Link messages + name-index v2 B-tree record type 5) is
read for both heap shapes libhdf5 emits: root direct block, and root
indirect block with doubling-table rows of direct blocks; heap header,
direct blocks and B-tree nodes are all checksum-validated.  Dense
ATTRIBUTE storage (Attribute Info message, phase change above 8
attributes — fractal heap of v3 Attribute bodies + name-index v2
B-tree record type 8) is read through the same machinery, so
many-attribute real-world objects (CF-conventions global metadata)
resolve, including _FillValue and DIMENSION_LIST stored densely.
Paged
fixed-array AND extensible-array data blocks (> 2^page_bits chunks or
elements — any large tiled raster / long record dimension) are read
with initialized-page bitmaps and per-page checksums validated.  Out of scope, raising a clear error naming the
feature: filtered fractal heaps, huge/tiny heap objects, nested
indirect blocks, extensible arrays whose unlimited dimension is not
the leading one (swizzled chunk order), and external/user-defined
links (root-level SOFT links resolve
as dataset aliases; dangling ones are skipped, as h5py lists them).

The writer exists to synthesize test fixtures (no HDF5 library can create
them here) and emits both dialects, so every reader branch is exercised;
byte-level golden tests pin the layout to spec-documented signatures
("TREE", "HEAP", "SNOD", "GCOL", "OHDR") and the checksums to Jenkins
lookup3's published self-test vectors rather than to the writer itself.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89HDF\r\n\x1a\n"
_UNDEF = 0xFFFFFFFFFFFFFFFF

# message type ids (HDF5 spec IV.A.2)
_M_NIL = 0x0000
_M_DATASPACE = 0x0001
_M_LINKINFO = 0x0002
_M_DATATYPE = 0x0003
_M_LINK = 0x0006
_M_FILLVALUE = 0x0005
_M_LAYOUT = 0x0008
_M_FILTERS = 0x000B
_M_ATTRIBUTE = 0x000C
_M_AINFO = 0x0015
_M_CONTINUATION = 0x0010
_M_SYMBOL_TABLE = 0x0011

_FILTER_DEFLATE = 1
_FILTER_SHUFFLE = 2


def is_hdf5(path: str) -> bool:
    with open(path, "rb") as f:
        return f.read(8) == _SIG


def jenkins_lookup3(data: bytes, init: int = 0) -> int:
    """Bob Jenkins' lookup3 hashlittle — the checksum HDF5 applies to v2+
    superblocks and version-2 object header chunks.  Pinned in tests to the
    published lookup3.c self-test vectors."""
    def rot(x, k):
        return ((x << k) | (x >> (32 - k))) & 0xFFFFFFFF

    a = b = c = (0xDEADBEEF + len(data) + init) & 0xFFFFFFFF
    i, n = 0, len(data)
    while n > 12:
        a = (a + int.from_bytes(data[i:i + 4], "little")) & 0xFFFFFFFF
        b = (b + int.from_bytes(data[i + 4:i + 8], "little")) & 0xFFFFFFFF
        c = (c + int.from_bytes(data[i + 8:i + 12], "little")) & 0xFFFFFFFF
        a = (a - c) & 0xFFFFFFFF; a ^= rot(c, 4); c = (c + b) & 0xFFFFFFFF
        b = (b - a) & 0xFFFFFFFF; b ^= rot(a, 6); a = (a + c) & 0xFFFFFFFF
        c = (c - b) & 0xFFFFFFFF; c ^= rot(b, 8); b = (b + a) & 0xFFFFFFFF
        a = (a - c) & 0xFFFFFFFF; a ^= rot(c, 16); c = (c + b) & 0xFFFFFFFF
        b = (b - a) & 0xFFFFFFFF; b ^= rot(a, 19); a = (a + c) & 0xFFFFFFFF
        c = (c - b) & 0xFFFFFFFF; c ^= rot(b, 4); b = (b + a) & 0xFFFFFFFF
        i += 12
        n -= 12
    if n:
        tail = data[i:] + b"\x00" * (12 - n)
        a = (a + int.from_bytes(tail[0:4], "little")) & 0xFFFFFFFF
        b = (b + int.from_bytes(tail[4:8], "little")) & 0xFFFFFFFF
        c = (c + int.from_bytes(tail[8:12], "little")) & 0xFFFFFFFF
        c ^= b; c = (c - rot(b, 14)) & 0xFFFFFFFF
        a ^= c; a = (a - rot(c, 11)) & 0xFFFFFFFF
        b ^= a; b = (b - rot(a, 25)) & 0xFFFFFFFF
        c ^= b; c = (c - rot(b, 16)) & 0xFFFFFFFF
        a ^= c; a = (a - rot(c, 4)) & 0xFFFFFFFF
        b ^= a; b = (b - rot(a, 14)) & 0xFFFFFFFF
        c ^= b; c = (c - rot(b, 24)) & 0xFFFFFFFF
    return c


# ---------------------------------------------------------------- datatypes

def _encode_dtype(dt: np.dtype) -> bytes:
    """Datatype message body for the numpy dtypes the writer emits."""
    dt = np.dtype(dt)
    if dt.kind in "iu":
        cls, ver = 0, 1
        bits = 0x08 if dt.kind == "i" else 0x00   # bit 3: signed
        props = struct.pack("<HH", 0, dt.itemsize * 8)
    elif dt.kind == "f":
        cls, ver = 1, 1
        if dt.itemsize == 4:
            props = struct.pack("<HHBBBBI", 0, 32, 23, 8, 0, 23, 127)
        else:
            props = struct.pack("<HHBBBBI", 0, 64, 52, 11, 0, 52, 1023)
        # bits 4-5: mantissa normalization (2 = implied msb, IEEE);
        # bits 8-15: sign bit position
        bits = (2 << 4) | ((dt.itemsize * 8 - 1) << 8)
    else:
        raise NotImplementedError(f"writer dtype {dt}")
    head = struct.pack("<B", (ver << 4) | cls)
    return head + struct.pack("<BBB", bits & 0xFF, (bits >> 8) & 0xFF,
                              (bits >> 16) & 0xFF) \
        + struct.pack("<I", dt.itemsize) + props


def _encode_string_dtype(n: int) -> bytes:
    # class 3 string, null-padded ascii
    return struct.pack("<BBBBI", (1 << 4) | 3, 0, 0, 0, n)


def _encode_ref_dtype() -> bytes:
    # class 7 reference, type 0 = object reference
    return struct.pack("<BBBBI", (1 << 4) | 7, 0, 0, 0, 8)


def _encode_vlen_of_ref_dtype() -> bytes:
    # class 9 vlen, type 0 = sequence; base type follows
    return struct.pack("<BBBBI", (1 << 4) | 9, 0, 0, 0, 16) \
        + _encode_ref_dtype()


def _decode_dtype(buf: bytes, pos: int = 0):
    """-> (numpy dtype | ('vlen', base) | ('ref',) | ('str', n), bytes used)."""
    b0 = buf[pos]
    ver, cls = b0 >> 4, b0 & 0x0F
    bits = buf[pos + 1] | (buf[pos + 2] << 8) | (buf[pos + 3] << 16)
    size = struct.unpack_from("<I", buf, pos + 4)[0]
    used = 8
    order = ">" if (bits & 1) else "<"
    if cls == 0:                                   # fixed point
        kind = "i" if (bits & 0x08) else "u"
        return np.dtype(f"{order}{kind}{size}"), used + 4
    if cls == 1:                                   # float
        return np.dtype(f"{order}f{size}"), used + 12
    if cls == 3:                                   # string
        return ("str", size), used
    if cls == 7:                                   # reference
        return ("ref",), used
    if cls == 9:                                   # vlen
        base, bused = _decode_dtype(buf, pos + 8)
        return ("vlen", base), used + bused
    raise NotImplementedError(f"HDF5 datatype class {cls}")


# ------------------------------------------------------------------ writer

class _W:
    """Append-only buffer with address bookkeeping + backpatching."""

    def __init__(self):
        self.buf = bytearray()

    def tell(self) -> int:
        return len(self.buf)

    def add(self, b: bytes) -> int:
        a = len(self.buf)
        self.buf += b
        return a

    def patch_u64(self, at: int, v: int):
        struct.pack_into("<Q", self.buf, at, v)


def _pad8(b: bytes) -> bytes:
    return b + b"\x00" * (-len(b) % 8)


def _msg(mtype: int, body: bytes) -> bytes:
    """v1 object-header message: u16 type, padded body."""
    body = _pad8(body)
    return struct.pack("<HHB3x", mtype, len(body), 0) + body


def _msg2(mtype: int, body: bytes) -> bytes:
    """v2 (OHDR) object-header message: u8 type, unpadded body."""
    return struct.pack("<BHB", mtype, len(body), 0) + body


def _attr_body(name: str, dt_body: bytes, ds_body: bytes,
               data: bytes, v3: bool) -> bytes:
    nb = name.encode() + b"\x00"
    if v3:
        return struct.pack("<BBHHHB", 3, 0, len(nb), len(dt_body),
                           len(ds_body), 0) \
            + nb + dt_body + ds_body + data
    body = struct.pack("<BxHHH", 1, len(nb), len(dt_body), len(ds_body))
    return body + _pad8(nb) + _pad8(dt_body) + _pad8(ds_body) + data


def _dataspace_body(shape: tuple[int, ...], v2: bool = False,
                    nunlim: int = 0) -> bytes:
    """nunlim: mark the first `nunlim` dimensions unlimited (maxdims
    present, H5S_UNLIMITED) — the record-dimension shapes that make real
    libhdf5 pick an extensible-array (1 unlimited dim) or v2-B-tree
    (>1 unlimited dims) chunk index."""
    flags = 1 if nunlim and shape else 0
    if v2:
        body = struct.pack("<BBBB", 2, len(shape), flags,
                           0 if not shape else 1)
    else:
        body = struct.pack("<BBB5x", 1, len(shape), flags)
    for d in shape:
        body += struct.pack("<Q", d)
    if flags:
        for i, d in enumerate(shape):
            body += struct.pack("<Q", _UNDEF if i < nunlim else d)
    return body


def _object_header(messages: list[bytes]) -> bytes:
    blob = b"".join(messages)
    return struct.pack("<BxHII4x", 1, len(messages), 1, len(blob)) + blob


def _object_header_v2(messages: list[bytes]) -> bytes:
    """Version-2 ("OHDR") header: flags 0x02 = 4-byte chunk-0 size, no
    times/phase-change/creation-order; trailing Jenkins-lookup3 checksum
    over signature..end-of-messages (the libhdf5 convention)."""
    blob = b"".join(messages)
    head = b"OHDR" + struct.pack("<BB", 2, 0x02) \
        + struct.pack("<I", len(blob))
    return head + blob + struct.pack("<I", jenkins_lookup3(head + blob))


def _emit_v4_index(w: _W, blobs, arr, cshape, compress) -> bytes:
    """Chunk data + a version-4 layout message body: single-chunk index when
    the grid is one chunk (libhdf5's choice), else a fixed-array index
    (FAHD + unpaged FADB, both Jenkins-checksummed)."""
    chunk_addrs = [w.add(raw) for _c, raw in blobs]
    ndims = arr.ndim + 1                    # + element-size dim, as libhdf5
    dims = tuple(cshape) + (arr.itemsize,)
    head = struct.pack("<BBBBB", 4, 2, 0x02 if (compress and
                                                len(blobs) == 1) else 0,
                       ndims, 8)
    for v in dims:
        head += struct.pack("<Q", v)
    if len(blobs) == 1:
        body = head + struct.pack("<B", 1)  # single-chunk index
        if compress:
            body += struct.pack("<QI", len(blobs[0][1]), 0)
        return body + struct.pack("<Q", chunk_addrs[0])
    pbits = 10                              # libhdf5 default page size 2^10
    if compress:
        cbytes = max(len(raw) for _c, raw in blobs)
        szlen = (max(cbytes, 1).bit_length() + 7) // 8
        entsize = 8 + szlen + 4
        client = 1
    else:
        entsize, client = 8, 0

    def entry(raw, a):
        e = struct.pack("<Q", a)
        if client == 1:
            e += len(raw).to_bytes(szlen, "little")
            e += struct.pack("<I", 0)       # filter mask
        return e

    fahd_at = w.tell()
    fadb_at = fahd_at + 28
    fahd = b"FAHD" + struct.pack("<BBBBQQ", 0, client, entsize, pbits,
                                 len(blobs), fadb_at)
    fahd += struct.pack("<I", jenkins_lookup3(fahd))
    page = 1 << pbits
    if len(blobs) <= page:
        fadb = b"FADB" + struct.pack("<BBQ", 0, client, fahd_at)
        for (_c, raw), a in zip(blobs, chunk_addrs):
            fadb += entry(raw, a)
        fadb += struct.pack("<I", jenkins_lookup3(fadb))
    else:
        # paged data block (> 2^page_bits chunks — any large raster):
        # header + all-initialized page bitmap + checksum, then pages of
        # `page` entries, EACH with its own trailing checksum
        npages = -(-len(blobs) // page)
        bitmap = bytearray(-(-npages // 8))
        for i in range(npages):
            bitmap[i >> 3] |= 1 << (i & 7)
        fadb = b"FADB" + struct.pack("<BBQ", 0, client, fahd_at)             + bytes(bitmap)
        fadb += struct.pack("<I", jenkins_lookup3(fadb))
        for i in range(npages):
            pg = b"".join(entry(raw, a) for (_c, raw), a in
                          zip(blobs[i * page:(i + 1) * page],
                              chunk_addrs[i * page:(i + 1) * page]))
            fadb += pg + struct.pack("<I", jenkins_lookup3(pg))
    w.add(fahd + fadb)
    return head + struct.pack("<BB", 3, pbits) + struct.pack("<Q", fahd_at)


# ---- extensible-array chunk index (HDF5 spec III.F; what latest-bounds
# libhdf5 writes for a NEW chunked dataset with exactly ONE unlimited
# dimension — the netCDF "record dimension" shape).  Creation parameters
# pinned to libhdf5's chunk-index defaults (H5Dearray: max_nelmts_bits=32,
# idx_blk_elmts=4, data_blk_min_elmts=16, sup_blk_min_data_ptrs=4,
# max_dblk_page_nelmts_bits=10).

_EA_DEFAULTS = (32, 4, 16, 4, 10)


def _log2_of2(v: int) -> int:
    return v.bit_length() - 1


def _ea_geometry(max_bits: int, idx_elmts: int, dblk_min: int,
                 sblk_min_ptrs: int):
    """Derived extensible-array geometry, mirroring libhdf5's header init:
    super block u holds 2^(u//2) data blocks of dblk_min * 2^((u+1)//2)
    elements; the index block inline-stores the first idx_elmts elements
    plus the data-block addresses of the first 2*log2(sblk_min_ptrs) super
    blocks (= 2*(sblk_min_ptrs-1) addresses) and one address per remaining
    super block."""
    nsblks = 1 + (max_bits - _log2_of2(dblk_min))
    ndblk_addrs = 2 * (sblk_min_ptrs - 1)
    first_sblk = 2 * _log2_of2(sblk_min_ptrs)
    nsblk_addrs = nsblks - first_sblk
    arr_off = (max_bits + 7) // 8
    sblks = []                        # (ndblks, dblk_nelmts, start_idx)
    start = 0
    for u in range(nsblks):
        nd = 1 << (u // 2)
        ne = dblk_min << ((u + 1) // 2)
        sblks.append((nd, ne, start))
        start += nd * ne
    return nsblks, ndblk_addrs, first_sblk, nsblk_addrs, arr_off, sblks


def _chunk_size_len(cbytes: int) -> int:
    """libhdf5's stored-size field width for filtered chunk records:
    1 + (floor(log2(unfiltered chunk bytes)) + 8) // 8, capped at 8."""
    return min(8, 1 + (_log2_of2(max(cbytes, 1)) + 8) // 8)


def _emit_earray_index(w: _W, blobs, arr, cshape, compress,
                       page_bits: int | None = None) -> bytes:
    """Chunk data + layout-v4 body with an extensible-array index: EAHD
    header, EAIB index block, EADB data blocks and (past the index block's
    direct pointers) EASB super blocks, all Jenkins-checksummed.  Data
    blocks above 2^page_bits elements emit PAGED (header checksummed
    alone, then pages of 2^page_bits elements each with its own
    checksum, page-init bitmap in the owning super block); `page_bits`
    overrides libhdf5's default 10 so fixtures can reach the paged shape
    without six-figure chunk counts."""
    chunk_addrs = [w.add(raw) for _c, raw in blobs]
    n = len(blobs)
    max_bits, idx_elmts, dblk_min, sblk_min_ptrs, dflt_pb = _EA_DEFAULTS
    page_bits = dflt_pb if page_bits is None else page_bits
    page = 1 << page_bits
    if compress:
        szlen = _chunk_size_len(int(np.prod(cshape)) * arr.itemsize)
        esize, client = 8 + szlen + 4, 1
    else:
        szlen, esize, client = 0, 8, 0
    (nsblks, ndblk_addrs, first_sblk, nsblk_addrs, arr_off,
     sblks) = _ea_geometry(max_bits, idx_elmts, dblk_min, sblk_min_ptrs)

    def elem(i: int) -> bytes:
        if i < n:
            b = struct.pack("<Q", chunk_addrs[i])
            if client:
                b += len(blobs[i][1]).to_bytes(szlen, "little")
                b += struct.pack("<I", 0)            # filter mask
        else:
            b = struct.pack("<Q", _UNDEF)
            if client:
                b += b"\x00" * (szlen + 4)
        return b

    # ---- plan which data/super blocks exist (normalized element space =
    # indices past the idx_elmts inline elements)
    extra = max(0, n - idx_elmts)
    dblks = []                        # (sblk u, start_norm, nelmts)
    for u, (nd, ne, start) in enumerate(sblks):
        for j in range(nd):
            s = start + j * ne
            if s >= extra:
                break
            dblks.append((u, s, ne))
        if start + nd * ne >= extra:
            break
    need_sblks = sorted({u for u, _s, _e in dblks if u >= first_sblk})

    # ---- assign addresses: EAHD, EAIB, direct EADBs, then per-super-block
    # EASB followed by its EADBs

    def dblk_size(ne: int) -> int:
        if ne <= page:
            return 6 + 8 + arr_off + ne * esize + 4
        npg = ne // page
        return 6 + 8 + arr_off + 4 + npg * (page * esize + 4)

    def sblk_size(u: int) -> int:
        nd, ne, _start = sblks[u]
        bl = -(-(nd * (ne // page)) // 8) if ne > page else 0
        return 6 + 8 + arr_off + bl + nd * 8 + 4

    hdr_at = w.tell()
    hdr_size = 12 + 6 * 8 + 8 + 4
    ib_at = hdr_at + hdr_size
    ib_size = 6 + 8 + idx_elmts * esize + (ndblk_addrs + nsblk_addrs) * 8 + 4
    at = ib_at + ib_size
    dblk_at = {}
    for u, s, ne in dblks:
        if u < first_sblk:
            dblk_at[(u, s)] = at
            at += dblk_size(ne)
    sblk_at = {}
    for u in need_sblks:
        nd, ne, start = sblks[u]
        sblk_at[u] = at
        at += sblk_size(u)
        for j in range(nd):
            s = start + j * ne
            if any(du == u and ds == s for du, ds, _ in dblks):
                dblk_at[(u, s)] = at
                at += dblk_size(ne)

    # ---- emit (asserting the plan)
    hdr = b"EAHD" + struct.pack("<8B", 0, client, esize, max_bits,
                                idx_elmts, dblk_min, sblk_min_ptrs,
                                page_bits)
    hdr += struct.pack("<6Q", len(need_sblks),
                       sum(sblk_size(u) for u in need_sblks),
                       len(dblks),
                       sum(dblk_size(ne) for _u, _s, ne in dblks),
                       n, n)
    hdr += struct.pack("<Q", ib_at)
    hdr += struct.pack("<I", jenkins_lookup3(hdr))
    assert w.add(hdr) == hdr_at

    ib = b"EAIB" + struct.pack("<BB", 0, client) + struct.pack("<Q", hdr_at)
    for i in range(idx_elmts):
        ib += elem(i)
    di = 0
    for u, (nd, ne, start) in enumerate(sblks[:first_sblk]):
        for j in range(nd):
            ib += struct.pack("<Q", dblk_at.get((u, start + j * ne),
                                                _UNDEF))
            di += 1
    assert di == ndblk_addrs
    for u in range(first_sblk, nsblks):
        ib += struct.pack("<Q", sblk_at.get(u, _UNDEF))
    ib += struct.pack("<I", jenkins_lookup3(ib))
    assert w.add(ib) == ib_at

    def emit_dblk(u, s, ne):
        db = b"EADB" + struct.pack("<BB", 0, client) \
            + struct.pack("<Q", hdr_at) + s.to_bytes(arr_off, "little")
        if ne <= page:
            for i in range(ne):
                db += elem(idx_elmts + s + i)
            db += struct.pack("<I", jenkins_lookup3(db))
        else:
            # paged: header checksummed alone; then full pages, each
            # with its own trailing checksum
            db += struct.pack("<I", jenkins_lookup3(db))
            for pg0 in range(0, ne, page):
                pgb = b"".join(elem(idx_elmts + s + pg0 + i)
                               for i in range(page))
                db += pgb + struct.pack("<I", jenkins_lookup3(pgb))
        assert w.add(db) == dblk_at[(u, s)]

    for u, s, ne in dblks:
        if u < first_sblk:
            emit_dblk(u, s, ne)
    for u in need_sblks:
        nd, ne, start = sblks[u]
        sb = b"EASB" + struct.pack("<BB", 0, client) \
            + struct.pack("<Q", hdr_at) + start.to_bytes(arr_off, "little")
        if ne > page:
            # page-init bitmap: all pages of EXISTING blocks are written
            npg = ne // page
            bm = bytearray(-(-(nd * npg) // 8))
            for j in range(nd):
                if (u, start + j * ne) in dblk_at:
                    for q in range(npg):
                        bit = j * npg + q
                        bm[bit >> 3] |= 1 << (bit & 7)
            sb += bytes(bm)
        for j in range(nd):
            sb += struct.pack("<Q", dblk_at.get((u, start + j * ne),
                                                _UNDEF))
        sb += struct.pack("<I", jenkins_lookup3(sb))
        assert w.add(sb) == sblk_at[u]
        for u2, s, ne2 in dblks:
            if u2 == u:
                emit_dblk(u, s, ne2)

    ndims = arr.ndim + 1
    head = struct.pack("<BBBBB", 4, 2, 0, ndims, 8)
    for v in tuple(cshape) + (arr.itemsize,):
        head += struct.pack("<Q", v)
    return head + struct.pack("<6B", 4, max_bits, idx_elmts,
                              sblk_min_ptrs, dblk_min, page_bits) \
        + struct.pack("<Q", hdr_at)


def _emit_btree2_index(w: _W, blobs, arr, cshape, compress,
                       node_size: int = 2048) -> bytes:
    """Chunk data + layout-v4 body with a version-2 B-tree index (HDF5
    spec III.A.2, record types 10/11 — what latest-bounds libhdf5 writes
    for NEW chunked datasets with >1 unlimited dimension): BTHD header +
    BTLF leaves (+ one BTIN internal root when records overflow a leaf),
    records = chunk address [+ stored size + filter mask] + scaled
    offsets, all Jenkins-checksummed."""
    chunk_addrs = [w.add(raw) for _c, raw in blobs]
    rank = arr.ndim
    if compress:
        csl = _chunk_size_len(int(np.prod(cshape)) * arr.itemsize)
        rrec, btype = 12 + csl + 8 * rank, 11
    else:
        csl, rrec, btype = 0, 8 + 8 * rank, 10

    def rec(i: int) -> bytes:
        coords, raw = blobs[i]
        b = struct.pack("<Q", chunk_addrs[i])
        if compress:
            b += len(raw).to_bytes(csl, "little") + struct.pack("<I", 0)
        for o, c in zip(coords[:rank], cshape[:rank]):
            b += struct.pack("<Q", o // c)
        return b

    n = len(blobs)                    # blobs are in row-major scaled order
    leaf_max = (node_size - 10) // rrec
    mns = (leaf_max.bit_length() + 7) // 8      # max_nrec_size

    def node(sig: bytes, body: bytes) -> bytes:
        blob = sig + struct.pack("<BB", 0, btype) + body
        return blob + struct.pack("<I", jenkins_lookup3(blob))

    if n <= leaf_max:
        depth, root_nrec = 0, n
        root_at = w.add(node(b"BTLF", b"".join(rec(i) for i in range(n))))
    else:
        nleaves = 2
        while nleaves * leaf_max + (nleaves - 1) < n:
            nleaves += 1
        int_ptr = 8 + mns
        int_max = (node_size - (10 + int_ptr)) // (rrec + int_ptr)
        if nleaves - 1 > int_max:
            raise NotImplementedError(
                "fixture writer: depth>1 v2 B-tree (raise node_size)")
        per = (n - (nleaves - 1)) // nleaves
        extra = (n - (nleaves - 1)) % nleaves
        leaves, seps, i = [], [], 0
        for li in range(nleaves):
            cnt = per + (1 if li < extra else 0)
            leaf_recs = b"".join(rec(j) for j in range(i, i + cnt))
            leaves.append((w.add(node(b"BTLF", leaf_recs)), cnt))
            i += cnt
            if li < nleaves - 1:
                seps.append(rec(i))
                i += 1
        assert i == n
        body = b"".join(seps)
        for a, cnt in leaves:
            body += struct.pack("<Q", a) + cnt.to_bytes(mns, "little")
        depth, root_nrec = 1, nleaves - 1
        root_at = w.add(node(b"BTIN", body))

    hd = b"BTHD" + struct.pack("<BBIHHBB", 0, btype, node_size, rrec,
                               depth, 100, 40)
    hd += struct.pack("<QHQ", root_at, root_nrec, n)
    hdr_at = w.add(hd + struct.pack("<I", jenkins_lookup3(hd)))

    ndims = arr.ndim + 1
    head = struct.pack("<BBBBB", 4, 2, 0, ndims, 8)
    for v in tuple(cshape) + (arr.itemsize,):
        head += struct.pack("<Q", v)
    return head + struct.pack("<BIBB", 5, node_size, 100, 40) \
        + struct.pack("<Q", hdr_at)


def _emit_data_and_layout(w: _W, arr: np.ndarray, chunks, compress,
                          msgs: list, mk, chunk_index: str = "btree1",
                          bt2_node_size: int = 2048,
                          ea_page_bits: int | None = None):
    """Write the array's bytes (contiguous or chunked+filtered) and append
    the filter/layout messages via `mk`.  chunk_index: "btree1" (layout v3,
    the dialect-shared index), "v4" (layout v4: single-chunk or fixed-array
    index — fixed-size datasets under latest bounds), "earray" (layout v4
    extensible-array index — ONE unlimited dimension) or "btree2" (layout
    v4 version-2-B-tree index — >1 unlimited dimensions)."""
    if arr.ndim >= 2:
        cy, cx = chunks or (min(arr.shape[-2], 16), min(arr.shape[-1], 16))
        cshape = arr.shape[:-2] + (cy, cx)
        if compress:
            # v1 pipeline, 2 filters; odd client-value counts pad to 8
            fil = struct.pack("<BB6x", 1, 2)
            fil += struct.pack("<HHHH", _FILTER_SHUFFLE, 0, 1, 1)
            fil += struct.pack("<I", arr.itemsize) + b"\x00" * 4
            fil += struct.pack("<HHHH", _FILTER_DEFLATE, 0, 1, 1)
            fil += struct.pack("<I", 6) + b"\x00" * 4
            msgs.append(mk(_M_FILTERS, fil))
        grid = [range(0, s, c) for s, c in zip(arr.shape, cshape)]
        coords = [()]
        for axis in grid:
            coords = [c + (o,) for c in coords for o in axis]
        blobs = []
        for c in coords:
            sl = tuple(slice(o, o + cs) for o, cs in zip(c, cshape))
            chunk = np.zeros(cshape, arr.dtype)
            part = arr[sl]
            chunk[tuple(slice(0, s) for s in part.shape)] = part
            raw = chunk.tobytes()
            if compress:
                raw = _shuffle(raw, arr.itemsize)
                raw = zlib.compress(raw, 6)
            blobs.append((c, raw))
        if chunk_index == "v4":
            msgs.append(mk(_M_LAYOUT,
                           _emit_v4_index(w, blobs, arr, cshape, compress)))
            return
        if chunk_index == "earray":
            msgs.append(mk(_M_LAYOUT, _emit_earray_index(
                w, blobs, arr, cshape, compress,
                page_bits=ea_page_bits)))
            return
        if chunk_index == "btree2":
            msgs.append(mk(_M_LAYOUT, _emit_btree2_index(
                w, blobs, arr, cshape, compress, bt2_node_size)))
            return
        chunk_addrs = [w.add(raw) for _c, raw in blobs]
        bt = struct.pack("<4sBBHQQ", b"TREE", 1, 0, len(blobs),
                         _UNDEF, _UNDEF)
        for (c, raw), a in zip(blobs, chunk_addrs):
            key = struct.pack("<II", len(raw), 0)
            for o in c:
                key += struct.pack("<Q", o)
            key += struct.pack("<Q", 0)             # trailing elem offset
            bt += key + struct.pack("<Q", a)
        endkey = struct.pack("<II", 0, 0)
        for s in arr.shape:
            endkey += struct.pack("<Q", s)
        endkey += struct.pack("<Q", 0)
        bt += endkey
        bt_addr = w.add(bt)
        lay = struct.pack("<BB", 3, 2) + struct.pack("<B", arr.ndim + 1)
        lay += struct.pack("<Q", bt_addr)
        for cs in cshape:
            lay += struct.pack("<I", cs)
        lay += struct.pack("<I", arr.itemsize)
        msgs.append(mk(_M_LAYOUT, lay))
    else:
        daddr = w.add(arr.tobytes())
        lay = struct.pack("<BBQQ", 3, 1, daddr, arr.nbytes)
        msgs.append(mk(_M_LAYOUT, lay))


def _emit_fractal_heap(w: "_W", objects: list[bytes],
                       off_sz: int, len_sz: int):
    """Emit a fractal heap holding `objects` as managed objects.  Small
    heaps get a root DIRECT block; heaps that outgrow one block get a
    root INDIRECT block whose doubling-table rows (width 4, 512-byte
    start, doubling from row 2) hold the direct blocks — both shapes
    libhdf5 writes, so both reader paths are exercised.  Returns
    (heap_header_addr, [(heap_off, len) per object])."""
    WIDTH, START, MAXD = 4, 512, 65536
    db_hdr = 4 + 1 + 8 + off_sz + 4          # sig ver haddr boff cksum

    def row_size(r: int) -> int:
        return START if r < 2 else START << (r - 1)

    # greedy packing in doubling-table order; ids are heap-space offsets
    blocks: list[tuple[int, int, list[bytes]]] = []
    ids: list[tuple[int, int]] = []
    heap_off, bi, idx, free = 0, 0, 0, 0
    while idx < len(objects):
        size = row_size(bi // WIDTH)
        if size > MAXD:
            raise NotImplementedError("dense fixture exceeds the "
                                      "writer's direct-row capacity")
        objs, cur = [], heap_off + db_hdr
        while idx < len(objects) and \
                cur + len(objects[idx]) <= heap_off + size:
            objs.append(objects[idx])
            ids.append((cur, len(objects[idx])))
            cur += len(objects[idx])
            idx += 1
        free += heap_off + size - cur
        blocks.append((heap_off, size, objs))
        heap_off += size
        bi += 1

    db_addrs = []
    for boff, size, objs in blocks:
        db = bytearray(struct.pack("<4sB", b"FHDB", 0))
        db += struct.pack("<Q", 0)                      # haddr (patched)
        db += boff.to_bytes(off_sz, "little")
        db += b"\x00\x00\x00\x00"                       # cksum (patched)
        for body in objs:                    # packed sequentially
            db += body
        db += b"\x00" * (size - len(db))
        db_addrs.append(w.add(bytes(db)))

    if not blocks:
        root_addr, cur_rows, ib_at = _UNDEF, 0, None
    elif len(blocks) == 1:
        root_addr, cur_rows, ib_at = db_addrs[0], 0, None
    else:
        cur_rows = -(-len(blocks) // WIDTH)
        ib = bytearray(struct.pack("<4sB", b"FHIB", 0))
        ib += struct.pack("<Q", 0)                       # haddr (patched)
        ib += (0).to_bytes(off_sz, "little")
        for i in range(cur_rows * WIDTH):
            ib += struct.pack("<Q", db_addrs[i]
                              if i < len(db_addrs) else _UNDEF)
        ib += b"\x00\x00\x00\x00"                        # cksum (patched)
        ib_at = w.add(bytes(ib))
        root_addr = ib_at

    frhp = bytearray(struct.pack("<4sB", b"FRHP", 0))
    frhp += struct.pack("<HHB", 1 + off_sz + len_sz, 0, 0x02)
    frhp += struct.pack("<I", min(MAXD // 16,
                                  (1 << (8 * len_sz)) - 1))
    frhp += struct.pack("<QQ", 0, _UNDEF)        # next huge id, huge bt
    frhp += struct.pack("<QQ", free, _UNDEF)     # free space, fs mgr
    frhp += struct.pack("<QQ", heap_off, heap_off)   # man space, alloc
    frhp += struct.pack("<Q", heap_off)          # dblock iterator offset
    frhp += struct.pack("<Q", len(objects))      # n managed objects
    frhp += struct.pack("<QQQQ", 0, 0, 0, 0)     # huge/tiny sizes+counts
    frhp += struct.pack("<H", WIDTH)
    frhp += struct.pack("<QQ", START, MAXD)      # start, max direct
    frhp += struct.pack("<HH", 8 * off_sz, 1)    # max heap bits, srows
    frhp += struct.pack("<Q", root_addr)
    frhp += struct.pack("<H", cur_rows)
    frhp += struct.pack("<I", jenkins_lookup3(bytes(frhp)))
    fh_at = w.add(bytes(frhp))

    for (boff, size, _objs), at in zip(blocks, db_addrs):
        w.patch_u64(at + 5, fh_at)
        cat = 13 + off_sz
        blk = bytearray(w.buf[at:at + size])
        blk[cat:cat + 4] = b"\x00\x00\x00\x00"
        struct.pack_into("<I", w.buf, at + cat, jenkins_lookup3(bytes(blk)))
    if ib_at is not None:
        w.patch_u64(ib_at + 5, fh_at)
        end = 13 + off_sz + 8 * cur_rows * WIDTH
        struct.pack_into("<I", w.buf, ib_at + end,
                         jenkins_lookup3(bytes(w.buf[ib_at:ib_at + end])))
    return fh_at, ids


def _emit_btree2_leaf(w: "_W", records: list[bytes], btype: int):
    """Emit a single-leaf v2 B-tree of fixed-size `records` (already
    hash-sorted).  Returns the BTHD header address."""
    rrec = len(records[0]) if records else 8
    NODE = 2048
    if len(records) > (NODE - 10) // rrec:
        raise NotImplementedError("dense fixture exceeds one leaf")
    leaf = bytearray(struct.pack("<4sBB", b"BTLF", 0, btype))
    for r in records:
        leaf += r
    leaf += struct.pack("<I", jenkins_lookup3(bytes(leaf)))
    leaf_at = w.add(bytes(leaf))
    hdr = bytearray(struct.pack("<4sBB", b"BTHD", 0, btype))
    hdr += struct.pack("<IHH", NODE, rrec, 0)
    hdr += struct.pack("<BB", 100, 40)           # split / merge percents
    hdr += struct.pack("<QHQ", leaf_at, len(records), len(records))
    hdr += struct.pack("<I", jenkins_lookup3(bytes(hdr)))
    return w.add(bytes(hdr))


def _emit_dense_links(w: "_W", items: list[tuple[str, int]]):
    """Dense link storage for a group: a fractal heap holding one
    serialized Link message per (name, object-header address) pair,
    plus the name-index v2 B-tree (record type 5: jenkins name hash +
    7-byte managed heap ID).  Returns (fractal_heap_addr,
    name_btree_addr)."""
    OFF_SZ, LEN_SZ = 4, 2
    bodies = []
    for n, a in items:
        nb = n.encode()
        bodies.append(struct.pack("<BBB", 1, 0, len(nb)) + nb
                      + struct.pack("<Q", a))
    fh_at, ids = _emit_fractal_heap(w, bodies, OFF_SZ, LEN_SZ)
    recs = sorted(
        (jenkins_lookup3(n.encode()), off, ln)
        for (n, _a), (off, ln) in zip(items, ids))
    records = [struct.pack("<I", h) + b"\x00"
               + off.to_bytes(OFF_SZ, "little")
               + ln.to_bytes(LEN_SZ, "little")
               for h, off, ln in recs]
    return fh_at, _emit_btree2_leaf(w, records, 5)


def _emit_dense_attrs(w: "_W", attrs: list[tuple[str, bytes]]):
    """Dense attribute storage for one object: a fractal heap of v3
    Attribute message bodies plus the name-index v2 B-tree (record
    type 8: 8-byte heap ID + message flags + creation order + name
    hash).  Returns (fractal_heap_addr, name_btree_addr) for the
    Attribute Info message."""
    OFF_SZ, LEN_SZ = 4, 3                    # 1 + 4 + 3 = 8-byte heap ID
    bodies = [b for _n, b in attrs]
    fh_at, ids = _emit_fractal_heap(w, bodies, OFF_SZ, LEN_SZ)
    recs = sorted(
        (jenkins_lookup3(n.encode()), i, off, ln)
        for i, ((n, _b), (off, ln)) in enumerate(zip(attrs, ids)))
    records = [b"\x00" + off.to_bytes(OFF_SZ, "little")
               + ln.to_bytes(LEN_SZ, "little")
               + b"\x00"                      # message flags: not shared
               + struct.pack("<I", i)          # creation order
               + struct.pack("<I", h)
               for h, i, off, ln in recs]
    return fh_at, _emit_btree2_leaf(w, records, 8)


def write_netcdf4(path: str, variables: dict, dims: dict,
                  global_attrs: dict | None = None,
                  chunks: tuple[int, int] | None = None,
                  compress: bool = True, libver: str = "earliest",
                  chunk_index: str = "btree1", bt2_node_size: int = 2048,
                  link_storage: str = "auto", attr_storage: str = "auto",
                  soft_links: dict | None = None,
                  ea_page_bits: int | None = None):
    """Write a NetCDF-4 (HDF5) file.

    variables: name -> (np.ndarray, dim_name_tuple, attr_dict); 1D variables
    whose name is in `dims` become dimension scales (coordinate variables).
    dims: dim name -> length.  2D+ variables are chunked (+shuffle+deflate
    when compress=True); 1D variables are contiguous.

    libver picks the on-disk dialect, mirroring libhdf5's bounds:
    "earliest" = superblock v0, v1 object headers, symbol-table root group,
    v1 attributes/dataspaces; "latest" = superblock v2, version-2 ("OHDR")
    checksummed object headers, Link-Info + Link-message root group (no
    symbol table), v3 attributes and v2 dataspaces.  Both dialects share
    the datatype encodings, B-tree-v1 chunk index and filter pipeline.

    Coordinate datasets are written before data variables so every
    DIMENSION_LIST object reference (global-heap vlen) is final at header
    emission — no post-hoc patching, which OHDR checksums would forbid.
    """
    if libver not in ("earliest", "latest"):
        raise ValueError(f"libver {libver!r}")
    if chunk_index not in ("btree1", "v4", "earray", "btree2"):
        raise ValueError(f"chunk_index {chunk_index!r}")
    if chunk_index != "btree1" and libver != "latest":
        raise ValueError("layout-v4 chunk indexes require libver='latest' "
                         "(libhdf5 only writes them under latest bounds)")
    if link_storage not in ("auto", "compact", "dense"):
        raise ValueError(f"link_storage {link_storage!r}")
    if link_storage == "dense" and libver != "latest":
        raise ValueError("dense link storage requires libver='latest' "
                         "(old-format groups always use symbol tables)")
    if attr_storage not in ("auto", "compact", "dense"):
        raise ValueError(f"attr_storage {attr_storage!r}")
    if attr_storage == "dense" and libver != "latest":
        raise ValueError("dense attribute storage requires "
                         "libver='latest'")
    if soft_links and libver != "latest":
        raise ValueError("soft links require libver='latest' "
                         "(fixture writer emits link messages only)")
    V2 = libver == "latest"
    mk = _msg2 if V2 else _msg
    w = _W()
    names = sorted(variables)
    coord_names = [n for n in names if n in dims]
    data_names = [n for n in names if n not in dims]

    def amsg(an, dt_body, ds_body, data):
        return mk(_M_ATTRIBUTE, _attr_body(an, dt_body, ds_body, data, V2))

    def attr_msgs(aparts):
        """Attribute messages for one object: compact Attribute messages,
        or — above libhdf5's 8-attribute phase change under latest bounds
        (or when forced) — dense storage: a fractal heap of v3 bodies +
        name-index v2 B-tree, referenced by ONE Attribute Info message."""
        dense = V2 and aparts and (
            attr_storage == "dense"
            or (attr_storage == "auto" and len(aparts) > 8))
        if not dense:
            return [amsg(*p) for p in aparts]
        bodies = [(an, _attr_body(an, dt, ds, data, True))
                  for an, dt, ds, data in aparts]
        fh_at, bt_at = _emit_dense_attrs(w, bodies)
        ai = struct.pack("<BB", 0, 0) + struct.pack("<QQ", fh_at, bt_at)
        return [mk(_M_AINFO, ai)]

    def pad(b: bytes) -> bytes:
        return b if V2 else _pad8(b)

    # ---- superblock (fields patched at the end)
    if V2:
        sb_at = w.add(b"\x00" * 48)
    else:
        sb = _SIG + struct.pack("<BBBxBBBxHHI", 0, 0, 0, 0, 8, 8, 4, 16, 0)
        sb += struct.pack("<QQQQ", 0, _UNDEF, 0, _UNDEF)
        root_entry_at = len(sb)
        sb += b"\x00" * 40
        w.add(sb)
        eof_at = 8 + 16 + 16

    # ---- per-dataset headers: coordinates first (their addresses feed the
    # DIMENSION_LIST global heap), then the heap, then data variables
    oh_addr: dict[str, int] = {}

    def emit_dataset(n, gcol_addr=None, slots=None):
        arr, dim_names, attrs = variables[n]
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        # datasets that get an unlimited-dim chunk index carry the matching
        # unlimited record dimension in their dataspace (the real-world
        # trigger for these indexes)
        unlim = 0 if arr.ndim < 2 else \
            {"earray": 1, "btree2": 2}.get(chunk_index, 0)
        msgs = [mk(_M_DATASPACE, _dataspace_body(arr.shape, V2, unlim)),
                mk(_M_DATATYPE, _encode_dtype(arr.dtype)),
                mk(_M_FILLVALUE, struct.pack("<BBBB", 2, 1, 0, 0))]
        _emit_data_and_layout(w, arr, chunks, compress, msgs, mk,
                              chunk_index, bt2_node_size, ea_page_bits)
        aparts = []                           # (name, dt, ds, data)
        if n in dims:
            aparts.append(("CLASS", _encode_string_dtype(16),
                           _dataspace_body((), V2),
                           b"DIMENSION_SCALE\x00"))
            aparts.append(("NAME", _encode_string_dtype(len(n) + 1),
                           _dataspace_body((), V2),
                           pad(n.encode() + b"\x00")))
        for an, av in (attrs or {}).items():
            if isinstance(av, str):
                ab = av.encode() + b"\x00"
                aparts.append((an, _encode_string_dtype(len(ab)),
                               _dataspace_body((), V2), pad(ab)))
            else:
                a = np.atleast_1d(np.asarray(av))
                shp = () if np.isscalar(av) or np.asarray(av).ndim == 0 \
                    else a.shape
                aparts.append((an, _encode_dtype(a.dtype),
                               _dataspace_body(shp, V2),
                               pad(a.tobytes())))
        if dim_names and n not in dims:
            data = b"".join(struct.pack("<IQI", 1, gcol_addr,
                                        slots[(n, j)])
                            for j in range(len(dim_names)))
            aparts.append(("DIMENSION_LIST", _encode_vlen_of_ref_dtype(),
                           _dataspace_body((len(dim_names),), V2), data))
        msgs += attr_msgs(aparts)
        oh_addr[n] = w.add(_object_header_v2(msgs) if V2
                           else _object_header(msgs))

    for n in coord_names:
        emit_dataset(n)

    # ---- global heap: one object reference per DIMENSION_LIST entry
    gcol_addr, slots = None, {}
    dim_lists = [(n, variables[n][1]) for n in data_names
                 if variables[n][1]]
    if dim_lists:
        body = b""
        idx = 1
        for vn, dns in dim_lists:
            for j, dn in enumerate(dns):
                body += struct.pack("<HH4xQ", idx, 1, 8)
                body += struct.pack("<Q", oh_addr[dn])
                slots[(vn, j)] = idx
                idx += 1
        head = struct.pack("<4sB3x", b"GCOL", 1)
        total = len(head) + 8 + len(body) + 16
        gcol_addr = w.add(head + struct.pack("<Q", total) + body
                          + struct.pack("<HH4xQ", 0, 0, 16))

    for n in data_names:
        emit_dataset(n, gcol_addr, slots)

    # ---- root group
    root_aparts = []
    for an, av in (global_attrs or {}).items():
        ab = str(av).encode() + b"\x00"
        root_aparts.append((an, _encode_string_dtype(len(ab)),
                            _dataspace_body((), V2), pad(ab)))
    root_attr_msgs = attr_msgs(root_aparts)
    if V2 and (link_storage == "dense"
               or (link_storage == "auto" and len(names) > 8)):
        # dense links: fractal heap of Link messages + name-index v2
        # B-tree (the libhdf5 phase change above 8 links) — heap and
        # B-tree are emitted BEFORE the root OHDR so its checksum never
        # needs patching
        fh_at, bt_at = _emit_dense_links(
            w, [(n, oh_addr[n]) for n in names])
        li = struct.pack("<BB", 0, 0) + struct.pack("<QQ", fh_at, bt_at)
        root_oh = w.add(_object_header_v2(
            [_msg2(_M_LINKINFO, li)] + root_attr_msgs))
    elif V2:
        # compact links: Link Info (no fractal heap) + one Link msg/dataset
        li = struct.pack("<BB", 0, 0) + struct.pack("<QQ", _UNDEF, _UNDEF)
        root_msgs = [_msg2(_M_LINKINFO, li)]
        for n in names:
            nb = n.encode()
            lk = struct.pack("<BBB", 1, 0, len(nb)) + nb \
                + struct.pack("<Q", oh_addr[n])
            root_msgs.append(_msg2(_M_LINK, lk))
        for alias, target in (soft_links or {}).items():
            ab, tb = alias.encode(), target.encode()
            lk = struct.pack("<BBBB", 1, 0x08, 1, len(ab)) + ab \
                + struct.pack("<H", len(tb)) + tb
            root_msgs.append(_msg2(_M_LINK, lk))
        root_oh = w.add(_object_header_v2(root_msgs + root_attr_msgs))
    else:
        # symbol-table group: local heap + SNOD + group b-tree
        heap_off = {}
        heap_data = bytearray(b"\x00" * 8)
        for n in names:
            heap_off[n] = len(heap_data)
            nb = n.encode() + b"\x00"
            heap_data += nb + b"\x00" * (-len(nb) % 8)
        # header: sig(4) ver(1) pad(3), data size @8, free head @16,
        # data segment address @24
        heap_hdr = w.add(struct.pack("<4sB3xQQQ", b"HEAP", 0,
                                     len(heap_data), _UNDEF, 0))
        heap_data_addr = w.add(bytes(heap_data))
        w.patch_u64(heap_hdr + 24, heap_data_addr)
        snod = struct.pack("<4sBxH", b"SNOD", 1, len(names))
        for n in names:
            snod += struct.pack("<QQII16x", heap_off[n], oh_addr[n], 0, 0)
        snod_addr = w.add(snod)
        bt = struct.pack("<4sBBHQQ", b"TREE", 0, 0, 1, _UNDEF, _UNDEF)
        bt += struct.pack("<Q", 0) + struct.pack("<Q", snod_addr) \
            + struct.pack("<Q", heap_off[names[-1]])
        btree_addr = w.add(bt)
        root_msgs = [_msg(_M_SYMBOL_TABLE,
                          struct.pack("<QQ", btree_addr, heap_hdr))]
        root_oh = w.add(_object_header(root_msgs + root_attr_msgs))

    # ---- finalize superblock
    if V2:
        sb = _SIG + struct.pack("<BBBB", 2, 8, 8, 0)
        sb += struct.pack("<QQQQ", 0, _UNDEF, len(w.buf), root_oh)
        w.buf[sb_at:sb_at + 44] = sb
        struct.pack_into("<I", w.buf, sb_at + 44,
                         jenkins_lookup3(bytes(w.buf[sb_at:sb_at + 44])))
    else:
        struct.pack_into("<QQII", w.buf, root_entry_at, 0, root_oh, 1, 0)
        struct.pack_into("<QQ", w.buf, root_entry_at + 24,
                         btree_addr, heap_hdr)
        w.patch_u64(eof_at, len(w.buf))
    with open(path, "wb") as f:
        f.write(w.buf)


def _shuffle(raw: bytes, itemsize: int) -> bytes:
    a = np.frombuffer(raw, np.uint8).reshape(-1, itemsize)
    return a.T.tobytes()


def _unshuffle(raw: bytes, itemsize: int) -> bytes:
    a = np.frombuffer(raw, np.uint8).reshape(itemsize, -1)
    return a.T.tobytes()


# ------------------------------------------------------------------ reader

class H5Dataset:
    def __init__(self, name):
        self.name = name
        self.shape: tuple[int, ...] = ()
        self.dtype = None
        self.layout = None            # ("contiguous", addr, size) |
        #                               ("chunked", btree, chunk_shape)
        self.filters: list[tuple[int, tuple[int, ...]]] = []
        self.maxshape = None          # maxdims when stored (_UNDEF = unlim)
        self.attrs: dict = {}
        self.raw_attrs: dict = {}     # name -> (dtype descr, shape, bytes)

    # NCVariable-compatible surface (netcdfio.py) ------------------------
    dim_names: tuple[str, ...] = ()

    @property
    def nodata(self):
        for k in ("_FillValue", "missing_value"):
            if k in self.attrs:
                v = self.attrs[k]
                return float(v[0] if isinstance(v, np.ndarray) else v)
        return None


def decode_h5_chunk(meta: dict, raw: bytes) -> np.ndarray:
    """One stored chunk's bytes -> full-cshape array: reversed filter
    pipeline (deflate, shuffle) then reshape.  Pure function of
    (chunk_spans meta, chunk bytes) so Ray tasks decode chunks from range
    reads without touching the rest of the file."""
    dtype = np.dtype(meta["dtype"])
    for fid, _cd in reversed(meta["filters"]):
        if fid == _FILTER_DEFLATE:
            raw = zlib.decompress(raw)
        elif fid == _FILTER_SHUFFLE:
            raw = _unshuffle(raw, dtype.itemsize)
        else:
            raise NotImplementedError(f"HDF5 filter id {fid}")
    return np.frombuffer(raw, dtype).reshape(meta["cshape"])


class NetCDF4:
    """HDF5-backed NetCDF-4 file with the NetCDFClassic interface:
    .variables / .attrs / .read(name) / .subdatasets()."""

    def __init__(self, path: str):
        # mmap so the metadata walk (superblock, B-trees, object headers,
        # small coordinate variables) lazily pages in O(touched bytes) —
        # the driver never faults the chunk payload of an N-GB file unless
        # read() is called; chunk_spans + decode_chunk keep payload reads
        # inside Ray tasks
        import mmap
        self._f = open(path, "rb")
        try:
            self.buf = mmap.mmap(self._f.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except (ValueError, OSError):       # empty file etc.
            self.buf = self._f.read()
        if self.buf[:8] != _SIG:
            raise ValueError(f"{path}: not an HDF5 file")
        ver = self.buf[8]
        if ver == 0:
            # v0: sizes at 13/14; root symbol table entry at offset 24+32
            self.off_size = self.buf[13]
            self.len_size = self.buf[14]
            root_entry = 24 + 32
            root_oh, = struct.unpack_from("<Q", self.buf, root_entry + 8)
        elif ver in (2, 3):
            # v2/v3: sizes at 9/10, root object header address at 36,
            # Jenkins-lookup3 checksum over bytes [0, 44) at 44
            self.off_size = self.buf[9]
            self.len_size = self.buf[10]
            root_oh, = struct.unpack_from("<Q", self.buf, 36)
            stored, = struct.unpack_from("<I", self.buf, 44)
            if stored != jenkins_lookup3(bytes(self.buf[:44])):
                raise ValueError(f"{path}: superblock checksum mismatch")
        else:
            raise NotImplementedError(
                f"{path}: HDF5 superblock version {ver}; supported: v0 "
                "(netCDF-4 earliest-compat) and v2/v3 (latest)")
        if (self.off_size, self.len_size) != (8, 8):
            raise NotImplementedError("non-8-byte offsets/lengths")
        self.attrs: dict = {}
        self.variables: dict[str, H5Dataset] = {}
        self._addr_to_name: dict[int, str] = {}
        links = self._parse_group(root_oh, into_attrs=self.attrs)
        hard = {n: a for n, a in links if not isinstance(a, tuple)}
        for name, addr in links:
            if isinstance(addr, tuple):            # soft link: /path or name
                target = addr[1].lstrip("/")
                if "/" in target:
                    raise NotImplementedError(
                        f"soft link to nested path {addr[1]!r}")
                if target not in hard:
                    continue                       # dangling soft link
                addr = hard[target]
            d = H5Dataset(name)
            self._parse_dataset(addr, d)
            self.variables[name] = d
            self._addr_to_name[addr] = name
        self._resolve_dims()

    # -- structure walking ------------------------------------------------
    def _messages(self, oh_at: int):
        if self.buf[oh_at:oh_at + 4] == b"OHDR":
            yield from self._messages_v2(oh_at)
            return
        nmsg, = struct.unpack_from("<H", self.buf, oh_at + 2)
        hsize, = struct.unpack_from("<I", self.buf, oh_at + 8)
        spans = [(oh_at + 16, oh_at + 16 + hsize)]
        got = 0
        while spans and got < nmsg:
            p, end = spans.pop(0)
            while p < end and got < nmsg:
                mtype, msize = struct.unpack_from("<HH", self.buf, p)
                body = p + 8
                if mtype == _M_CONTINUATION:
                    a, ln = struct.unpack_from("<QQ", self.buf, body)
                    spans.append((a, a + ln))
                else:
                    yield mtype, body, msize
                got += 1
                p = body + msize

    def _messages_v2(self, oh_at: int):
        """Version-2 ("OHDR") object header: no message count — parse the
        checksummed chunk(s) until their declared size runs out.  Message
        header is u8 type / u16 size / u8 flags (+u16 creation order when
        the header tracks attribute creation order)."""
        flags = self.buf[oh_at + 5]
        p = oh_at + 6
        if flags & 0x20:
            p += 16                               # access/mod/change/birth
        if flags & 0x10:
            p += 4                                # phase-change values
        szbytes = 1 << (flags & 0x03)
        chunk0 = int.from_bytes(self.buf[p:p + szbytes], "little")
        p += szbytes
        order = bool(flags & 0x04)
        mhdr = 6 if order else 4
        stored, = struct.unpack_from("<I", self.buf, p + chunk0)
        if stored != jenkins_lookup3(bytes(self.buf[oh_at:p + chunk0])):
            raise ValueError("object header checksum mismatch")
        spans = [(p, p + chunk0)]                 # checksum follows each span
        while spans:
            s, e = spans.pop(0)
            while s + mhdr <= e:
                mtype = self.buf[s]
                msize, = struct.unpack_from("<H", self.buf, s + 1)
                body = s + mhdr
                if mtype == _M_CONTINUATION:
                    a, ln = struct.unpack_from("<QQ", self.buf, body)
                    if self.buf[a:a + 4] != b"OCHK":
                        raise ValueError("bad OCHK continuation block")
                    cstored, = struct.unpack_from("<I", self.buf, a + ln - 4)
                    if cstored != jenkins_lookup3(
                            bytes(self.buf[a:a + ln - 4])):
                        raise ValueError("OCHK continuation checksum "
                                         "mismatch")
                    spans.append((a + 4, a + ln - 4))   # sig + checksum
                else:
                    yield mtype, body, msize
                s = body + msize

    def _parse_group(self, oh_at: int, into_attrs: dict):
        links: list[tuple[str, int]] = []
        for mtype, body, msize in self._messages(oh_at):
            if mtype == _M_SYMBOL_TABLE:
                btree, heap = struct.unpack_from("<QQ", self.buf, body)
                heap_data, = struct.unpack_from("<Q", self.buf, heap + 24)
                links += self._walk_group_btree(btree, heap_data)
            elif mtype == _M_LINKINFO:
                li_flags = self.buf[body + 1]
                q = body + 2 + (8 if li_flags & 0x01 else 0)
                fheap, name_bt = struct.unpack_from("<QQ", self.buf, q)
                if fheap != _UNDEF:
                    links += self._dense_links(fheap, name_bt)
            elif mtype == _M_LINK:
                links.append(self._parse_link(body))
            elif mtype == _M_ATTRIBUTE:
                n, v = self._parse_attr(body)
                into_attrs[n] = v
            elif mtype == _M_AINFO:
                into_attrs.update(self._dense_attrs(body))
        return links

    def _dense_links(self, fheap_at: int, name_bt_at: int):
        """Dense link storage (HDF5 spec III.G fractal heap + III.A.2
        v2 B-tree record type 5): libhdf5 switches a group to dense
        storage above 8 links, so real NetCDF-4 files with many
        variables index their link messages by name hash in a v2 B-tree
        whose records carry 7-byte managed-object heap IDs into the
        group's fractal heap.  Each resolved heap object is a serialized
        Link message body — parsed by the same `_parse_link` the compact
        path uses."""
        heap = self._fractal_heap(fheap_at)
        if name_bt_at == _UNDEF:
            return []
        btype, rrec, recs = self._iter_btree2_raw(name_bt_at, (5,))
        out = []
        for p in recs:
            hid = bytes(self.buf[p + 4:p + rrec])
            out.append(self._parse_link(self._fheap_locate(heap, hid)))
        return out

    def _dense_attrs(self, body: int) -> dict:
        """Dense attribute storage (Attribute Info message, spec
        IV.A.2.v): libhdf5 switches an object to dense storage above 8
        attributes — v3 Attribute message bodies live in a fractal heap
        indexed by a v2 B-tree of record type 8 (8-byte heap ID +
        message flags + creation order + name hash)."""
        flags = self.buf[body + 1]
        q = body + 2 + (2 if flags & 0x01 else 0)
        fheap, name_bt = struct.unpack_from("<QQ", self.buf, q)
        out: dict = {}
        if fheap == _UNDEF or name_bt == _UNDEF:
            return out
        heap = self._fractal_heap(fheap)
        _btype, rrec, recs = self._iter_btree2_raw(name_bt, (8,))
        hid_len = rrec - 9                    # flags(1) corder(4) hash(4)
        for p in recs:
            if self.buf[p + hid_len] & 0x01:
                raise NotImplementedError("shared dense attribute")
            hid = bytes(self.buf[p:p + hid_len])
            n, v = self._parse_attr(self._fheap_locate(heap, hid))
            out[n] = v
        return out

    def _fractal_heap(self, at: int):
        """Parse a FRHP fractal heap header (checksum-validated) and
        enumerate its direct blocks: returns (sorted [(heap_off,
        file_addr, size)], id_offset_size, id_length_size).  Supported
        shapes: root direct block, and a root indirect block whose rows
        are all direct blocks (libhdf5's group heaps stay within direct
        rows for thousands of links); filtered heaps, huge/tiny objects
        and nested indirect blocks raise a clear error."""
        if self.buf[at:at + 4] != b"FRHP":
            raise ValueError("fractal heap header signature")
        if self.buf[at + 4] != 0:
            raise NotImplementedError(
                f"fractal heap version {self.buf[at + 4]}")
        idlen, ioflt = struct.unpack_from("<HH", self.buf, at + 5)
        flags = self.buf[at + 9]
        if ioflt:
            raise NotImplementedError("filtered fractal heap")
        p = at + 14
        (next_huge, huge_bt, free_sp, fs_mgr, man_space, alloc_space,
         it_off, n_man, huge_sz, n_huge, tiny_sz, n_tiny) = \
            struct.unpack_from("<12Q", self.buf, p)
        p += 96
        width, = struct.unpack_from("<H", self.buf, p)
        start_sz, max_direct = struct.unpack_from("<QQ", self.buf, p + 2)
        max_heap_bits, _start_rows = struct.unpack_from(
            "<HH", self.buf, p + 18)
        root_addr, = struct.unpack_from("<Q", self.buf, p + 22)
        cur_rows, = struct.unpack_from("<H", self.buf, p + 30)
        p += 32
        stored, = struct.unpack_from("<I", self.buf, p)
        if stored != jenkins_lookup3(bytes(self.buf[at:p])):
            raise ValueError("fractal heap header checksum mismatch")
        if n_huge or n_tiny:
            raise NotImplementedError("fractal heap huge/tiny objects")
        off_size = (max_heap_bits + 7) // 8
        len_size = idlen - 1 - off_size
        if len_size < 1:
            raise ValueError(f"fractal heap ID length {idlen}")
        db_hdr = 4 + 1 + 8 + off_size + (4 if flags & 0x02 else 0)

        blocks: list[tuple[int, int, int]] = []

        def add_direct(addr: int, size: int):
            if addr == _UNDEF:
                return
            if self.buf[addr:addr + 4] != b"FHDB":
                raise ValueError("fractal heap direct block signature")
            haddr, = struct.unpack_from("<Q", self.buf, addr + 5)
            if haddr != at:
                raise ValueError("direct block heap back-pointer")
            boff = int.from_bytes(
                self.buf[addr + 13:addr + 13 + off_size], "little")
            if flags & 0x02:
                blk = bytearray(self.buf[addr:addr + size])
                cat = 13 + off_size
                got = struct.unpack_from("<I", blk, cat)[0]
                blk[cat:cat + 4] = b"\x00\x00\x00\x00"
                if got != jenkins_lookup3(bytes(blk)):
                    raise ValueError("direct block checksum mismatch")
            blocks.append((boff, addr, size))

        max_direct_rows = (max_direct.bit_length()
                           - start_sz.bit_length()) + 2

        def row_size(r: int) -> int:
            return start_sz if r < 2 else start_sz << (r - 1)

        if root_addr != _UNDEF:
            if cur_rows == 0:
                add_direct(root_addr, alloc_space or start_sz)
            else:
                if self.buf[root_addr:root_addr + 4] != b"FHIB":
                    raise ValueError(
                        "fractal heap indirect block signature")
                q = root_addr + 13 + off_size
                for r in range(cur_rows):
                    if r >= max_direct_rows:
                        raise NotImplementedError(
                            "nested fractal heap indirect blocks")
                    for _c in range(width):
                        child, = struct.unpack_from("<Q", self.buf, q)
                        q += 8
                        add_direct(child, row_size(r))
        blocks.sort()
        return blocks, off_size, len_size, db_hdr

    def _fheap_locate(self, heap, heap_id: bytes) -> int:
        """Resolve a managed-object heap ID to the object's absolute
        file offset.  Heap offsets are absolute in the heap's address
        space, which includes each direct block's header region."""
        blocks, off_size, len_size, _db_hdr = heap
        if (heap_id[0] >> 4) & 0x03:
            raise NotImplementedError("huge/tiny fractal heap object")
        off = int.from_bytes(heap_id[1:1 + off_size], "little")
        for boff, addr, size in blocks:
            if boff <= off < boff + size:
                return addr + (off - boff)
        raise ValueError(f"heap offset {off} outside every direct block")

    def _iter_btree2_raw(self, at: int, exp_types: tuple):
        """Generic v2 B-tree walk (BTHD / BTIN / BTLF, checksums
        validated, arbitrary depth) yielding raw record offsets —
        the non-chunk twin of `_walk_btree2` for name-index records."""
        if self.buf[at:at + 4] != b"BTHD":
            raise ValueError("v2 B-tree header signature")
        ver, btype = self.buf[at + 4], self.buf[at + 5]
        if ver != 0:
            raise NotImplementedError(f"v2 B-tree header v{ver}")
        if btype not in exp_types:
            raise NotImplementedError(f"v2 B-tree record type {btype}")
        node_size, rrec, depth = struct.unpack_from(
            "<IHH", self.buf, at + 6)
        root_at, root_nrec, tot_nrec = struct.unpack_from(
            "<QHQ", self.buf, at + 16)
        stored, = struct.unpack_from("<I", self.buf, at + 34)
        if stored != jenkins_lookup3(bytes(self.buf[at:at + 34])):
            raise ValueError("v2 B-tree header checksum mismatch")
        leaf_max = (node_size - 10) // rrec
        mns = (leaf_max.bit_length() + 7) // 8
        cum_sz = [0]
        cum = leaf_max
        for d in range(1, depth + 1):
            ptr = 8 + mns + cum_sz[d - 1]
            mn = (node_size - (10 + ptr)) // (rrec + ptr)
            cum = (mn + 1) * cum + mn
            cum_sz.append((_log2_of2(cum) + 8) // 8)

        out: list[int] = []

        def walk(node_at: int, nrec: int, d: int):
            sig = b"BTLF" if d == 0 else b"BTIN"
            if self.buf[node_at:node_at + 4] != sig:
                raise ValueError(f"v2 B-tree node signature (depth {d})")
            if self.buf[node_at + 4] != 0 or \
                    self.buf[node_at + 5] != btype:
                raise ValueError("v2 B-tree node version/type")
            p = node_at + 6
            for i in range(nrec):
                out.append(p + i * rrec)
            p += nrec * rrec
            children = []
            if d > 0:
                psz = 8 + mns + (cum_sz[d - 1] if d > 1 else 0)
                for _ in range(nrec + 1):
                    caddr = int.from_bytes(self.buf[p:p + 8], "little")
                    cnrec = int.from_bytes(
                        self.buf[p + 8:p + 8 + mns], "little")
                    children.append((caddr, cnrec))
                    p += psz
            stored, = struct.unpack_from("<I", self.buf, p)
            if stored != jenkins_lookup3(bytes(self.buf[node_at:p])):
                raise ValueError("v2 B-tree node checksum mismatch")
            for caddr, cnrec in children:
                walk(caddr, cnrec, d - 1)

        if tot_nrec:
            walk(root_at, root_nrec, depth)
        if len(out) != tot_nrec:
            raise ValueError("v2 B-tree record count mismatch")
        return btype, rrec, out

    def _parse_link(self, body: int) -> tuple[str, int]:
        ver, flags = self.buf[body], self.buf[body + 1]
        if ver != 1:
            raise NotImplementedError(f"link message v{ver}")
        p = body + 2
        ltype = 0
        if flags & 0x08:
            ltype = self.buf[p]
            p += 1
        if flags & 0x04:
            p += 8                                 # creation order
        if flags & 0x10:
            p += 1                                 # charset
        nlen_sz = 1 << (flags & 0x03)
        nlen = int.from_bytes(self.buf[p:p + nlen_sz], "little")
        p += nlen_sz
        name = self.buf[p:p + nlen].decode()
        p += nlen
        if ltype == 0:
            addr, = struct.unpack_from("<Q", self.buf, p)
            return name, addr
        if ltype == 1:
            # soft link: 2-byte length + target path string, resolved
            # against the root group after hard links are collected
            tlen, = struct.unpack_from("<H", self.buf, p)
            target = self.buf[p + 2:p + 2 + tlen].decode()
            return name, ("soft", target)
        raise NotImplementedError(f"non-hard link type {ltype} "
                                  "(external/user-defined)")

    def _parse_dataspace(self, p: int) -> tuple[int, ...]:
        return self._parse_dataspace_max(p)[0]

    def _parse_dataspace_max(self, p: int):
        """(dims, maxdims-or-None); maxdims present when flags bit 0 is
        set, _UNDEF marking an unlimited dimension."""
        ver = self.buf[p]
        rank = self.buf[p + 1]
        flags = self.buf[p + 2]
        at = p + 4 if ver == 2 else p + 8
        dims = tuple(struct.unpack_from("<Q", self.buf, at + 8 * i)[0]
                     for i in range(rank))
        mx = None
        if flags & 1:
            at += 8 * rank
            mx = tuple(struct.unpack_from("<Q", self.buf, at + 8 * i)[0]
                       for i in range(rank))
        return dims, mx

    def _walk_group_btree(self, bt_at: int, heap_data: int):
        assert self.buf[bt_at:bt_at + 4] == b"TREE", "group b-tree"
        level = self.buf[bt_at + 5]
        nent, = struct.unpack_from("<H", self.buf, bt_at + 6)
        out = []
        p = bt_at + 24
        for i in range(nent):
            child, = struct.unpack_from("<Q", self.buf, p + 8)
            if level > 0:
                out += self._walk_group_btree(child, heap_data)
            else:
                out += self._read_snod(child, heap_data)
            p += 16
        return out

    def _read_snod(self, at: int, heap_data: int):
        assert self.buf[at:at + 4] == b"SNOD"
        nsym, = struct.unpack_from("<H", self.buf, at + 6)
        out = []
        p = at + 8
        for _ in range(nsym):
            name_off, oh = struct.unpack_from("<QQ", self.buf, p)
            e = self.buf.find(b"\x00", heap_data + name_off)
            if e < 0:
                raise ValueError("unterminated symbol name in local heap")
            out.append((self.buf[heap_data + name_off:e].decode(), oh))
            p += 40
        return out

    # -- dataset metadata ---------------------------------------------------
    def _parse_dataset(self, oh_at: int, d: H5Dataset):
        for mtype, body, msize in self._messages(oh_at):
            if mtype == _M_DATASPACE:
                d.shape, d.maxshape = self._parse_dataspace_max(body)
            elif mtype == _M_DATATYPE:
                d.dtype, _u = _decode_dtype(self.buf, body)
            elif mtype == _M_LAYOUT:
                ver, cls = self.buf[body], self.buf[body + 1]
                if ver not in (3, 4):
                    raise NotImplementedError(f"layout v{ver}")
                if cls == 1:
                    a, sz = struct.unpack_from("<QQ", self.buf, body + 2)
                    d.layout = ("contiguous", a, sz)
                elif cls == 2 and ver == 3:
                    dim1 = self.buf[body + 2]
                    bt, = struct.unpack_from("<Q", self.buf, body + 3)
                    cs = tuple(struct.unpack_from(
                        "<I", self.buf, body + 11 + 4 * i)[0]
                        for i in range(dim1 - 1))
                    d.layout = ("chunked", bt, cs)
                elif cls == 2:
                    d.layout = self._parse_layout_v4(body)
                else:
                    raise NotImplementedError(f"layout class {cls}")
            elif mtype == _M_FILTERS:
                pver = self.buf[body]
                nf = self.buf[body + 1]
                if pver == 1:
                    # v1: 6 reserved bytes; names padded to 8; odd
                    # client-value counts pad to a 4-byte tail
                    p = body + 8
                    for _ in range(nf):
                        fid, nlen, _fl, ncd = struct.unpack_from(
                            "<HHHH", self.buf, p)
                        p += 8 + nlen + (-nlen % 8)
                        cd = tuple(struct.unpack_from(
                            "<I", self.buf, p + 4 * i)[0]
                            for i in range(ncd))
                        p += 4 * ncd + (4 if ncd % 2 else 0)
                        d.filters.append((fid, cd))
                elif pver == 2:
                    # v2 (latest bounds): no reserved bytes; standard
                    # filters (id < 256) carry NO name-length field; no
                    # name or client-value padding
                    p = body + 2
                    for _ in range(nf):
                        fid, = struct.unpack_from("<H", self.buf, p)
                        p += 2
                        nlen = 0
                        if fid >= 256:
                            nlen, = struct.unpack_from("<H", self.buf, p)
                            p += 2
                        _fl, ncd = struct.unpack_from("<HH", self.buf, p)
                        p += 4 + nlen
                        cd = tuple(struct.unpack_from(
                            "<I", self.buf, p + 4 * i)[0]
                            for i in range(ncd))
                        p += 4 * ncd
                        d.filters.append((fid, cd))
                else:
                    raise NotImplementedError(
                        f"filter pipeline message v{pver}")
            elif mtype == _M_ATTRIBUTE:
                n, v = self._parse_attr(body)
                d.attrs[n] = v
            elif mtype == _M_AINFO:
                d.attrs.update(self._dense_attrs(body))

    def _parse_layout_v4(self, body: int):
        """Version-4 chunked data layout (what latest-bounds libhdf5 writes
        for NEW chunked datasets).  Chunk dims include libhdf5's trailing
        element-size dimension.  Index types: 1 single chunk, 2 implicit,
        3 fixed array; extensible arrays (unlimited dims) and v2 B-trees
        stay out of scope and raise naming themselves."""
        flags = self.buf[body + 2]
        ndims = self.buf[body + 3]
        encs = self.buf[body + 4]
        p = body + 5
        dims = []
        for _ in range(ndims):
            dims.append(int.from_bytes(self.buf[p:p + encs], "little"))
            p += encs
        cshape = tuple(dims[:-1])            # drop the element-size dim
        idx_type = self.buf[p]
        p += 1
        if idx_type == 1:                    # single chunk
            fsize = None
            if flags & 0x02:                 # filtered single chunk
                fsize, = struct.unpack_from("<Q", self.buf, p)
                p += 12                      # size (8) + filter mask (4)
            addr, = struct.unpack_from("<Q", self.buf, p)
            return ("single", addr, cshape, fsize)
        if idx_type == 2:                    # implicit (unfiltered, dense)
            addr, = struct.unpack_from("<Q", self.buf, p)
            return ("implicit", addr, cshape)
        if idx_type == 3:                    # fixed array
            p += 1                           # max data-block page bits
            addr, = struct.unpack_from("<Q", self.buf, p)
            return ("farray", addr, cshape)
        if idx_type == 4:                    # extensible array (1 unlim dim)
            # creation params: max bits, index elmts, min ptrs, min elmts,
            # page bits (message order; the EAHD stores min elmts first)
            cp = tuple(self.buf[p:p + 5])
            addr, = struct.unpack_from("<Q", self.buf, p + 5)
            return ("earray", addr, cshape, cp)
        if idx_type == 5:                    # v2 B-tree (>1 unlim dims)
            # creation params: node size (u32), split %, merge %
            addr, = struct.unpack_from("<Q", self.buf, p + 6)
            return ("btree2", addr, cshape)
        raise NotImplementedError(
            f"layout v4 chunk index type {idx_type}")

    def _grid_coords(self, shape, cshape):
        """Chunk-grid origins in row-major (linear fixed-array) order."""
        grid = [range(0, s, c) for s, c in zip(shape, cshape)]
        coords = [()]
        for axis in grid:
            coords = [c + (o,) for c in coords for o in axis]
        return coords

    def _walk_fixed_array(self, at: int, shape, cshape, itemsize: int):
        """Fixed-array chunk index (FAHD header + FADB data block, III.G):
        checksum-validated, unpaged blocks (our fixture scale; libhdf5 pages
        above 2^page_bits entries)."""
        if self.buf[at:at + 4] != b"FAHD":
            raise ValueError("fixed array header signature")
        ver, client, entsize, pbits = struct.unpack_from(
            "<BBBB", self.buf, at + 4)
        if ver != 0:
            raise NotImplementedError(f"fixed array header v{ver}")
        nelmts, dblk = struct.unpack_from("<QQ", self.buf, at + 8)
        stored, = struct.unpack_from("<I", self.buf, at + 24)
        if stored != jenkins_lookup3(bytes(self.buf[at:at + 24])):
            raise ValueError("fixed array header checksum mismatch")
        if self.buf[dblk:dblk + 4] != b"FADB":
            raise ValueError("fixed array data block signature")
        dver, dclient = struct.unpack_from("<BB", self.buf, dblk + 4)
        if dver != 0 or dclient != client:
            raise ValueError("fixed array data block version/client")
        page = 1 << pbits
        p = dblk + 14                        # sig + ver + client + hdr addr
        if nelmts <= page:
            end = p + nelmts * entsize
            stored, = struct.unpack_from("<I", self.buf, end)
            if stored != jenkins_lookup3(bytes(self.buf[dblk:end])):
                raise ValueError("fixed array data block checksum mismatch")
            spans = [(p, nelmts, True)]
        else:
            # paged (spec III.G): header + initialized-page bitmap +
            # checksum, then pages of `page` entries each with its OWN
            # trailing checksum; unset bitmap bits = uninitialized page
            npages = -(-nelmts // page)
            blen = -(-npages // 8)
            bitmap = bytes(self.buf[p:p + blen])
            p += blen
            stored, = struct.unpack_from("<I", self.buf, p)
            if stored != jenkins_lookup3(bytes(self.buf[dblk:p])):
                raise ValueError("fixed array data block checksum mismatch")
            p += 4
            spans = []
            for i in range(npages):
                ne = min(page, nelmts - i * page)
                init = bool(bitmap[i >> 3] >> (i & 7) & 1)
                if init:
                    stored, = struct.unpack_from(
                        "<I", self.buf, p + ne * entsize)
                    if stored != jenkins_lookup3(
                            bytes(self.buf[p:p + ne * entsize])):
                        raise ValueError(
                            f"fixed array page {i} checksum mismatch")
                spans.append((p, ne, init))
                p += ne * entsize + 4
        coords = self._grid_coords(shape, cshape)
        if len(coords) != nelmts:
            raise ValueError(
                f"fixed array has {nelmts} entries for {len(coords)} chunks")
        cbytes = int(np.prod(cshape)) * itemsize
        it = iter(coords)
        for p, ne, init in spans:
            for _ in range(ne):
                c = next(it)
                if not init:
                    continue
                addr = int.from_bytes(self.buf[p:p + 8], "little")
                if client == 1:              # filtered: addr + size + mask
                    szlen = entsize - 12
                    nbytes = int.from_bytes(
                        self.buf[p + 8:p + 8 + szlen], "little")
                else:
                    nbytes = cbytes
                p += entsize
                if addr != _UNDEF:
                    yield c, addr, nbytes

    def _walk_extensible_array(self, at: int, shape, cshape, itemsize: int,
                               cp: tuple):
        """Extensible-array chunk index (EAHD / EAIB / EADB / EASB, spec
        III.F) — what latest-bounds libhdf5 writes for chunked datasets
        with ONE unlimited dimension (the netCDF record dimension).  All
        block checksums validated; block offsets cross-checked against the
        computed geometry so a convention drift fails loudly rather than
        yielding misplaced chunks.  Scope: unpaged data blocks (every
        fixture-scale and most real files; paging starts at 2^page_bits
        elements per block)."""
        if self.buf[at:at + 4] != b"EAHD":
            raise ValueError("extensible array header signature")
        (ver, client, esize, max_bits, idx_elmts, dblk_min, sblk_min,
         page_bits) = struct.unpack_from("<8B", self.buf, at + 4)
        if ver != 0:
            raise NotImplementedError(f"extensible array header v{ver}")
        if client not in (0, 1):
            raise NotImplementedError(f"extensible array client {client}")
        stored, = struct.unpack_from("<I", self.buf, at + 68)
        if stored != jenkins_lookup3(bytes(self.buf[at:at + 68])):
            raise ValueError("extensible array header checksum mismatch")
        if cp != (max_bits, idx_elmts, sblk_min, dblk_min, page_bits):
            raise ValueError("extensible array creation parameters differ "
                             "between layout message and EAHD")
        ib_at, = struct.unpack_from("<Q", self.buf, at + 60)
        (nsblks, ndblk_addrs, first_sblk, nsblk_addrs, arr_off,
         sblks) = _ea_geometry(max_bits, idx_elmts, dblk_min, sblk_min)
        coords = self._grid_coords(shape, cshape)
        n = len(coords)
        cbytes = int(np.prod(cshape)) * itemsize
        szlen = esize - 12 if client == 1 else 0

        def elem(buf_at: int):
            addr = int.from_bytes(self.buf[buf_at:buf_at + 8], "little")
            if client == 1:
                nb = int.from_bytes(
                    self.buf[buf_at + 8:buf_at + 8 + szlen], "little")
            else:
                nb = cbytes
            return addr, nb

        # ---- index block
        if self.buf[ib_at:ib_at + 4] != b"EAIB":
            raise ValueError("extensible array index block signature")
        if (self.buf[ib_at + 4] != 0 or self.buf[ib_at + 5] != client
                or struct.unpack_from("<Q", self.buf, ib_at + 6)[0] != at):
            raise ValueError("extensible array index block header fields")
        ib_body = 14 + idx_elmts * esize + (ndblk_addrs + nsblk_addrs) * 8
        stored, = struct.unpack_from("<I", self.buf, ib_at + ib_body)
        if stored != jenkins_lookup3(bytes(self.buf[ib_at:ib_at + ib_body])):
            raise ValueError("extensible array index block checksum "
                             "mismatch")
        out = []
        for i in range(min(idx_elmts, n)):
            addr, nb = elem(ib_at + 14 + i * esize)
            if addr != _UNDEF:
                out.append((coords[i], addr, nb))
        dblk_addr_base = ib_at + 14 + idx_elmts * esize
        sblk_addr_base = dblk_addr_base + ndblk_addrs * 8

        page = 1 << page_bits

        def walk_dblk(db_at: int, s: int, ne: int, page_init=None):
            """Data block holding normalized elements [s, s+ne).  Paged
            blocks (ne > 2^page_bits) checksum their header alone and
            then carry full pages each with its own checksum;
            `page_init` (from the owning super block's bitmap) marks
            which pages were ever written — unset pages read as UNDEF
            without a checksum check."""
            if db_at == _UNDEF:
                return
            if self.buf[db_at:db_at + 4] != b"EADB":
                raise ValueError("extensible array data block signature")
            if (self.buf[db_at + 4] != 0 or self.buf[db_at + 5] != client
                    or struct.unpack_from("<Q", self.buf,
                                          db_at + 6)[0] != at):
                raise ValueError("extensible array data block header "
                                 "fields")
            off = int.from_bytes(self.buf[db_at + 14:db_at + 14 + arr_off],
                                 "little")
            if off != s:
                raise ValueError(
                    f"extensible array data block offset {off} != expected "
                    f"{s} (block-offset convention drift)")
            hdr_end = 14 + arr_off
            if ne <= page:
                body = hdr_end + ne * esize
                stored, = struct.unpack_from("<I", self.buf, db_at + body)
                if stored != jenkins_lookup3(
                        bytes(self.buf[db_at:db_at + body])):
                    raise ValueError("extensible array data block "
                                     "checksum mismatch")
                starts = [(db_at + hdr_end, ne, True)]
            else:
                stored, = struct.unpack_from("<I", self.buf,
                                             db_at + hdr_end)
                if stored != jenkins_lookup3(
                        bytes(self.buf[db_at:db_at + hdr_end])):
                    raise ValueError("extensible array data block "
                                     "checksum mismatch")
                p = db_at + hdr_end + 4
                starts = []
                for q in range(ne // page):
                    init = True if page_init is None else page_init[q]
                    if init:
                        stored, = struct.unpack_from(
                            "<I", self.buf, p + page * esize)
                        if stored != jenkins_lookup3(
                                bytes(self.buf[p:p + page * esize])):
                            raise ValueError(
                                f"extensible array data block page {q} "
                                "checksum mismatch")
                    starts.append((p, page, init))
                    p += page * esize + 4
            i = 0
            for p0, cnt, init in starts:
                for k in range(cnt):
                    gi = idx_elmts + s + i
                    i += 1
                    if not init:
                        continue
                    addr, nb = elem(p0 + k * esize)
                    if addr != _UNDEF:
                        if gi >= n:
                            raise ValueError(
                                "extensible array element beyond the "
                                "dataset's chunk grid")
                        out.append((coords[gi], addr, nb))

        extra = max(0, n - idx_elmts)
        di = 0
        for u, (nd, ne, start) in enumerate(sblks):
            if start >= extra:
                break
            if u < first_sblk:
                for j in range(nd):
                    s = start + j * ne
                    if s < extra:
                        db_at, = struct.unpack_from(
                            "<Q", self.buf, dblk_addr_base + di * 8)
                        walk_dblk(db_at, s, ne)
                    di += 1
            else:
                sb_at, = struct.unpack_from(
                    "<Q", self.buf, sblk_addr_base + (u - first_sblk) * 8)
                if sb_at == _UNDEF:
                    continue
                if self.buf[sb_at:sb_at + 4] != b"EASB":
                    raise ValueError("extensible array super block "
                                     "signature")
                if (self.buf[sb_at + 4] != 0
                        or self.buf[sb_at + 5] != client
                        or struct.unpack_from("<Q", self.buf,
                                              sb_at + 6)[0] != at):
                    raise ValueError("extensible array super block header "
                                     "fields")
                off = int.from_bytes(
                    self.buf[sb_at + 14:sb_at + 14 + arr_off], "little")
                if off != start:
                    raise ValueError(
                        f"extensible array super block offset {off} != "
                        f"expected {start}")
                npg = ne // page if ne > page else 0
                blen = -(-(nd * npg) // 8) if npg else 0
                body = 14 + arr_off + blen + nd * 8
                stored, = struct.unpack_from("<I", self.buf, sb_at + body)
                if stored != jenkins_lookup3(
                        bytes(self.buf[sb_at:sb_at + body])):
                    raise ValueError("extensible array super block "
                                     "checksum mismatch")
                bm = bytes(self.buf[sb_at + 14 + arr_off:
                                    sb_at + 14 + arr_off + blen])
                for j in range(nd):
                    s = start + j * ne
                    if s < extra:
                        db_at, = struct.unpack_from(
                            "<Q", self.buf,
                            sb_at + 14 + arr_off + blen + j * 8)
                        pi = None
                        if npg:
                            pi = [bool(bm[(j * npg + q) >> 3]
                                       >> ((j * npg + q) & 7) & 1)
                                  for q in range(npg)]
                        walk_dblk(db_at, s, ne, pi)
        return out

    def _walk_btree2(self, at: int, cshape, itemsize: int):
        """Version-2 B-tree chunk index (BTHD / BTIN / BTLF, spec III.A.2,
        record types 10 unfiltered / 11 filtered) — what latest-bounds
        libhdf5 writes for chunked datasets with more than one unlimited
        dimension.  Records carry the chunk's scaled offsets, so no grid
        ordering is assumed; node checksums validated; arbitrary depth."""
        if self.buf[at:at + 4] != b"BTHD":
            raise ValueError("v2 B-tree header signature")
        ver, btype = self.buf[at + 4], self.buf[at + 5]
        if ver != 0:
            raise NotImplementedError(f"v2 B-tree header v{ver}")
        if btype not in (10, 11):
            raise NotImplementedError(
                f"v2 B-tree record type {btype} (not a chunk index)")
        node_size, rrec, depth = struct.unpack_from(
            "<IHH", self.buf, at + 6)
        root_at, root_nrec, tot_nrec = struct.unpack_from(
            "<QHQ", self.buf, at + 16)
        stored, = struct.unpack_from("<I", self.buf, at + 34)
        if stored != jenkins_lookup3(bytes(self.buf[at:at + 34])):
            raise ValueError("v2 B-tree header checksum mismatch")
        rank = len(cshape)
        if btype == 10:
            if rrec != 8 + 8 * rank:
                raise ValueError(f"v2 B-tree record size {rrec} for "
                                 f"rank-{rank} unfiltered chunks")
            csl = 0
        else:
            csl = rrec - 12 - 8 * rank
            if not 1 <= csl <= 8:
                raise ValueError(f"v2 B-tree record size {rrec} for "
                                 f"rank-{rank} filtered chunks")
        cbytes = int(np.prod(cshape)) * itemsize
        leaf_max = (node_size - 10) // rrec
        mns = (leaf_max.bit_length() + 7) // 8
        cum_sz = [0]                  # cum_max_nrec_size per depth
        cum = leaf_max
        for d in range(1, depth + 1):
            ptr = 8 + mns + cum_sz[d - 1]
            mn = (node_size - (10 + ptr)) // (rrec + ptr)
            cum = (mn + 1) * cum + mn
            cum_sz.append((_log2_of2(cum) + 8) // 8)

        out = []

        def record(p: int):
            addr = int.from_bytes(self.buf[p:p + 8], "little")
            p += 8
            if btype == 11:
                nb = int.from_bytes(self.buf[p:p + csl], "little")
                p += csl + 4          # + filter mask
            else:
                nb = cbytes
            coords = tuple(
                struct.unpack_from("<Q", self.buf, p + 8 * i)[0] * c
                for i, c in enumerate(cshape))
            if addr != _UNDEF:
                out.append((coords, addr, nb))

        def walk(node_at: int, nrec: int, d: int):
            sig = b"BTLF" if d == 0 else b"BTIN"
            if self.buf[node_at:node_at + 4] != sig:
                raise ValueError(f"v2 B-tree node signature (depth {d})")
            if self.buf[node_at + 4] != 0 or self.buf[node_at + 5] != btype:
                raise ValueError("v2 B-tree node version/type")
            p = node_at + 6
            for i in range(nrec):
                record(p + i * rrec)
            p += nrec * rrec
            children = []
            if d > 0:
                psz = 8 + mns + (cum_sz[d - 1] if d > 1 else 0)
                for _ in range(nrec + 1):
                    caddr = int.from_bytes(self.buf[p:p + 8], "little")
                    cnrec = int.from_bytes(self.buf[p + 8:p + 8 + mns],
                                           "little")
                    children.append((caddr, cnrec))
                    p += psz
            stored, = struct.unpack_from("<I", self.buf, p)
            if stored != jenkins_lookup3(bytes(self.buf[node_at:p])):
                raise ValueError("v2 B-tree node checksum mismatch")
            for caddr, cnrec in children:
                walk(caddr, cnrec, d - 1)

        if tot_nrec:
            walk(root_at, root_nrec, depth)
        if len(out) > tot_nrec:
            raise ValueError("v2 B-tree yielded more records than the "
                             "header's total")
        return out

    def _parse_attr(self, body: int):
        ver = self.buf[body]
        if ver == 1:
            nsz, dtsz, dssz = struct.unpack_from("<HHH", self.buf, body + 2)
            p = body + 8
            name = self.buf[p:p + nsz - 1].decode()
            p += nsz + (-nsz % 8)
            dt, _u = _decode_dtype(self.buf, p)
            p += dtsz + (-dtsz % 8)
            shape = self._parse_dataspace(p)
            p += dssz + (-dssz % 8)
        elif ver == 3:
            flags = self.buf[body + 1]
            if flags & 0x03:
                raise NotImplementedError("shared attribute dt/ds")
            nsz, dtsz, dssz = struct.unpack_from("<HHH", self.buf, body + 2)
            p = body + 9                            # + name-encoding byte
            name = self.buf[p:p + nsz - 1].decode()
            p += nsz                                # v3: nothing is padded
            dt, _u = _decode_dtype(self.buf, p)
            p += dtsz
            shape = self._parse_dataspace(p)
            p += dssz
        else:
            raise NotImplementedError(f"attribute message v{ver}")
        n = int(np.prod(shape)) if shape else 1
        if isinstance(dt, tuple) and dt[0] == "str":
            raw = self.buf[p:p + dt[1]]
            return name, raw.split(b"\x00")[0].decode("utf-8", "replace")
        if isinstance(dt, tuple) and dt[0] == "vlen":
            vals = []
            for i in range(n):
                ln, gaddr, gidx = struct.unpack_from(
                    "<IQI", self.buf, p + 16 * i)
                vals.append(self._gheap_object(gaddr, gidx))
            return name, ("vlen", dt[1], vals)
        if isinstance(dt, tuple):
            return name, ("opaque", self.buf[p:p + 8 * n])
        arr = np.frombuffer(self.buf, dt, count=n, offset=p)
        return name, (arr[0] if not shape else arr.copy())

    def _gheap_object(self, gaddr: int, gidx: int) -> bytes:
        assert self.buf[gaddr:gaddr + 4] == b"GCOL"
        total, = struct.unpack_from("<Q", self.buf, gaddr + 8)
        p = gaddr + 16
        while p < gaddr + total:
            idx, _rc = struct.unpack_from("<HH", self.buf, p)
            sz, = struct.unpack_from("<Q", self.buf, p + 8)
            if idx == gidx:
                return self.buf[p + 16:p + 16 + sz]
            if idx == 0:
                break
            p += 16 + sz + (-sz % 8)
        raise KeyError(f"global heap object {gidx}")

    def _resolve_dims(self):
        for d in self.variables.values():
            dl = d.attrs.pop("DIMENSION_LIST", None)
            if dl and dl[0] == "vlen":
                names = []
                for refbytes in dl[2]:
                    addr, = struct.unpack("<Q", refbytes[:8])
                    names.append(self._addr_to_name.get(addr, ""))
                d.dim_names = tuple(names)
            elif len(d.shape) >= 1:
                # fallback: match 1D datasets (coordinate convention)
                dn = []
                for s in d.shape:
                    cand = sorted(n for n, v in self.variables.items()
                                  if v is not d and v.shape == (s,))
                    dn.append(cand[0] if cand else "")
                d.dim_names = tuple(dn)

    # -- data ---------------------------------------------------------------
    def _chunks(self, d: H5Dataset):
        """(coords, file offset, stored nbytes) of every chunk of a chunked
        dataset, across all supported chunk-index kinds."""
        kind = d.layout[0]
        if kind == "chunked":
            _k, bt, cshape = d.layout
            # b-tree keys carry rank+1 offsets (trailing element offset)
            return cshape, self._walk_chunk_btree(bt, len(cshape) + 1)
        if kind == "single":
            _k, addr, cshape, fsize = d.layout
            nb = fsize if fsize is not None \
                else int(np.prod(cshape)) * d.dtype.itemsize
            return cshape, ([((0,) * len(cshape), addr, nb)]
                            if addr != _UNDEF else [])
        if kind == "implicit":
            _k, base, cshape = d.layout
            cb = int(np.prod(cshape)) * d.dtype.itemsize
            return cshape, ([(c, base + i * cb, cb) for i, c in
                             enumerate(self._grid_coords(d.shape, cshape))]
                            if base != _UNDEF else [])
        if kind == "farray":
            _k, at, cshape = d.layout
            return cshape, self._walk_fixed_array(at, d.shape, cshape,
                                                  d.dtype.itemsize)
        if kind == "earray":
            _k, at, cshape, cp = d.layout
            if d.maxshape and any(m == _UNDEF for m in d.maxshape[1:]):
                raise NotImplementedError(
                    "extensible array with a non-leading unlimited "
                    "dimension (swizzled chunk order)")
            return cshape, self._walk_extensible_array(
                at, d.shape, cshape, d.dtype.itemsize, cp)
        if kind == "btree2":
            _k, at, cshape = d.layout
            return cshape, self._walk_btree2(at, cshape, d.dtype.itemsize)
        raise NotImplementedError(f"layout kind {kind}")

    def chunk_spans(self, name: str):
        """Header-only chunk enumeration -> (meta, spans): each span is
        {"coords", "offset", "count"} and decodes independently via
        decode_h5_chunk(meta, bytes) — the HDF5/NetCDF-4 analogue of
        jp2_tile_spans_file / geotiff_strip_spans.  Thanks to the mmap'd
        walk the driver touches only metadata pages, never chunk payload."""
        d = self.variables[name]
        if d.layout is None or d.layout[0] == "contiguous":
            raise ValueError(f"{name}: not a chunked dataset")
        cshape, chunks = self._chunks(d)
        meta = {"dtype": d.dtype.str, "cshape": tuple(int(c) for c in cshape),
                "shape": tuple(int(s) for s in d.shape),
                "filters": [(int(f), tuple(cd)) for f, cd in d.filters]}
        spans = [{"coords": tuple(int(c) for c in coords),
                  "offset": int(addr), "count": int(nbytes)}
                 for coords, addr, nbytes in chunks]
        return meta, spans

    def read(self, name: str) -> np.ndarray:
        d = self.variables[name]
        if d.layout is None:
            raise ValueError(f"{name}: no layout")
        if d.layout[0] == "contiguous":
            _k, a, sz = d.layout
            n = int(np.prod(d.shape)) if d.shape else 1
            return np.frombuffer(self.buf, d.dtype, count=n,
                                 offset=a).reshape(d.shape).copy()
        cshape, chunks = self._chunks(d)
        meta = {"dtype": d.dtype.str, "cshape": cshape,
                "filters": d.filters}
        out = np.zeros(d.shape, d.dtype)
        for coords, addr, nbytes in chunks:
            chunk = decode_h5_chunk(meta, self.buf[addr:addr + nbytes])
            sl = tuple(slice(o, min(o + c, s))
                       for o, c, s in zip(coords, cshape, d.shape))
            part = tuple(slice(0, s.stop - s.start) for s in sl)
            out[sl] = chunk[part]
        return out

    def close(self):
        try:
            self.buf.close()
        except AttributeError:
            pass
        self._f.close()

    def _walk_chunk_btree(self, at: int, rank1: int):
        assert self.buf[at:at + 4] == b"TREE", "chunk b-tree"
        level = self.buf[at + 5]
        nent, = struct.unpack_from("<H", self.buf, at + 6)
        keysize = 8 + 8 * rank1
        p = at + 24
        for _ in range(nent):
            nbytes, _mask = struct.unpack_from("<II", self.buf, p)
            coords = tuple(struct.unpack_from(
                "<Q", self.buf, p + 8 + 8 * i)[0] for i in range(rank1 - 1))
            child, = struct.unpack_from("<Q", self.buf, p + keysize)
            if level > 0:
                yield from self._walk_chunk_btree(child, rank1)
            else:
                yield coords, child, nbytes
            p += keysize + 8

    def subdatasets(self) -> list[str]:
        return [n for n, v in self.variables.items()
                if len(v.shape) >= 2
                and v.attrs.get("CLASS") != "DIMENSION_SCALE"]
