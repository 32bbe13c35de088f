"""JPEG2000 Part 1 (ITU-T T.800 / ISO/IEC 15444-1) reader AND writer, from
scratch on numpy + stdlib — the last raster format the reference exercises
(reference fixture /root/reference/tests/test_data/685.jp2; the reference
itself reads JP2 through GDAL, see
/root/reference/dggstools/rhpx/rasterutils.py — it contains no JPEG2000 code).

Scope (everything the lossless geospatial path needs; everything else raises
loudly, matching the repo's codec policy):
  - reversible 5/3 wavelet (Annex F lifting), RCT multi-component transform,
    no quantization (Sqcd style 0) — bit-exact roundtrip.
  - MQ arithmetic coder (Annex C, both directions, Qe table C.2).
  - EBCOT Tier-1 (Annex D): significance-propagation / magnitude-refinement /
    cleanup passes with run-length + UNIFORM mode, default code-block style
    (no bypass / reset / termall / causal / segmentation symbols).
  - Tier-2 (Annex B): tag trees, packet headers (inclusion, zero-bitplanes,
    pass counts Table B.4, Lblock length coding), bit-stuffing, single
    layer, default precincts (one precinct spanning each resolution).
  - tiled codestreams (one tile-part per tile, any tile order, tile sizes a
    multiple of 2^NL so every tile origin stays even at every synthesis
    scale; code-block grids anchored on the band canvas per B.7), single
    tile-part per tile; progression orders LRCP/RLCP/RPCL (the
    resolution-major families) with resolution-progressive truncated decode
    (`reduce=k` stops after resolution NL-k packets — 1/4^k of the Tier-1
    work per step, the standard resolution-scalability path).  Tiles are
    independently decodable: `jp2_tile_spans` + `decode_jp2_tile` expose
    them as the Ray fan-out unit for huge scenes (each task needs only the
    small main header plus its own tile-part bytes).
  - JP2 container boxes (jP/ftyp/jp2h/ihdr/colr/jp2c) and GeoJP2
    georeferencing (the b14bf8bd… UUID box holding a degenerate GeoTIFF),
    read and written via tiffio's tag parser.

Out of scope (explicit NotImplementedError): 9/7 irreversible wavelet,
multiple tile-parts per tile, tile sizes not a multiple of 2^NL, per-tile
COD/QCD overrides, user precincts smaller than a subband, multiple
layers, COC/QCC per-component overrides, PPM/PPT packed headers, RGN, and
arbitrary progression beyond the five standard orders.
"""
from __future__ import annotations

import struct

import numpy as np

from .tiffio import GeoTiff, geokeys_from_tags, parse_tiff_tags

_GEOJP2_UUID = bytes.fromhex("b14bf8bd083d4b43a5ae8cd7d5a6ce03")

# ---------------------------------------------------------------------------
# MQ arithmetic coder (T.800 Annex C; Qe table = Table C.2)
# ---------------------------------------------------------------------------

_QE = [
    (0x5601, 1, 1, 1), (0x3401, 2, 6, 0), (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0), (0x0521, 5, 29, 0), (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1), (0x5401, 8, 14, 0), (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0), (0x3001, 11, 17, 0), (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0), (0x1601, 29, 21, 0), (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0), (0x5101, 17, 15, 0), (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0), (0x3401, 20, 18, 0), (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0), (0x2401, 23, 20, 0), (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0), (0x1801, 26, 23, 0), (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0), (0x1201, 29, 26, 0), (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0), (0x09C1, 32, 29, 0), (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0), (0x0441, 35, 32, 0), (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0), (0x0141, 38, 35, 0), (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0), (0x0049, 41, 38, 0), (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0), (0x0009, 44, 41, 0), (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0), (0x5601, 46, 46, 0),
]
_QE_Q = [q for q, _, _, _ in _QE]
_QE_NMPS = [n for _, n, _, _ in _QE]
_QE_NLPS = [n for _, _, n, _ in _QE]
_QE_SW = [s for _, _, _, s in _QE]

# Tier-1 context indices (our numbering): 0-8 zero coding, 9-13 sign coding,
# 14-16 magnitude refinement, 17 run-length, 18 UNIFORM.
_CTX_RL, _CTX_UNI = 17, 18
_N_CTX = 19


def _init_states():
    I = [0] * _N_CTX
    I[0] = 4                  # ZC all-zero-neighborhood context
    I[_CTX_RL] = 3
    I[_CTX_UNI] = 46
    return I


class MQDecoder:
    """T.800 C.3 (INITDEC / BYTEIN / DECODE / RENORMD)."""

    __slots__ = ("d", "n", "bp", "c", "ct", "a", "I", "mps")

    def __init__(self, data: bytes):
        self.d = data
        self.n = len(data)
        self.bp = 0
        b0 = data[0] if self.n else 0xFF
        self.c = b0 << 16
        self.ct = 0
        self._bytein()
        self.c = (self.c << 7) & 0xFFFFFFFF
        self.ct -= 7
        self.a = 0x8000
        self.I = _init_states()
        self.mps = [0] * _N_CTX

    def _bytein(self):
        d, bp, n = self.d, self.bp, self.n
        cur = d[bp] if bp < n else 0xFF
        if cur == 0xFF:
            nxt = d[bp + 1] if bp + 1 < n else 0xFF
            if nxt > 0x8F:
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp = bp + 1
                self.c += nxt << 9
                self.ct = 7
        else:
            self.bp = bp + 1
            self.c += (d[bp + 1] if bp + 1 < n else 0xFF) << 8
            self.ct = 8

    def decode(self, k: int) -> int:
        i = self.I[k]
        qe = _QE_Q[i]
        self.a -= qe
        if (self.c >> 16) & 0xFFFF < qe:
            # LPS exchange path
            if self.a < qe:
                d = self.mps[k]
                self.I[k] = _QE_NMPS[i]
            else:
                d = 1 - self.mps[k]
                if _QE_SW[i]:
                    self.mps[k] ^= 1
                self.I[k] = _QE_NLPS[i]
            self.a = qe
        else:
            self.c -= qe << 16
            if self.a & 0x8000:
                return self.mps[k]
            if self.a < qe:
                d = 1 - self.mps[k]
                if _QE_SW[i]:
                    self.mps[k] ^= 1
                self.I[k] = _QE_NLPS[i]
            else:
                d = self.mps[k]
                self.I[k] = _QE_NMPS[i]
        while True:                        # RENORMD
            if self.ct == 0:
                self._bytein()
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.a & 0x8000:
                break
        return d


class MQEncoder:
    """T.800 C.2 (INITENC / CODEMPS / CODELPS / RENORME / BYTEOUT / FLUSH).
    A dummy leading byte stands in for the spec's BPST-1 position; it is
    dropped at flush."""

    __slots__ = ("out", "c", "ct", "a", "I", "mps")

    def __init__(self):
        self.out = bytearray([0x00])
        self.c = 0
        self.ct = 12
        self.a = 0x8000
        self.I = _init_states()
        self.mps = [0] * _N_CTX

    def _byteout(self):
        out = self.out
        if out[-1] == 0xFF:
            out.append((self.c >> 20) & 0xFF)
            self.c &= 0xFFFFF
            self.ct = 7
        elif self.c & 0x8000000:
            out[-1] += 1
            if out[-1] == 0xFF:
                self.c &= 0x7FFFFFF
                out.append((self.c >> 20) & 0xFF)
                self.c &= 0xFFFFF
                self.ct = 7
            else:
                out.append((self.c >> 19) & 0xFF)
                self.c &= 0x7FFFF
                self.ct = 8
        else:
            out.append((self.c >> 19) & 0xFF)
            self.c &= 0x7FFFF
            self.ct = 8

    def _renorme(self):
        while True:
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.ct == 0:
                self._byteout()
            if self.a & 0x8000:
                break

    def encode(self, k: int, d: int):
        i = self.I[k]
        qe = _QE_Q[i]
        self.a -= qe
        if d == self.mps[k]:               # CODEMPS
            if self.a & 0x8000:
                self.c += qe
            else:
                if self.a < qe:
                    self.a = qe
                else:
                    self.c += qe
                self.I[k] = _QE_NMPS[i]
                self._renorme()
        else:                              # CODELPS
            if self.a < qe:
                self.c += qe
            else:
                self.a = qe
            if _QE_SW[i]:
                self.mps[k] ^= 1
            self.I[k] = _QE_NLPS[i]
            self._renorme()

    def flush(self) -> bytes:
        # SETBITS
        tempc = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= tempc:
            self.c -= 0x8000
        self.c = (self.c << self.ct) & 0xFFFFFFFF
        self._byteout()
        self.c = (self.c << self.ct) & 0xFFFFFFFF
        self._byteout()
        if self.out[-1] == 0xFF:
            self.out.pop()
        return bytes(self.out[1:])


# ---------------------------------------------------------------------------
# Packet-header bit I/O with 0xFF stuffing (B.10.1)
# ---------------------------------------------------------------------------

class _HdrReader:
    def __init__(self, buf: bytes, p: int):
        self.buf = buf
        self.p = p
        self.cur = 0
        self.ct = 0

    def bit(self) -> int:
        if self.ct == 0:
            nxt = self.buf[self.p]
            self.p += 1
            self.ct = 7 if self.cur == 0xFF else 8
            self.cur = nxt
        self.ct -= 1
        return (self.cur >> self.ct) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def align(self):
        """End of packet header: drop partial bits; a header whose last byte
        is 0xFF is followed by its stuffed partner byte."""
        self.ct = 0
        if self.cur == 0xFF:
            self.cur = self.buf[self.p]
            self.p += 1


class _HdrWriter:
    def __init__(self):
        self.out = bytearray()
        self.cur = 0
        self.n = 0
        self.cap = 8

    def put(self, b: int):
        self.cur = (self.cur << 1) | (b & 1)
        self.n += 1
        if self.n == self.cap:
            self.out.append(self.cur)
            self.cap = 7 if self.cur == 0xFF else 8
            self.cur = 0
            self.n = 0

    def putbits(self, v: int, n: int):
        for s in range(n - 1, -1, -1):
            self.put((v >> s) & 1)

    def align(self) -> bytes:
        if self.n:
            self.cur <<= (self.cap - self.n)
            if self.cap == 7:
                # we are inside a stuffed byte: its MSB is the forced 0
                self.cur &= 0x7F
            self.out.append(self.cur)
            self.cur = 0
            self.n = 0
            self.cap = 8
        if self.out and self.out[-1] == 0xFF:
            self.out.append(0x00)
        return bytes(self.out)


class TagTree:
    """B.10.2 tag trees (encode and decode on the same structure)."""

    def __init__(self, w: int, h: int):
        self.sizes = [(w, h)]
        while w > 1 or h > 1:
            w, h = (w + 1) // 2, (h + 1) // 2
            self.sizes.append((w, h))
        self.low = [[0] * (ww * hh) for ww, hh in self.sizes]
        self.known = [[False] * (ww * hh) for ww, hh in self.sizes]
        self.value = [[0] * (ww * hh) for ww, hh in self.sizes]

    def set_values(self, leaf_vals: list[int]):
        self.value[0] = list(leaf_vals)
        for lvl in range(1, len(self.sizes)):
            cw, ch = self.sizes[lvl - 1]
            pw, ph = self.sizes[lvl]
            child = self.value[lvl - 1]
            self.value[lvl] = [
                min(child[y * cw + x]
                    for y in range(py * 2, min(py * 2 + 2, ch))
                    for x in range(px * 2, min(px * 2 + 2, cw)))
                for py in range(ph) for px in range(pw)]

    def decode(self, rdr: _HdrReader, x: int, y: int, threshold: int) -> bool:
        """Consume bits; True iff value(x, y) is resolved below threshold."""
        low = 0
        for lvl in range(len(self.sizes) - 1, -1, -1):
            w, _ = self.sizes[lvl]
            idx = (y >> lvl) * w + (x >> lvl)
            if self.low[lvl][idx] < low:
                self.low[lvl][idx] = low
            while not self.known[lvl][idx] and self.low[lvl][idx] < threshold:
                if rdr.bit():
                    self.known[lvl][idx] = True
                else:
                    self.low[lvl][idx] += 1
            low = self.low[lvl][idx]
        return self.known[0][idx] and low < threshold

    def decode_value(self, rdr: _HdrReader, x: int, y: int) -> int:
        v = 0
        while not self.decode(rdr, x, y, v + 1):
            v += 1
        return v

    def encode(self, wtr: _HdrWriter, x: int, y: int, threshold: int):
        low = 0
        for lvl in range(len(self.sizes) - 1, -1, -1):
            w, _ = self.sizes[lvl]
            idx = (y >> lvl) * w + (x >> lvl)
            if self.low[lvl][idx] < low:
                self.low[lvl][idx] = low
            while self.low[lvl][idx] < threshold:
                if self.low[lvl][idx] >= self.value[lvl][idx]:
                    if not self.known[lvl][idx]:
                        wtr.put(1)
                        self.known[lvl][idx] = True
                    break
                wtr.put(0)
                self.low[lvl][idx] += 1
            low = self.low[lvl][idx]


def _decode_npasses(rdr: _HdrReader) -> int:
    """Table B.4."""
    if not rdr.bit():
        return 1
    if not rdr.bit():
        return 2
    v = rdr.bits(2)
    if v < 3:
        return 3 + v
    v = rdr.bits(5)
    if v < 31:
        return 6 + v
    return 37 + rdr.bits(7)


def _encode_npasses(wtr: _HdrWriter, n: int):
    if n == 1:
        wtr.put(0)
    elif n == 2:
        wtr.put(1)
        wtr.put(0)
    elif n <= 5:
        wtr.putbits(0b11, 2)
        wtr.putbits(n - 3, 2)
    elif n <= 36:
        wtr.putbits(0b1111, 4)
        wtr.putbits(n - 6, 5)
    else:
        wtr.putbits(0b111111111, 9)
        wtr.putbits(n - 37, 7)


# ---------------------------------------------------------------------------
# Tier-1: EBCOT code-block coder (Annex D)
# ---------------------------------------------------------------------------

def _mk_zc_luts():
    """Zero-coding context tables (Table D.1), indexed h + 3*v + 9*d."""
    base = [0] * 45
    hh = [0] * 45
    for h in range(3):
        for v in range(3):
            for d in range(5):
                if h == 2:
                    c = 8
                elif h == 1:
                    c = 7 if v >= 1 else (6 if d >= 1 else 5)
                else:
                    c = (4 if v == 2 else 3 if v == 1 else
                         2 if d >= 2 else 1 if d == 1 else 0)
                base[h + 3 * v + 9 * d] = c
                hv = h + v
                if d >= 3:
                    ch = 8
                elif d == 2:
                    ch = 7 if hv >= 1 else 6
                elif d == 1:
                    ch = 5 if hv >= 2 else 4 if hv == 1 else 3
                else:
                    ch = 2 if hv >= 2 else 1 if hv == 1 else 0
                hh[h + 3 * v + 9 * d] = ch
    hl = [base[v + 3 * h + 9 * d] for d in range(5)
          for v in range(3) for h in range(3)]
    # rebuild hl with the same h + 3v + 9d indexing, h and v swapped
    hl = [0] * 45
    for h in range(3):
        for v in range(3):
            for d in range(5):
                hl[h + 3 * v + 9 * d] = base[v + 3 * h + 9 * d]
    return {"LL": base, "LH": base, "HL": hl, "HH": hh}


_ZC = _mk_zc_luts()

# Sign-coding contexts (Table D.3), indexed (hc+1)*3 + (vc+1) -> (ctx, xor)
_SC = [None] * 9
for _hc, _vc, _ctx, _xr in [(1, 1, 13, 0), (1, 0, 12, 0), (1, -1, 11, 0),
                            (0, 1, 10, 0), (0, 0, 9, 0), (0, -1, 10, 1),
                            (-1, 1, 11, 1), (-1, 0, 12, 1), (-1, -1, 13, 1)]:
    _SC[(_hc + 1) * 3 + (_vc + 1)] = (_ctx, _xr)


class _CblkState:
    """Shared scan-state for one code-block (decoder and encoder): flat
    border-padded significance / sign / visited / refined arrays."""

    __slots__ = ("w", "h", "W", "sig", "sgn", "vis", "ref")

    def __init__(self, w: int, h: int):
        self.w, self.h = w, h
        self.W = w + 2
        n = self.W * (h + 2)
        self.sig = bytearray(n)
        self.sgn = bytearray(n)
        self.vis = bytearray(n)
        self.ref = bytearray(n)


def _sc_ctx(st: _CblkState, i: int):
    sig, sgn, W = st.sig, st.sgn, st.W
    hc = ((sig[i - 1] and (1 - 2 * sgn[i - 1])) +
          (sig[i + 1] and (1 - 2 * sgn[i + 1])))
    vc = ((sig[i - W] and (1 - 2 * sgn[i - W])) +
          (sig[i + W] and (1 - 2 * sgn[i + W])))
    hc = 1 if hc > 0 else (-1 if hc < 0 else 0)
    vc = 1 if vc > 0 else (-1 if vc < 0 else 0)
    return _SC[(hc + 1) * 3 + (vc + 1)]


def cblk_decode(data: bytes, w: int, h: int, nplanes: int, npasses: int,
                band: str) -> np.ndarray:
    """Decode one code-block's MQ codeword segment into signed int32
    coefficients (h, w).  nplanes = Mb - zero_bitplanes."""
    mq = MQDecoder(data)
    st = _CblkState(w, h)
    sig, sgn, vis, ref = st.sig, st.sgn, st.vis, st.ref
    W = st.W
    zc = _ZC[band]
    mag = [0] * (w * h)
    p = nplanes - 1
    for passno in range(npasses):
        if p < 0:
            break
        ptype = 2 if passno == 0 else (passno + 2) % 3
        bitval = 1 << p
        if ptype == 0:                     # significance propagation
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ymax):
                        i = (y + 1) * W + (x + 1)
                        if sig[i]:
                            continue
                        hn = sig[i - 1] + sig[i + 1]
                        vn = sig[i - W] + sig[i + W]
                        dn = (sig[i - W - 1] + sig[i - W + 1] +
                              sig[i + W - 1] + sig[i + W + 1])
                        if hn + vn + dn == 0:
                            continue
                        vis[i] = 1
                        if mq.decode(zc[hn + 3 * vn + 9 * dn]):
                            ctx, xr = _sc_ctx(st, i)
                            sgn[i] = mq.decode(ctx) ^ xr
                            sig[i] = 1
                            mag[y * w + x] |= bitval
        elif ptype == 1:                   # magnitude refinement
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ymax):
                        i = (y + 1) * W + (x + 1)
                        if not sig[i] or vis[i]:
                            continue
                        if ref[i]:
                            ctx = 16
                        else:
                            nb = (sig[i - 1] + sig[i + 1] + sig[i - W] +
                                  sig[i + W] + sig[i - W - 1] +
                                  sig[i - W + 1] + sig[i + W - 1] +
                                  sig[i + W + 1])
                            ctx = 15 if nb else 14
                        ref[i] = 1
                        if mq.decode(ctx):
                            mag[y * w + x] |= bitval
        else:                              # cleanup
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    y = y0
                    if ymax - y0 == 4:
                        allclear = True
                        for yy in range(y0, ymax):
                            i = (yy + 1) * W + (x + 1)
                            if (vis[i] or sig[i] or sig[i - 1] or sig[i + 1]
                                    or sig[i - W] or sig[i + W]
                                    or sig[i - W - 1] or sig[i - W + 1]
                                    or sig[i + W - 1] or sig[i + W + 1]):
                                allclear = False
                                break
                        if allclear:
                            if not mq.decode(_CTX_RL):
                                continue
                            k = (mq.decode(_CTX_UNI) << 1) | mq.decode(
                                _CTX_UNI)
                            y = y0 + k
                            i = (y + 1) * W + (x + 1)
                            ctx, xr = _sc_ctx(st, i)
                            sgn[i] = mq.decode(ctx) ^ xr
                            sig[i] = 1
                            mag[y * w + x] |= bitval
                            y += 1
                    for yy in range(y, ymax):
                        i = (yy + 1) * W + (x + 1)
                        if vis[i] or sig[i]:
                            continue
                        hn = sig[i - 1] + sig[i + 1]
                        vn = sig[i - W] + sig[i + W]
                        dn = (sig[i - W - 1] + sig[i - W + 1] +
                              sig[i + W - 1] + sig[i + W + 1])
                        if mq.decode(zc[hn + 3 * vn + 9 * dn]):
                            ctx, xr = _sc_ctx(st, i)
                            sgn[i] = mq.decode(ctx) ^ xr
                            sig[i] = 1
                            mag[yy * w + x] |= bitval
            vis[:] = bytes(len(vis))
            p -= 1
    out = np.array(mag, dtype=np.int64).reshape(h, w)
    sg = np.frombuffer(bytes(sgn), dtype=np.uint8).reshape(h + 2, W)[
        1:h + 1, 1:w + 1].astype(np.int64)
    return ((1 - 2 * sg) * out).astype(np.int32)


def cblk_encode(coef: np.ndarray, band: str) -> tuple[bytes, int, int]:
    """Encode one code-block of signed int coefficients.  Returns
    (codeword_segment, nplanes, npasses); nplanes == 0 means the block is
    entirely zero (not included in any packet)."""
    h, w = coef.shape
    av = np.abs(coef.astype(np.int64))
    vmax = int(av.max()) if av.size else 0
    if vmax == 0:
        return b"", 0, 0
    nplanes = int(vmax).bit_length()
    npasses = 3 * nplanes - 2
    neg = (coef < 0)
    mq = MQEncoder()
    st = _CblkState(w, h)
    sig, sgn, vis, ref = st.sig, st.sgn, st.vis, st.ref
    W = st.W
    zc = _ZC[band]
    avl = av.tolist()
    negl = neg.tolist()
    p = nplanes - 1
    for passno in range(npasses):
        ptype = 2 if passno == 0 else (passno + 2) % 3
        bitval = 1 << p
        if ptype == 0:
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ymax):
                        i = (y + 1) * W + (x + 1)
                        if sig[i]:
                            continue
                        hn = sig[i - 1] + sig[i + 1]
                        vn = sig[i - W] + sig[i + W]
                        dn = (sig[i - W - 1] + sig[i - W + 1] +
                              sig[i + W - 1] + sig[i + W + 1])
                        if hn + vn + dn == 0:
                            continue
                        vis[i] = 1
                        b = 1 if avl[y][x] & bitval else 0
                        mq.encode(zc[hn + 3 * vn + 9 * dn], b)
                        if b:
                            s = 1 if negl[y][x] else 0
                            ctx, xr = _sc_ctx(st, i)
                            mq.encode(ctx, s ^ xr)
                            sgn[i] = s
                            sig[i] = 1
        elif ptype == 1:
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ymax):
                        i = (y + 1) * W + (x + 1)
                        if not sig[i] or vis[i]:
                            continue
                        if ref[i]:
                            ctx = 16
                        else:
                            nb = (sig[i - 1] + sig[i + 1] + sig[i - W] +
                                  sig[i + W] + sig[i - W - 1] +
                                  sig[i - W + 1] + sig[i + W - 1] +
                                  sig[i + W + 1])
                            ctx = 15 if nb else 14
                        ref[i] = 1
                        mq.encode(ctx, 1 if avl[y][x] & bitval else 0)
        else:
            for y0 in range(0, h, 4):
                ymax = min(y0 + 4, h)
                for x in range(w):
                    y = y0
                    if ymax - y0 == 4:
                        allclear = True
                        for yy in range(y0, ymax):
                            i = (yy + 1) * W + (x + 1)
                            if (vis[i] or sig[i] or sig[i - 1] or sig[i + 1]
                                    or sig[i - W] or sig[i + W]
                                    or sig[i - W - 1] or sig[i - W + 1]
                                    or sig[i + W - 1] or sig[i + W + 1]):
                                allclear = False
                                break
                        if allclear:
                            k = -1
                            for yy in range(y0, ymax):
                                if avl[yy][x] & bitval:
                                    k = yy - y0
                                    break
                            if k < 0:
                                mq.encode(_CTX_RL, 0)
                                continue
                            mq.encode(_CTX_RL, 1)
                            mq.encode(_CTX_UNI, (k >> 1) & 1)
                            mq.encode(_CTX_UNI, k & 1)
                            y = y0 + k
                            i = (y + 1) * W + (x + 1)
                            s = 1 if negl[y][x] else 0
                            ctx, xr = _sc_ctx(st, i)
                            mq.encode(ctx, s ^ xr)
                            sgn[i] = s
                            sig[i] = 1
                            y += 1
                    for yy in range(y, ymax):
                        i = (yy + 1) * W + (x + 1)
                        if vis[i] or sig[i]:
                            continue
                        hn = sig[i - 1] + sig[i + 1]
                        vn = sig[i - W] + sig[i + W]
                        dn = (sig[i - W - 1] + sig[i - W + 1] +
                              sig[i + W - 1] + sig[i + W + 1])
                        b = 1 if avl[yy][x] & bitval else 0
                        mq.encode(zc[hn + 3 * vn + 9 * dn], b)
                        if b:
                            s = 1 if negl[yy][x] else 0
                            ctx, xr = _sc_ctx(st, i)
                            mq.encode(ctx, s ^ xr)
                            sgn[i] = s
                            sig[i] = 1
            vis[:] = bytes(len(vis))
            p -= 1
    return mq.flush(), nplanes, npasses


# ---------------------------------------------------------------------------
# Reversible 5/3 wavelet (Annex F lifting) + RCT
# ---------------------------------------------------------------------------

def _synth53_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """1D synthesis along axis 1; lo (r, nl), hi (r, nh), nl = ceil(n/2)."""
    nl, nh = lo.shape[1], hi.shape[1]
    n = nl + nh
    if n == 1:
        return lo.astype(np.int64)
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    he = np.concatenate([hi[:, :1], hi, hi[:, -1:]], axis=1)
    ev = lo - ((he[:, :nl] + he[:, 1:nl + 1] + 2) >> 2)
    ee = np.concatenate([ev, ev[:, -1:]], axis=1)
    od = hi + ((ev[:, :nh] + ee[:, 1:nh + 1]) >> 1)
    out = np.empty((lo.shape[0], n), np.int64)
    out[:, 0::2] = ev
    out[:, 1::2] = od
    return out


def _fwd53_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[1]
    if n == 1:
        return x.astype(np.int64), x[:, :0].astype(np.int64)
    x = x.astype(np.int64)
    ev, od = x[:, 0::2], x[:, 1::2]
    nh = od.shape[1]
    ee = np.concatenate([ev, ev[:, -1:]], axis=1)
    hi = od - ((ev[:, :nh] + ee[:, 1:nh + 1]) >> 1)
    he = np.concatenate([hi[:, :1], hi, hi[:, -1:]], axis=1)
    lo = ev + ((he[:, :ev.shape[1]] + he[:, 1:ev.shape[1] + 1] + 2) >> 2)
    return lo, hi


def synth53_level(ll, hl, lh, hh) -> np.ndarray:
    """One 2D synthesis level: horizontal rows first, then vertical columns
    (the T.800 order — matches forward = vertical split then horizontal)."""
    top = _synth53_rows(ll, hl)
    bot = _synth53_rows(lh, hh)
    return _synth53_rows(top.T, bot.T).T


def fwd53_level(a: np.ndarray):
    lo_v, hi_v = _fwd53_rows(a.T)
    L, H = lo_v.T, hi_v.T
    ll, hl = _fwd53_rows(L)
    lh, hh = _fwd53_rows(H)
    return ll, hl, lh, hh


def rct_forward(r, g, b):
    y = (r + 2 * g + b) >> 2
    return y, b - g, r - g


def rct_inverse(y, u, v):
    g = y - ((u + v) >> 2)
    return v + g, g, u + g


# ---------------------------------------------------------------------------
# Tier-2: codestream
# ---------------------------------------------------------------------------

_SOC, _SIZ, _COD, _QCD, _COM, _SOT, _SOD, _EOC = (
    0xFF4F, 0xFF51, 0xFF52, 0xFF5C, 0xFF64, 0xFF90, 0xFF93, 0xFFD9)
_UNSUPPORTED = {0xFF53: "COC per-component coding override",
                0xFF5D: "QCC per-component quantization override",
                0xFF5E: "RGN region of interest",
                0xFF60: "PPM packed packet headers",
                0xFF61: "PPT packed packet headers"}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _band_dims(W: int, H: int, lvl: int, band: str) -> tuple[int, int]:
    wl, hl = _ceil_div(W, 1 << lvl), _ceil_div(H, 1 << lvl)
    wp, hp = _ceil_div(W, 1 << (lvl - 1)), _ceil_div(H, 1 << (lvl - 1))
    if band == "LL":
        return wl, hl
    if band == "HL":
        return wp - wl, hl
    if band == "LH":
        return wl, hp - hl
    return wp - wl, hp - hl


def _res_bands(NL: int, r: int):
    """Subbands of resolution r: (name, decomposition level)."""
    if r == 0:
        return [("LL", NL)]
    lvl = NL - r + 1
    return [("HL", lvl), ("LH", lvl), ("HH", lvl)]


def _ilog2(n: int) -> int:
    return n.bit_length() - 1


class _Codestream:
    """Parsed main-header state."""

    def __init__(self):
        self.W = self.H = 0
        self.XT = self.YT = 0
        self.ncomp = 0
        self.depth = 8
        self.signed = False
        self.NL = 0
        self.prog = 0
        self.mct = 0
        self.cbw = self.cbh = 64
        self.eps = []          # per-subband exponents, LL then r=1.. HL,LH,HH
        self.guard = 1
        self.use_sop = False
        self.use_eph = False


def _parse_main_header(buf: bytes, p: int) -> tuple[_Codestream, int]:
    cs = _Codestream()
    m, = struct.unpack_from(">H", buf, p)
    if m != _SOC:
        raise ValueError("not a JPEG2000 codestream (no SOC)")
    p += 2
    while True:
        m, = struct.unpack_from(">H", buf, p)
        if m == _SOT:
            return cs, p
        ln, = struct.unpack_from(">H", buf, p + 2)
        body = p + 4
        if m in _UNSUPPORTED:
            raise NotImplementedError(f"JPEG2000 {_UNSUPPORTED[m]}")
        if m == _SIZ:
            (rsiz, xs, ys, xo, yo, xt, yt, xto, yto, nc) = struct.unpack_from(
                ">HIIIIIIIIH", buf, body)
            if (xo, yo, xto, yto) != (0, 0, 0, 0):
                raise NotImplementedError("non-zero image/tile offsets")
            cs.W, cs.H, cs.ncomp = xs, ys, nc
            cs.XT, cs.YT = min(xt, xs), min(yt, ys)
            for c in range(nc):
                ss, xr, yr = struct.unpack_from(
                    "BBB", buf, body + 36 + 3 * c)
                if (xr, yr) != (1, 1):
                    raise NotImplementedError("component subsampling")
                depth, signed = (ss & 0x7F) + 1, bool(ss & 0x80)
                if c == 0:
                    cs.depth, cs.signed = depth, signed
                elif (depth, signed) != (cs.depth, cs.signed):
                    raise NotImplementedError("mixed component depths")
        elif m == _COD:
            scod, prog, nlayers, mct, ndec, cbw, cbh, cbstyle, tr = \
                struct.unpack_from(">BBHBBBBBB", buf, body)
            if nlayers != 1:
                raise NotImplementedError(f"{nlayers} quality layers "
                                          "(single-layer only)")
            if cbstyle != 0:
                raise NotImplementedError(
                    f"code-block style 0x{cbstyle:02x} (bypass/reset/"
                    "termall/causal/segsym)")
            if tr != 1:
                raise NotImplementedError(
                    "9/7 irreversible wavelet (lossless 5/3 only)")
            if prog > 4:
                raise ValueError(f"unknown progression order {prog}")
            cs.use_sop = bool(scod & 0x02)
            cs.use_eph = bool(scod & 0x04)
            cs.prog, cs.mct, cs.NL = prog, mct, ndec
            cs.cbw, cs.cbh = 1 << (cbw + 2), 1 << (cbh + 2)
            if scod & 0x01:
                # explicit precinct sizes: supported only when every
                # precinct covers its whole resolution (the default shape)
                for r in range(ndec + 1):
                    pp = buf[body + 9 + r]
                    pw, ph = 1 << (pp & 0x0F), 1 << (pp >> 4)
                    rw = _ceil_div(cs.XT or cs.W, 1 << (ndec - r))
                    rh = _ceil_div(cs.YT or cs.H, 1 << (ndec - r))
                    if pw < rw or ph < rh:
                        raise NotImplementedError(
                            "precincts smaller than the resolution")
        elif m == _QCD:
            sqcd = buf[body]
            if sqcd & 0x1F:
                raise NotImplementedError(
                    "quantized subbands (reversible no-quantization only)")
            cs.guard = sqcd >> 5
            cs.eps = [buf[body + 1 + i] >> 3 for i in range(ln - 3)]
        p += 2 + ln


def _band_eps_index(r: int) -> tuple[int, int, int] | int:
    """SPqcd index(es) for resolution r's bands (LL at 0)."""
    return 0 if r == 0 else (3 * (r - 1) + 1, 3 * (r - 1) + 2,
                             3 * (r - 1) + 3)


def _packet_order(cs: _Codestream, max_r: int):
    """(r, c) packet sequence for single layer / single precinct.  LRCP,
    RLCP and RPCL are resolution-major; PCRL and CPRL are component-major."""
    if cs.prog in (0, 1, 2):
        return [(r, c) for r in range(cs.NL + 1) if r <= max_r
                for c in range(cs.ncomp)], True
    return [(r, c) for c in range(cs.ncomp)
            for r in range(cs.NL + 1) if r <= max_r], False


def _anchored_grid(b0: int, bsz: int, cb: int) -> tuple[int, int]:
    """Code-block grid of a tile-band whose canvas origin along one axis is
    b0 and extent bsz: blocks are anchored at multiples of cb from band
    coordinate 0 (T.800 B.7), so an interior tile's FIRST block may be
    narrower than cb.  -> (first block index g0, block count)."""
    g0 = b0 // cb
    return g0, _ceil_div(b0 + bsz, cb) - g0


def _check_tile_grid(cs: _Codestream):
    if cs.XT <= 0 or cs.YT <= 0 or cs.W <= 0 or cs.H <= 0:
        raise ValueError(
            f"invalid SIZ dimensions {cs.W}x{cs.H} tiles {cs.XT}x{cs.YT}")
    ntx, nty = _ceil_div(cs.W, cs.XT), _ceil_div(cs.H, cs.YT)
    if ntx * nty > 1:
        step = 1 << cs.NL
        if cs.XT % step or cs.YT % step:
            raise NotImplementedError(
                f"tile size {cs.XT}x{cs.YT} not a multiple of "
                f"2^NL={step} (multi-tile decode needs even tile origins "
                "at every synthesis scale)")
    return ntx, nty


def _tile_part(buf: bytes, p: int) -> tuple[int, int, int]:
    """Parse one SOT segment + tile-part header at p -> (isot, sod_body_p,
    tile_end).  Raises loudly on the unsupported tile-part shapes."""
    _, lsot, isot, psot, tpsot, tnsot = struct.unpack_from(
        ">HHHIBB", buf, p)
    if tpsot != 0 or tnsot not in (0, 1):
        raise NotImplementedError("multiple tile-parts per tile")
    tile_end = p + psot if psot else len(buf) - 2
    p += 2 + lsot
    m, = struct.unpack_from(">H", buf, p)
    while m != _SOD:                      # tile-part header markers
        if m in _UNSUPPORTED:
            raise NotImplementedError(f"JPEG2000 {_UNSUPPORTED[m]}")
        if m in (_COD, _QCD):
            raise NotImplementedError("per-tile COD/QCD override")
        ln, = struct.unpack_from(">H", buf, p + 2)
        p += 2 + ln
        m, = struct.unpack_from(">H", buf, p)
    return isot, p + 2, tile_end


def _decode_tile_body(buf: bytes, p: int, tile_end: int, cs: _Codestream,
                      tx0: int, ty0: int, tw: int, th: int, max_r: int):
    """Decode one tile's packet stream -> per-component synthesized arrays
    (ceil(tw/2^reduce) x ceil(th/2^reduce)), NO multi-component transform.
    Valid because the tile origin is a multiple of 2^NL: every resolution
    origin is even, so origin-0 lifting math applies to the tile dims; only
    the code-block grid needs canvas anchoring (band origin = t0 >> lvl,
    identical for low and high subbands as t0 is divisible by 2^lvl)."""
    bands = {}
    for c in range(cs.ncomp):
        for r in range(cs.NL + 1):
            for name, lvl in _res_bands(cs.NL, r):
                bw, bh = _band_dims(tw, th, lvl, name)
                bands[(c, r, name)] = np.zeros((bh, bw), np.int64)
    order, res_major = _packet_order(cs, cs.NL)
    for (r, c) in order:
        if r > max_r:
            if res_major:
                break                     # resolutions come in order: stop
            # component-major: must parse (and discard) this packet to
            # stay in sync
        if cs.use_sop and struct.unpack_from(">H", buf, p)[0] == 0xFF91:
            p += 6
        rdr = _HdrReader(buf, p)
        blocks = []
        if rdr.bit():                     # non-empty packet
            for name, lvl in _res_bands(cs.NL, r):
                bw, bh = _band_dims(tw, th, lvl, name)
                if bw == 0 or bh == 0:
                    continue
                _, nbx = _anchored_grid(tx0 >> lvl, bw, cs.cbw)
                _, nby = _anchored_grid(ty0 >> lvl, bh, cs.cbh)
                incl = TagTree(nbx, nby)
                zbps = TagTree(nbx, nby)
                ei = _band_eps_index(r)
                eps = cs.eps[ei if r == 0 else ei[
                    ("HL", "LH", "HH").index(name)]]
                Mb = cs.guard + eps - 1
                for by in range(nby):
                    for bx in range(nbx):
                        if not incl.decode(rdr, bx, by, 1):
                            continue
                        zbp = zbps.decode_value(rdr, bx, by)
                        npass = _decode_npasses(rdr)
                        lblock = 3
                        while rdr.bit():
                            lblock += 1
                        ln = rdr.bits(lblock + _ilog2(npass))
                        blocks.append((name, lvl, bx, by, Mb - zbp,
                                       npass, ln))
        rdr.align()
        p = rdr.p
        if cs.use_eph:
            if struct.unpack_from(">H", buf, p)[0] != 0xFF92:
                raise ValueError("EPH marker expected")
            p += 2
        for name, lvl, bx, by, nplanes, npass, ln in blocks:
            if r <= max_r:
                bw, bh = _band_dims(tw, th, lvl, name)
                bo_x, bo_y = tx0 >> lvl, ty0 >> lvl
                gx0, gy0 = bo_x // cs.cbw, bo_y // cs.cbh
                x0 = max(bo_x, (gx0 + bx) * cs.cbw) - bo_x
                y0 = max(bo_y, (gy0 + by) * cs.cbh) - bo_y
                w = min(bw, (gx0 + bx + 1) * cs.cbw - bo_x) - x0
                h = min(bh, (gy0 + by + 1) * cs.cbh - bo_y) - y0
                coef = cblk_decode(buf[p:p + ln], w, h, nplanes, npass,
                                   name)
                bands[(c, r, name)][y0:y0 + h, x0:x0 + w] = coef
            p += ln
        if p > tile_end:
            raise ValueError("packet data overruns tile-part length")
    comps = []
    for c in range(cs.ncomp):
        ll = bands[(c, 0, "LL")]
        for r in range(1, max_r + 1):
            lvl = cs.NL - r + 1
            ll = synth53_level(ll, bands[(c, r, "HL")],
                               bands[(c, r, "LH")], bands[(c, r, "HH")])
        comps.append(ll)
    return comps


def decode_codestream(buf: bytes, p0: int = 0, reduce: int = 0):
    """Decode a JPEG2000 codestream -> list of (H', W') int64 component
    arrays (pre-DC-shift samples), plus the parsed header.  reduce=k drops
    the k finest resolutions (output is ceil(dim / 2^k)).  Tiled
    codestreams decode tile by tile (any tile order) and assemble."""
    cs, p = _parse_main_header(buf, p0)
    reduce = min(reduce, cs.NL)
    max_r = cs.NL - reduce
    ntx, nty = _check_tile_grid(cs)
    k = 1 << reduce
    comps = [np.zeros((_ceil_div(cs.H, k), _ceil_div(cs.W, k)), np.int64)
             for _ in range(cs.ncomp)]
    seen = set()
    while True:
        m, = struct.unpack_from(">H", buf, p)
        if m == _EOC:
            break
        if m != _SOT:
            raise ValueError(f"expected SOT or EOC, got 0x{m:04x}")
        isot, q, tile_end = _tile_part(buf, p)
        if isot >= ntx * nty or isot in seen:
            raise ValueError(f"bad or repeated tile index {isot}")
        seen.add(isot)
        ti, tj = divmod(isot, ntx)
        tx0, ty0 = tj * cs.XT, ti * cs.YT
        tw, th = min(cs.W, tx0 + cs.XT) - tx0, min(cs.H, ty0 + cs.YT) - ty0
        tc = _decode_tile_body(buf, q, tile_end, cs, tx0, ty0, tw, th,
                               max_r)
        for c in range(cs.ncomp):
            a = tc[c]
            comps[c][ty0 // k:ty0 // k + a.shape[0],
                     tx0 // k:tx0 // k + a.shape[1]] = a
        p = tile_end
    if len(seen) != ntx * nty:
        raise ValueError(f"codestream has {len(seen)} of {ntx * nty} tiles")
    if cs.mct and cs.ncomp >= 3:
        comps[0], comps[1], comps[2] = rct_inverse(comps[0], comps[1],
                                                   comps[2])
    return comps, cs


def jp2_tile_spans(buf: bytes, p0: int | None = None):
    """Scan markers only (no entropy decode) -> (main_header_bytes, spans,
    cs) where each span is {"isot", "start", "end", "x0", "y0", "w", "h"}
    with start/end absolute file offsets of the tile-part (SOT..next SOT).
    Each span decodes independently via `decode_jp2_tile(header,
    buf[start:end])` — the Ray fan-out unit for huge scenes: a task ships
    only the ~100-byte main header plus its own tile bytes, never the whole
    file.  Accepts a raw codestream or a JP2 container (p0=None locates the
    jp2c box)."""
    if p0 is None:
        if buf[:4] == b"\xff\x4f\xff\x51":
            p0 = 0
        else:
            p0 = next((a for typ, a, _ in _boxes(buf, 0, len(buf))
                       if typ == b"jp2c"), None)
            if p0 is None:
                raise ValueError("JP2 file has no jp2c codestream box")
    cs, p = _parse_main_header(buf, p0)
    ntx, nty = _check_tile_grid(cs)
    header = bytes(buf[p0:p])
    spans = []
    while True:
        m, = struct.unpack_from(">H", buf, p)
        if m == _EOC:
            break
        if m != _SOT:
            raise ValueError(f"expected SOT or EOC, got 0x{m:04x}")
        isot, _, tile_end = _tile_part(buf, p)
        ti, tj = divmod(isot, ntx)
        tx0, ty0 = tj * cs.XT, ti * cs.YT
        spans.append({"isot": isot, "start": p, "end": tile_end,
                      "x0": tx0, "y0": ty0,
                      "w": min(cs.W, tx0 + cs.XT) - tx0,
                      "h": min(cs.H, ty0 + cs.YT) - ty0})
        p = tile_end
    if len(spans) != ntx * nty:
        raise ValueError(f"codestream has {len(spans)} of {ntx * nty} tiles")
    return header, spans, cs


def jp2_tile_spans_file(path: str):
    """Seek-based `jp2_tile_spans`: reads the container's small boxes, the
    codestream main header and each 12-byte SOT header — never a tile
    payload.  -> (main_header, spans, cs, geo) where geo carries GeoJP2
    georeferencing ({"left","top","res_x","res_y"[,"geokeys"]}) when
    present.  Spanning an N-GB scene costs the driver O(header + n_tiles)
    bytes, the access pattern a remote range-read fetcher needs."""
    import os
    size = os.path.getsize(path)
    geo = {}
    with open(path, "rb") as f:
        sig = f.read(12)
        if sig[:4] == b"\xff\x4f\xff\x51":
            cs_at, cs_end = 0, size
        else:
            if sig[4:8] != b"jP  ":
                raise ValueError("not a JP2 file (missing signature box)")
            cs_at = cs_end = None
            p = 0
            while p + 8 <= size:          # box headers only
                f.seek(p)
                hdr = f.read(16)
                ln, typ = struct.unpack_from(">I4s", hdr, 0)
                h = 8
                if ln == 1:
                    ln, = struct.unpack_from(">Q", hdr, 8)
                    h = 16
                elif ln == 0:
                    ln = size - p
                if typ == b"jp2c":
                    cs_at, cs_end = p + h, p + ln
                elif typ == b"uuid":
                    f.seek(p + h)
                    body = f.read(ln - h)
                    if body[:16] == _GEOJP2_UUID:
                        geo = _geo_from_uuid(body[16:])
                p += ln
            if cs_at is None:
                raise ValueError("JP2 file has no jp2c codestream box")
        win = 1 << 16                     # grow until the main header parses
        while True:
            f.seek(cs_at)
            head = f.read(min(win, cs_end - cs_at))
            try:
                cs, p_rel = _parse_main_header(head, 0)
                break
            except (struct.error, IndexError):
                if cs_at + win >= cs_end:
                    raise
                win *= 2
        header = bytes(head[:p_rel])
        ntx, nty = _check_tile_grid(cs)
        spans = []
        p = cs_at + p_rel
        while True:
            f.seek(p)
            mk = f.read(12)
            m, = struct.unpack_from(">H", mk, 0)
            if m == _EOC:
                break
            if m != _SOT:
                raise ValueError(f"expected SOT or EOC, got 0x{m:04x}")
            _, _, isot, psot, tpsot, tnsot = struct.unpack_from(
                ">HHHIBB", mk, 0)
            if tpsot != 0 or tnsot not in (0, 1):
                raise NotImplementedError("multiple tile-parts per tile")
            end = p + psot if psot else cs_end - 2
            ti, tj = divmod(isot, ntx)
            tx0, ty0 = tj * cs.XT, ti * cs.YT
            spans.append({"isot": isot, "start": p, "end": end,
                          "x0": tx0, "y0": ty0,
                          "w": min(cs.W, tx0 + cs.XT) - tx0,
                          "h": min(cs.H, ty0 + cs.YT) - ty0})
            p = end
        if len(spans) != ntx * nty:
            raise ValueError(
                f"codestream has {len(spans)} of {ntx * nty} tiles")
    return header, spans, cs, geo


def decode_jp2_tile(main_header: bytes, tile_bytes: bytes,
                    reduce: int = 0):
    """Decode ONE tile-part given the codestream main header and the tile's
    own bytes (a `jp2_tile_spans` span) -> (component arrays for the tile,
    (x0', y0') paste origin at the reduced scale).  Applies the
    multi-component transform (pointwise, so per-tile == whole-image)."""
    # trailing EOC so a psot=0 (to-end-of-stream) tile-part still ends
    # exactly at the tile boundary
    buf = main_header + tile_bytes + struct.pack(">H", _EOC)
    cs, hp = _parse_main_header(buf, 0)
    ntx, _ = _check_tile_grid(cs)
    reduce = min(reduce, cs.NL)
    isot, q, tile_end = _tile_part(buf, hp)
    ti, tj = divmod(isot, ntx)
    tx0, ty0 = tj * cs.XT, ti * cs.YT
    tw, th = min(cs.W, tx0 + cs.XT) - tx0, min(cs.H, ty0 + cs.YT) - ty0
    comps = _decode_tile_body(buf, q, min(tile_end, len(buf) - 2), cs,
                              tx0, ty0, tw, th, cs.NL - reduce)
    if cs.mct and cs.ncomp >= 3:
        comps[0], comps[1], comps[2] = rct_inverse(comps[0], comps[1],
                                                   comps[2])
    k = 1 << reduce
    return comps, (tx0 // k, ty0 // k)


def _encode_tile_body(planes: list[np.ndarray], tx0: int, ty0: int,
                      NL: int, Mb_of: dict) -> bytes:
    """Packet stream (RPCL, single layer/precinct) for one tile whose
    subimage `planes` sits at canvas origin (tx0, ty0) — code-block grids
    anchored on the band canvas, mirroring _decode_tile_body."""
    th, tw = planes[0].shape
    ncomp = len(planes)
    bands = {}
    for c, a in enumerate(planes):
        ll = a
        for lvl in range(1, NL + 1):
            r = NL - lvl + 1
            ll, hl, lh, hh = fwd53_level(ll)
            bands[(c, r, "HL")] = hl
            bands[(c, r, "LH")] = lh
            bands[(c, r, "HH")] = hh
        bands[(c, 0, "LL")] = ll
    tile = bytearray()
    for r in range(NL + 1):
        for c in range(ncomp):
            wtr = _HdrWriter()
            body = bytearray()
            any_block = False
            pend = []
            for name, lvl in _res_bands(NL, r):
                bw, bh = _band_dims(tw, th, lvl, name)
                if bw == 0 or bh == 0:
                    continue
                bo_x, bo_y = tx0 >> lvl, ty0 >> lvl
                gx0, nbx = _anchored_grid(bo_x, bw, 64)
                gy0, nby = _anchored_grid(bo_y, bh, 64)
                segs = {}
                vals = []
                Mb = Mb_of[(r, name)]
                for by in range(nby):
                    for bx in range(nbx):
                        x0 = max(bo_x, (gx0 + bx) * 64) - bo_x
                        y0 = max(bo_y, (gy0 + by) * 64) - bo_y
                        w = min(bw, (gx0 + bx + 1) * 64 - bo_x) - x0
                        h = min(bh, (gy0 + by + 1) * 64 - bo_y) - y0
                        blk = bands[(c, r, name)][y0:y0 + h, x0:x0 + w]
                        data, nplanes, npass = cblk_encode(blk, name)
                        if nplanes > Mb:
                            raise AssertionError(
                                f"coefficient overflow: {nplanes} planes > "
                                f"Mb={Mb} in band {name}")
                        segs[(bx, by)] = (data, nplanes, npass)
                        vals.append(0 if nplanes else 1)
                pend.append((name, nbx, nby, segs, Mb, vals))
                if any(v == 0 for v in vals):
                    any_block = True
            wtr.put(1 if any_block else 0)
            if any_block:
                for name, nbx, nby, segs, Mb, vals in pend:
                    incl = TagTree(nbx, nby)
                    incl.set_values(vals)
                    zt = TagTree(nbx, nby)
                    zt.set_values([Mb - segs[(bx, by)][1]
                                   if segs[(bx, by)][1] else 0
                                   for by in range(nby)
                                   for bx in range(nbx)])
                    for by in range(nby):
                        for bx in range(nbx):
                            data, nplanes, npass = segs[(bx, by)]
                            incl.encode(wtr, bx, by, 1)
                            if not nplanes:
                                continue
                            zbp = Mb - nplanes
                            zt.encode(wtr, bx, by, zbp + 1)
                            _encode_npasses(wtr, npass)
                            lblock = 3
                            nbits = lblock + _ilog2(npass)
                            while len(data).bit_length() > nbits:
                                wtr.put(1)
                                lblock += 1
                                nbits += 1
                            wtr.put(0)
                            wtr.putbits(len(data), nbits)
                            body += data
            tile += wtr.align() + bytes(body)
    return bytes(tile)


def encode_codestream(comps: list[np.ndarray], depth: int = 8,
                      signed: bool = False, levels: int | None = None,
                      mct: bool | None = None,
                      tile_size: int | tuple[int, int] | None = None
                      ) -> bytes:
    """Lossless RPCL codestream from int component arrays.  tile_size
    (int or (XTsiz, YTsiz), multiples of 2^levels) splits the image into
    independently-decodable tiles, one tile-part each."""
    H, W = comps[0].shape
    ncomp = len(comps)
    if levels is None:
        levels = max(0, min(5, _ilog2(max(1, min(W, H)))))
    NL = levels
    if mct is None:
        mct = ncomp == 3
    if tile_size is None:
        XT, YT = W, H
    else:
        XT, YT = ((tile_size, tile_size) if isinstance(tile_size, int)
                  else tile_size)
        XT, YT = min(XT, W), min(YT, H)
    ntx, nty = _ceil_div(W, XT), _ceil_div(H, YT)
    if ntx * nty > 1 and (XT % (1 << NL) or YT % (1 << NL)):
        raise ValueError(
            f"tile_size {XT}x{YT} must be a multiple of 2^levels="
            f"{1 << NL} (or pass a smaller `levels`)")
    dc = 0 if signed else 1 << (depth - 1)
    planes = [c.astype(np.int64) - dc for c in comps]
    if mct:
        planes[0], planes[1], planes[2] = rct_forward(planes[0], planes[1],
                                                      planes[2])
    gain = {"LL": 0, "HL": 1, "LH": 1, "HH": 2}
    guard = 2
    eps = [depth + gain["LL"]]
    for r in range(1, NL + 1):
        eps += [depth + gain[b] for b in ("HL", "LH", "HH")]
    Mb_of = {}
    for r in range(NL + 1):
        ei = _band_eps_index(r)
        for bi, (name, lvl) in enumerate(_res_bands(NL, r)):
            e = eps[ei if r == 0 else ei[bi]]
            Mb_of[(r, name)] = guard + e - 1
    out = bytearray()
    out += struct.pack(">H", _SOC)
    siz = struct.pack(">HHIIIIIIIIH", 38 + 3 * ncomp, 0, W, H, 0, 0,
                      XT, YT, 0, 0, ncomp)
    siz += bytes([(depth - 1) | (0x80 if signed else 0), 1, 1]) * ncomp
    out += struct.pack(">H", _SIZ) + siz
    cod = struct.pack(">HBBHBBBBBB", 12, 0, 2, 1, 1 if mct else 0, NL,
                      4, 4, 0, 1)
    out += struct.pack(">H", _COD) + cod
    qcd = bytes([guard << 5]) + bytes((e << 3) & 0xFF for e in eps)
    out += struct.pack(">HH", _QCD, 2 + len(qcd)) + qcd
    bodies = _encode_tile_bodies(planes, W, H, XT, YT, ntx, nty, NL, Mb_of)
    for isot in range(ntx * nty):
        tile = bodies[isot]
        psot = 12 + 2 + len(tile)
        out += struct.pack(">HHHIBB", _SOT, 10, isot, psot, 0, 1)
        out += struct.pack(">H", _SOD)
        out += tile
    out += struct.pack(">H", _EOC)
    return bytes(out)


def _encode_tile_bodies(planes, W, H, XT, YT, ntx, nty, NL, Mb_of):
    """Encode every tile's packet stream.  Tiles are independent, and Tier-1
    dominates encode cost, so when a Ray session exists (and we are on the
    driver, not inside a task) the tiles fan out over Ray tasks: the plane
    stack goes to the object store ONCE (zero-copy numpy view per task) and
    each task returns only its compressed bytes.  Sequential otherwise;
    both paths are bit-identical (tested)."""
    def seq(isot):
        ti, tj = divmod(isot, ntx)
        tx0, ty0 = tj * XT, ti * YT
        return _encode_tile_body(
            [p[ty0:min(H, ty0 + YT), tx0:min(W, tx0 + XT)] for p in planes],
            tx0, ty0, NL, Mb_of)

    n = ntx * nty
    use_ray = False
    if n >= 4:
        try:
            import ray
            use_ray = (ray.is_initialized()
                       and ray.get_runtime_context().get_task_id() is None)
        except Exception:
            pass
    if not use_ray:
        return {i: seq(i) for i in range(n)}

    import pyarrow as pa
    import ray
    import ray.data as rd

    ncomp = len(planes)
    arr_ref = ray.put(np.stack(planes))       # (ncomp, H, W) int64, once

    def kernel(b: pa.Table) -> pa.Table:
        a = ray.get(arr_ref)
        ids, outs = [], []
        for i in b.column("id").to_pylist():
            ti, tj = divmod(i, ntx)
            tx0, ty0 = tj * XT, ti * YT
            sub = [a[c, ty0:min(H, ty0 + YT), tx0:min(W, tx0 + XT)]
                   for c in range(ncomp)]
            ids.append(i)
            outs.append(_encode_tile_body(sub, tx0, ty0, NL, Mb_of))
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "body": pa.array(outs, pa.large_binary())})

    bodies = {}
    res = rd.range(n).map_batches(kernel, batch_format="pyarrow",
                                  batch_size=max(1, n // 64))
    for b in res.iter_batches(batch_format="pyarrow"):
        for i, body in zip(b.column("id").to_pylist(),
                           b.column("body").to_pylist()):
            bodies[i] = body
    return bodies


# ---------------------------------------------------------------------------
# JP2 container + GeoJP2
# ---------------------------------------------------------------------------

def _boxes(buf: bytes, p: int, end: int):
    while p + 8 <= end:
        ln, typ = struct.unpack_from(">I4s", buf, p)
        hdr = 8
        if ln == 1:
            ln, = struct.unpack_from(">Q", buf, p + 8)
            hdr = 16
        elif ln == 0:
            ln = end - p
        yield typ, p + hdr, p + ln
        p += ln


def _degenerate_geotiff(left: float, top: float, res_x: float, res_y: float,
                        geokeys: dict | None) -> bytes:
    """Minimal 1x1 GeoTIFF carrying only the georeferencing tags — the
    GeoJP2 uuid-box payload."""
    entries = []     # (tag, type, count, packed_values)
    entries.append((256, 3, 1, struct.pack("<H", 1)))
    entries.append((257, 3, 1, struct.pack("<H", 1)))
    entries.append((258, 3, 1, struct.pack("<H", 8)))
    entries.append((259, 3, 1, struct.pack("<H", 1)))
    entries.append((262, 3, 1, struct.pack("<H", 1)))
    entries.append((277, 3, 1, struct.pack("<H", 1)))
    entries.append((33550, 12, 3, struct.pack("<3d", res_x, res_y, 0.0)))
    entries.append((33922, 12, 6,
                    struct.pack("<6d", 0, 0, 0, left, top, 0)))
    gk = geokeys or {}
    shorts = [1, 1, 0, len(gk)]
    for kid in sorted(gk):
        shorts += [kid, 0, 1, int(gk[kid])]
    entries.append((34735, 3, len(shorts),
                    struct.pack(f"<{len(shorts)}H", *shorts)))
    n = len(entries)
    ifd_at = 8
    data_at = ifd_at + 2 + 12 * n + 4
    ifd = struct.pack("<H", n)
    blob = b""
    for tag, typ, cnt, payload in entries:
        if len(payload) <= 4:
            ifd += struct.pack("<HHI", tag, typ, cnt) + payload.ljust(4, b"\0")
        else:
            ifd += struct.pack("<HHII", tag, typ, cnt, data_at + len(blob))
            blob += payload
    ifd += struct.pack("<I", 0)
    return b"II*\x00" + struct.pack("<I", ifd_at) + ifd + blob


def _geo_from_uuid(payload: bytes) -> dict:
    """GeoJP2 uuid-box payload (degenerate GeoTIFF) -> geo dict."""
    geo = {}
    tags = parse_tiff_tags(bytes(payload))
    scale = tags.get(33550)
    tie = tags.get(33922)
    if scale and tie:
        geo["left"], geo["top"] = tie[3], tie[4]
        geo["res_x"], geo["res_y"] = scale[0], scale[1]
    gk = geokeys_from_tags(tags)
    if gk is not None:
        geo["geokeys"] = gk
    return geo


def read_jp2_raster(path: str, reduce: int = 0) -> GeoTiff:
    """JP2 file -> GeoTiff (bands, h, w) with GeoJP2 georeferencing.
    reduce=k decodes at 1/2^k resolution (pixel size scales by 2^k)."""
    buf = open(path, "rb").read()
    if buf[:4] == b"\xff\x4f\xff\x51":    # bare codestream (.j2k)
        cs_at, cs_end = 0, len(buf)
        geo = {}
    else:
        if buf[4:8] != b"jP  ":
            raise ValueError("not a JP2 file (missing signature box)")
        cs_at = cs_end = None
        geo = {}
        for typ, a, b in _boxes(buf, 0, len(buf)):
            if typ == b"jp2c":
                cs_at, cs_end = a, b
            elif typ == b"uuid" and buf[a:a + 16] == _GEOJP2_UUID:
                geo = _geo_from_uuid(buf[a + 16:b])
        if cs_at is None:
            raise ValueError("JP2 file has no jp2c codestream box")
    comps, cs = decode_codestream(bytes(buf), cs_at, reduce=reduce)
    lo = 0 if not cs.signed else -(1 << (cs.depth - 1))
    hi = (1 << cs.depth) - 1 if not cs.signed else (1 << (cs.depth - 1)) - 1
    dc = 0 if cs.signed else 1 << (cs.depth - 1)
    dt = (np.uint8 if cs.depth <= 8 and not cs.signed else
          np.int16 if cs.signed else np.uint16)
    data = np.stack([np.clip(c + dc, lo if cs.signed else 0, hi).astype(dt)
                     for c in comps])
    f = float(1 << min(reduce, cs.NL))
    tags = {}
    if "geokeys" in geo:
        tags["geokeys"] = geo["geokeys"]
    return GeoTiff(data, geo.get("left", 0.0), geo.get("top", 0.0),
                   geo.get("res_x", 1.0) * f, geo.get("res_y", 1.0) * f,
                   None, tags)


def write_jp2(path: str, g: GeoTiff, levels: int | None = None,
              tile_size: int | tuple[int, int] | None = None):
    """GeoTiff -> lossless JP2 with a GeoJP2 uuid box (bit-exact roundtrip
    through read_jp2_raster).  tile_size splits into independently
    decodable tiles (see encode_codestream)."""
    data = g.data
    if data.dtype == np.uint8:
        depth, signed = 8, False
    elif data.dtype == np.int16:
        depth, signed = 16, True
    elif data.dtype == np.uint16:
        depth, signed = 16, False
    else:
        raise NotImplementedError(
            f"JP2 write for dtype {data.dtype} (uint8/int16/uint16 only)")
    comps = [data[i].astype(np.int64) for i in range(data.shape[0])]
    code = encode_codestream(comps, depth=depth, signed=signed,
                             levels=levels, tile_size=tile_size)
    nc = len(comps)
    H, W = comps[0].shape

    def box(typ: bytes, payload: bytes) -> bytes:
        return struct.pack(">I", 8 + len(payload)) + typ + payload

    ihdr = struct.pack(">IIHBBBB", H, W, nc,
                       (depth - 1) | (0x80 if signed else 0), 7, 0, 0)
    colr = struct.pack(">BBBI", 1, 0, 0, 16 if nc >= 3 else 17)
    jp2h = box(b"ihdr", ihdr) + box(b"colr", colr)
    geo = _degenerate_geotiff(g.left, g.top, g.res_x, g.res_y,
                              g.tags.get("geokeys"))
    out = (box(b"jP  ", b"\r\n\x87\n")
           + box(b"ftyp", b"jp2 " + struct.pack(">I", 0) + b"jp2 ")
           + box(b"jp2h", jp2h)
           + box(b"uuid", _GEOJP2_UUID + geo)
           + box(b"jp2c", code))
    with open(path, "wb") as f:
        f.write(out)
