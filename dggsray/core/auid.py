"""AUIDs: canonical area identifiers for CUID (cellid) sets.

Same externally observable behaviour as the reference's auids subsystem
(dggstools/auids/common.py and auids/rhpx.py): sorted CUIDs -> balanced-parentheses
(BP) string of their prefix tree (root '^', terminator '$', closing par '?' by
default, opening pars and trailing pars omitted) -> zlib -> urlsafe b64, plus a
blake2b-20 hash.

No tree is ever built.  The prefix tree's pre-order is the sorted order of the
distinct CUIDs, so the BP string is one walk over them (close what the next id
does not share, open its new chars, emit the terminator) and decoding is one
stack walk back.  The rHEALPix optimizer works on integer keys, one sorted array
per CUID length: the face index followed by the CUID's digits in base 10, so a
parent is `key // 10`.  One bottom-up numpy pass from the finest resolution to
the coarsest collapses every complete block of sibling leaves.

The distributed pre-pass that shrinks huge CUID sets before these driver-side
functions run lives in dggsray.ops.cellsets.
"""
from __future__ import annotations

import base64
import hashlib
import zlib
from typing import Sequence

import numpy as np

from .rhpx import _FACE_BYTES, _FACE_INDEX, FACE_CHARS

DEFAULT_ROOT_NAME = "^"
DEFAULT_NIL_NAME = "$"
DEFAULT_PARS = "¿?"
DEFAULT_WITH_OPENING_PAR = False
DEFAULT_WITH_TRAILING_PARS = False
DEFAULT_HASH_DIGEST_SIZE = 20


def encode64(b: bytes) -> str:
    return base64.urlsafe_b64encode(b).decode("utf-8")


def decode64(s: str) -> bytes:
    return base64.urlsafe_b64decode(s)


def hash_id(idstr: str, digest_size: int = DEFAULT_HASH_DIGEST_SIZE):
    m = hashlib.blake2b(idstr.encode(), digest_size=digest_size)
    return m.digest(), encode64(m.digest())


def compress_id(idstr: str) -> bytes:
    return zlib.compress(idstr.encode("utf-8"))


def decompress_id_bytes(b: bytes) -> str:
    return zlib.decompress(b).decode("utf-8")


def generate_bp_auid_from_cuids(cuids: Sequence[str], pars: str = DEFAULT_PARS,
                                root_name: str = DEFAULT_ROOT_NAME,
                                nil_name: str = DEFAULT_NIL_NAME,
                                with_opening_par: bool = DEFAULT_WITH_OPENING_PAR,
                                with_trailing_pars: bool = DEFAULT_WITH_TRAILING_PARS):
    """CUIDs -> (auid, hash_bytes, hash_b64, compressed, compressed_b64, ids),
    where ids is the sorted distinct CUID list the BP string encodes (the empty
    id, which has no node of its own, is dropped).  Same tuple shape as the
    reference (auids/common.py:180-213), whose last element is the prefix tree.

    The BP string is byte-identical to the reference's generate_BP_from_tree:
    the tree's pre-order is sorted order, and a node's terminator (NIL) comes
    before its children because a prefix sorts first.  So each id closes what
    it does not share with the previous one, opens its new chars, then NIL."""
    assert len(pars) == 2 and len(root_name) == 1 and len(nil_name) == 1
    ids = sorted(set(cuids) - {""})
    op = pars[0] if with_opening_par else ""
    cl = pars[1]
    parts = [op, root_name]
    prev = ""
    for s in ids:
        p = 0
        while p < len(prev) and p < len(s) and prev[p] == s[p]:
            p += 1
        parts.append(cl * (len(prev) - p))
        parts.extend(op + ch for ch in s[p:])
        parts.append(op + nil_name + cl)
        prev = s
    parts.append(cl * (len(prev) + 1))
    auid = "".join(parts)
    if not with_trailing_pars:
        auid = auid[: auid.rfind(nil_name) + 1]
    hashed, hashed_b64 = hash_id(auid)
    comp = compress_id(auid)
    return auid, hashed, hashed_b64, comp, encode64(comp), ids


def generate_cuids_from_bp_auid(bp_auid: str, pars: str = DEFAULT_PARS,
                                root_name: str = DEFAULT_ROOT_NAME,
                                nil_name: str = DEFAULT_NIL_NAME,
                                with_opening_par: bool = DEFAULT_WITH_OPENING_PAR,
                                with_trailing_pars: bool = DEFAULT_WITH_TRAILING_PARS):
    if not with_trailing_pars:
        # restore trailing closing pars: one per node char not yet closed
        # (reference auids/common.py:228-240)
        bp_auid += pars[1] * (sum(c not in pars for c in bp_auid)
                              - bp_auid.count(pars[1]))
    # walk the body (root char and final closing par dropped) with a stack of
    # open prefixes; each NIL is a pseudo-child that consumes one closing par
    stack = [""]
    out: list[str] = []
    for ch in bp_auid[len(root_name) + bool(with_opening_par): -1]:
        if ch == pars[0] and with_opening_par:
            continue
        if ch == pars[1]:
            if len(stack) > 1:
                stack.pop()
        elif ch == nil_name:
            out.append(stack[-1])
            stack.append(stack[-1])
        else:
            stack.append(stack[-1] + ch)
    return sorted(out)


# ---------------------------------------------------------------------------
# rHEALPix-specific: optimization (area-minimal CUID sets) and subarea test
# ---------------------------------------------------------------------------

def _cuid_keys(cuids: Sequence[str]) -> dict[int, np.ndarray]:
    """Non-empty rHEALPix CUIDs -> {length: sorted distinct keys}.  A key is
    the face index followed by the CUID's digits read in base 10 (int64 up to
    19 chars, Python ints beyond).  Digits are checked to be 0..9 only: the
    digit alphabet is the caller's (the reference goldens use 1-based ones), so
    children are counted, never assumed to be 0..N_side^2-1.  Raises ValueError
    on a face outside NOPQRS, a non-digit, None or an empty id."""
    u = np.asarray(list(cuids))
    if u.dtype.kind != "U":
        raise ValueError("CUIDs must be strings")
    m = u.reshape(-1).view(np.uint32).reshape(u.size, -1)
    lens = (m != 0).sum(axis=1)
    if lens.min() == 0:
        raise ValueError("empty CUID")
    if m.max() > 127:
        raise ValueError("non-ASCII CUID")
    key = _FACE_INDEX[m[:, 0]]
    if key.max() > 5:
        raise ValueError(f"CUID face not in {FACE_CHARS}")
    out = {}
    w = int(lens.max())
    for n in range(1, w + 1):
        # key holds the first n chars; rows shorter than n are done
        if (lens == n).any():
            out[n] = np.unique(key[lens == n])
        if n < w:
            # a NUL inside an id shortens lens and then fails this check
            digit = m[:, n].astype(np.int64) - 48
            if ((digit < 0) | (digit > 9))[lens > n].any():
                raise ValueError("CUID digit outside 0..9")
            key = (key if n < 19 else key.astype(object)) * 10 + digit
    return out


def _key_strings(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _cuid_keys for one length n -> U array of CUIDs."""
    chars = np.empty((keys.size, n), dtype=np.uint8)
    for j in range(n - 1, 0, -1):
        chars[:, j] = 48 + keys % 10
        keys = keys // 10
    chars[:, 0] = _FACE_BYTES[keys.astype(np.int64)]
    return chars.view(f"S{n}").ravel().astype("U")


def _collapse(cuids: Sequence[str], n_side: int, probe: bool):
    """One bottom-up pass over the prefix-tree levels, finest first.  A node at
    length n-1 absorbs its children when it has exactly n_side^2 distinct
    children, all of them leaves, and is not itself a CUID (a terminal node does
    not absorb its children: duplicate-area inputs keep both levels, matching the
    reference's NIL-sibling behaviour).  A collapse at one level only depends on
    finished levels below it, so one pass reaches the fixpoint of repeated
    collapsing.  Returns the surviving CUIDs sorted, or None if probe and any
    node collapses."""
    if not len(cuids):
        return []
    ids = _cuid_keys(cuids)
    k = n_side * n_side
    nodes = ids[max(ids)]
    term = leaf = np.ones(nodes.size, dtype=bool)
    out = []
    for n in range(max(ids), 1, -1):
        parent = nodes // 10
        start = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
        count = np.diff(np.r_[start, parent.size])
        par = parent[start]
        below = ids.get(n - 1, parent[:0])
        full = (count == k) & np.logical_and.reduceat(leaf, start) \
            & ~np.isin(par, below)
        if probe and full.any():
            return None
        out.append(_key_strings(nodes[term & ~np.repeat(full, count)], n))
        nodes = np.union1d(par, below)
        leaf = ~np.isin(nodes, par[~full])
        term = leaf | np.isin(nodes, below)
    out.append(_key_strings(nodes[term], 1))
    return np.sort(np.concatenate(out)).tolist()


def optimize_cuids(cuids: Sequence[str], n_side: int) -> list[str]:
    """Replace every complete set of n_side^2 sibling leaf-cells by their parent,
    iterated to fixpoint (reference optimize_cuids_rhealpix, auids/rhpx.py:108-181).
    Returns the sorted distinct result; raises ValueError on malformed CUIDs."""
    return _collapse(cuids, n_side, probe=False)


def is_optimal_cuids(cuids: Sequence[str], n_side: int) -> bool:
    """True iff optimize_cuids would be the identity: no complete sibling set of
    leaves exists anywhere (reference is_optimal_cuids_rhealpix,
    auids/rhpx.py:184-218, via the fixpoint equivalence)."""
    return _collapse(cuids, n_side, probe=True) is not None


def is_a_subarea(auid1_comp_b64: str, auid2_comp_b64: str,
                 nil_name: str = DEFAULT_NIL_NAME) -> bool:
    """Containment test on optimal AUIDs via per-face substring checks (semantics of
    the reference is_a_subarea_rhealpix, auids/rhpx.py:11-50; false negatives possible
    for non-optimal inputs, as there)."""
    import re
    a1 = decompress_id_bytes(decode64(auid1_comp_b64))
    a2 = decompress_id_bytes(decode64(auid2_comp_b64))
    parts = re.split(r"([NOPQRS])", a1)
    result = True
    for i in range(1, len(parts), 2):
        sub = parts[i] + parts[i + 1]
        sub = sub[: sub.rfind(nil_name)] if nil_name in sub else sub
        result = result and (sub in a2)
    return result


class AUIDGenerator:
    """DGGS-independent generator (reference auids/common.py:248-296)."""

    def __init__(self, pars: str = DEFAULT_PARS, root_name: str = DEFAULT_ROOT_NAME,
                 nil_name: str = DEFAULT_NIL_NAME,
                 with_opening_par: bool = DEFAULT_WITH_OPENING_PAR,
                 with_trailing_pars: bool = DEFAULT_WITH_TRAILING_PARS,
                 hash_digest_size: int = DEFAULT_HASH_DIGEST_SIZE):
        self.pars = pars
        self.root_name = root_name
        self.nil_name = nil_name
        self.with_opening_par = with_opening_par
        self.with_trailing_pars = with_trailing_pars
        self.hash_digest_size = hash_digest_size

    def generate_auid_hash_b64(self, cuids: Sequence[str]) -> tuple[str, str]:
        _, _, hashed_b64, _, comp_b64, _ = generate_bp_auid_from_cuids(
            cuids, self.pars, self.root_name, self.nil_name,
            self.with_opening_par, self.with_trailing_pars)
        return comp_b64, hashed_b64

    def cuids_from_auid_b64(self, auid_comp_b64: str) -> list[str]:
        auid = decompress_id_bytes(decode64(auid_comp_b64))
        return list(generate_cuids_from_bp_auid(
            auid, self.pars, self.root_name, self.nil_name,
            self.with_opening_par, self.with_trailing_pars))

    def hash_b64_from_auid(self, auid_comp_b64: str) -> str:
        auid = decompress_id_bytes(decode64(auid_comp_b64))
        return hash_id(auid, self.hash_digest_size)[1]


class RHEALPixAUIDGenerator(AUIDGenerator):
    """Optimizes CUIDs first, so AUIDs are canonical for the area
    (reference auids/rhpx.py:221-254)."""

    def __init__(self, n_side: int, **kw):
        super().__init__(**kw)
        self.n_side = n_side

    def generate_auid_hash_b64(self, cuids: Sequence[str]) -> tuple[str, str]:
        if not is_optimal_cuids(cuids, self.n_side):
            cuids = optimize_cuids(cuids, self.n_side)
        return super().generate_auid_hash_b64(cuids)
