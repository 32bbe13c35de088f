"""Multimodal column stages: opaque binary payloads + typed metadata, processed by
task-pool map_batches stages.

Each stage is a callable class holding at most a few scalars.  Callers pass
an INSTANCE to `map_batches`, e.g. `ds.map_batches(VideoFrameSample(every_n=2),
batch_format="pyarrow")`: Ray runs an instance as a plain function on the task
pool, where it fuses with the maps around it.  Passing the class would start
an actor pool, which no stage here needs: none holds state that costs
anything to build.

Image stages are REAL (the engine ships raw/PNG codecs).  Audio/video DECODE is
stubbed: the environment has no audio/video libraries, so real codecs raise
NotImplementedError while the deterministic "pcm16" / "rawv" fakes exercise the
full Ray plumbing (schema, batch sizing, output layout) — the parts a swap-in
of a real decoder would reuse unchanged.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.imagetable import average_phash_batch, decode_image


def _decode_stacks(b: pa.Table):
    """Group a batch's rows by (h, w) and decode each group ONCE into a
    shared (g, h, w, 3) uint8 stack — the per-image work after decode
    (phash, stats, flips, shifts) then runs as one vectorized kernel per
    group instead of a Python loop of tiny-array numpy calls.  Decode
    itself stays per image (PNG inflate is per blob) but writes straight
    into the stack slot (no concat pass).  Returns [(row_indices,
    stack)] covering every row.  Only the phash is pinned bit-identical to
    the scalar loop (average_phash_batch is its tested batch twin); the
    stats are not (std is sqrt(E[x^2] - mean^2))."""
    ws = b.column("w").to_numpy()
    hs = b.column("h").to_numpy()
    fmts = b.column("fmt").to_pylist()
    blobs = b.column("bytes").to_pylist()
    key = hs.astype(np.int64) * 1_000_000 + ws.astype(np.int64)
    out = []
    for k in np.unique(key):
        idx = np.flatnonzero(key == k)
        h, w = int(hs[idx[0]]), int(ws[idx[0]])
        stack = np.empty((idx.size, h, w, 3), np.uint8)
        for j, i in enumerate(idx):
            decode_image(blobs[i], w, h, fmts[i], out=stack[j])
        out.append((idx, stack))
    return out


class ImageFeatures:
    """Stage: decode -> per-channel mean/std + phash feature row."""

    def __call__(self, b: pa.Table) -> pa.Table:
        n = b.num_rows
        means = np.empty((n, 3))
        stds = np.empty((n, 3))
        ph = np.empty(n, dtype=np.int64)
        for idx, stack in _decode_stacks(b):
            g, h, w = stack.shape[:3]
            ch = stack.reshape(g, h * w, 3)
            k = h * w
            s1 = np.einsum("ijc->ic", ch, dtype=np.float64)   # exact ints
            s2 = np.einsum("ijc,ijc->ic", ch, ch,
                           dtype=np.float64)                  # exact ints
            mu = s1 / k
            means[idx] = mu
            stds[idx] = np.sqrt(np.maximum(s2 / k - mu * mu, 0.0))
            ph[idx] = average_phash_batch(stack)
        cols = {
            "image_id": b.column("image_id"),
            "mean_r": pa.array(means[:, 0]), "mean_g": pa.array(means[:, 1]),
            "mean_b": pa.array(means[:, 2]),
            "std_r": pa.array(stds[:, 0]), "std_g": pa.array(stds[:, 1]),
            "std_b": pa.array(stds[:, 2]),
            "phash": pa.array(ph)}
        if "phash" in b.column_names:
            # the table's phash was computed from the ORIGINAL pixel array
            # at synthesis; carrying it beside the decoded-image phash gives
            # downstream a per-row decode invariant for free
            cols["stored_phash"] = b.column("phash")
        return pa.table(cols)


def decode_wav(blob: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM decode via the stdlib wave module -> (mono float64 in
    [-1, 1], sample_rate).  8/16/32-bit PCM; multichannel averaged to mono."""
    import io
    import wave

    with wave.open(io.BytesIO(blob), "rb") as w:
        nch = w.getnchannels()
        width = w.getsampwidth()
        rate = w.getframerate()
        raw = w.readframes(w.getnframes())
    if width == 2:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128) / 128
    elif width == 4:
        x = np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
    else:
        raise NotImplementedError(f"WAV sample width {width}")
    if nch > 1:
        x = x.reshape(-1, nch).mean(axis=1)
    return x, rate


class AudioFeatures:
    """Stage for audio binary columns.  REAL decoders: 'wav' (RIFF PCM
    through the stdlib wave module) and 'pcm16' (headerless little-endian
    int16 mono); compressed codecs (mp3/ogg/flac) raise NotImplementedError —
    no codec libraries in this environment, swap the decode branch for
    soundfile/ffmpeg when available.  Features per clip: rms, peak, zero
    crossings, spectral centroid (rFFT)."""

    def __init__(self, frame: int = 1024):
        self.frame = frame

    def __call__(self, b: pa.Table) -> pa.Table:
        blobs = b.column("bytes").to_pylist()
        fmts = b.column("fmt").to_pylist()
        n = len(blobs)
        rms = np.empty(n)
        peak = np.empty(n)
        zcr = np.empty(n)
        cent = np.empty(n)
        n_samples = np.empty(n, dtype=np.int64)
        for k, (blob, fmt) in enumerate(zip(blobs, fmts)):
            if fmt == "wav":
                pcm, rate = decode_wav(blob)
            elif fmt == "pcm16":
                pcm = np.frombuffer(blob, dtype="<i2").astype(np.float64) / 32768.0
                rate = 16000
            else:
                raise NotImplementedError(
                    f"audio codec {fmt!r}: only wav/pcm16 decodable here "
                    f"(no compressed-audio libraries in this environment)")
            if pcm.size:
                rms[k] = float(np.sqrt((pcm ** 2).mean()))
                peak[k] = float(np.abs(pcm).max())
                # 1-sample clips have no transitions (empty diff -> NaN mean)
                zcr[k] = float((np.diff(np.signbit(pcm)) != 0).mean()) \
                    if pcm.size > 1 else 0.0
                spec = np.abs(np.fft.rfft(pcm[: 1 << 16]))
                freqs = np.fft.rfftfreq(min(pcm.size, 1 << 16), d=1.0 / rate)
                tot = spec.sum()
                cent[k] = float((freqs * spec).sum() / tot) if tot > 0 else 0.0
            else:
                rms[k] = peak[k] = zcr[k] = cent[k] = 0.0
            n_samples[k] = pcm.size
        return pa.table({"audio_id": b.column("audio_id"),
                         "rms": pa.array(rms), "peak": pa.array(peak),
                         "zcr": pa.array(zcr),
                         "spectral_centroid_hz": pa.array(cent),
                         "n_samples": pa.array(n_samples)})


class VideoFrameSample:
    """Stage for video binary columns.  Real format: 'mjpeg' — AVI/MJPEG
    containers parsed by core.aviio (pure-struct RIFF walk) with every sampled
    frame decoded by the from-scratch baseline-JPEG codec (core.jpegio);
    'rawv' (concatenated raw RGB frames) remains as the lossless fixture
    format.  Codecs needing external libraries (h264/vp9/...) raise
    NotImplementedError.  Emits one (video_id, frame_idx, bytes=raw RGB) row
    per sampled frame."""

    def __init__(self, every_n: int = 10):
        self.every_n = every_n

    def __call__(self, b: pa.Table) -> pa.Table:
        from ..core.aviio import read_avi_mjpeg
        from ..core.jpegio import decode_jpeg

        out_id, out_frame, out_bytes = [], [], []
        for k in range(b.num_rows):
            fmt = b.column("fmt")[k].as_py()
            vid = b.column("video_id")[k].as_py()
            blob = b.column("bytes")[k].as_py()
            if fmt == "mjpeg":
                frames, _info = read_avi_mjpeg(blob)
                for f in range(0, len(frames), self.every_n):
                    img = decode_jpeg(frames[f])
                    if img.ndim == 2:
                        img = np.repeat(img[:, :, None], 3, axis=2)
                    out_id.append(vid)
                    out_frame.append(f)
                    out_bytes.append(img.tobytes())
            elif fmt == "rawv":
                w = b.column("w")[k].as_py()
                h = b.column("h")[k].as_py()
                frame_bytes = w * h * 3
                n_frames = len(blob) // frame_bytes
                for f in range(0, n_frames, self.every_n):
                    out_id.append(vid)
                    out_frame.append(f)
                    out_bytes.append(blob[f * frame_bytes:(f + 1) * frame_bytes])
            else:
                raise NotImplementedError(
                    f"video codec {fmt!r}: external codecs unavailable in "
                    f"this environment; decodable here: 'mjpeg' (AVI), 'rawv'")
        return pa.table({"video_id": pa.array(out_id, pa.string()),
                         "frame_idx": pa.array(out_frame, pa.int32()),
                         "bytes": pa.array(out_bytes, pa.binary())})


class ImagePrep:
    """Fused per-image corpus-prep stage: ONE decode per image feeding every
    downstream signal — integrity (recomputed phash vs the stored column),
    brightness/contrast stats for quality filtering, and the phash itself for
    dedup.  Separate Verify/Features/Dedup stages would each decode again;
    at 100 TB the decode IS the cost, so signals that share it must share the
    pass (same reasoning as the fused flagship kernel).

    Emits small integer rows only — bytes never leave the stage."""

    def __call__(self, b: pa.Table) -> pa.Table:
        stored = b.column("phash").to_numpy()
        n = b.num_rows
        bright = np.empty(n)
        contrast = np.empty(n)
        ph = np.empty(n, dtype=np.int64)
        for idx, stack in _decode_stacks(b):
            g = stack.shape[0]
            flat = stack.reshape(g, -1)
            k = flat.shape[1]
            s1 = np.einsum("ij->i", flat, dtype=np.float64)   # exact ints
            s2 = np.einsum("ij,ij->i", flat, flat,
                           dtype=np.float64)                  # exact ints
            mu = s1 / k
            bright[idx] = mu
            contrast[idx] = np.sqrt(np.maximum(s2 / k - mu * mu, 0.0))
            ph[idx] = average_phash_batch(stack)
        ph_ok = ph == stored
        return pa.table({
            "image_id": b.column("image_id"),
            "fmt": b.column("fmt"),
            "phash": pa.array(ph),
            "phash_ok": pa.array(ph_ok),
            "bright_milli": pa.array(np.rint(bright * 1000).astype(np.int64)),
            "contrast_milli": pa.array(
                np.rint(contrast * 1000).astype(np.int64))})


class ImageAugment:
    """Deterministic per-image augmentation (training-data variant
    generation): horizontal/vertical flip and a brightness shift, each drawn
    from a blake2b hash of the image_id — so retries/resumes regenerate the
    SAME variant (the uuid-vs-deterministic-id reasoning of raster2dggs
    applied to augmentation).  Decode once, transform in numpy views (flips
    are zero-copy strides), emit raw bytes + the augmented phash.

    Real augmentation menus (rotations, interpolated crops, color jitter) are
    more kernels in the same __call__ — the Ray shape (one decode per image,
    deterministic seed per row) is what this stage pins down."""

    def __call__(self, b: pa.Table) -> pa.Table:
        from hashlib import blake2b

        ids = b.column("image_id").to_pylist()
        n = b.num_rows
        out_bytes: list = [None] * n
        fh = np.empty(n, dtype=bool)
        fv = np.empty(n, dtype=bool)
        shift = np.empty(n, dtype=np.int64)
        ph = np.empty(n, dtype=np.int64)
        dph = np.empty(n, dtype=np.int64)
        for k in range(n):
            h0 = blake2b(ids[k].encode(), digest_size=8).digest()
            fh[k] = bool(h0[0] & 1)
            fv[k] = bool(h0[0] & 2)
            shift[k] = (h0[1] % 31) - 15        # -15..+15
        # brightness LUT: row s = clip(0..255 + s - 15) — one uint8
        # gather replaces the int16 widen + add + clip + narrow chain,
        # bit-identically
        lut = np.clip(np.arange(256)[None, :]
                      + np.arange(-15, 16)[:, None], 0, 255) \
            .astype(np.uint8)
        for idx, stack in _decode_stacks(b):
            # decoded-image phash BEFORE augmentation: compared against the
            # table's stored phash downstream = the per-row decode invariant
            dph[idx] = average_phash_batch(stack)
            aug = lut[(shift[idx] + 15)[:, None, None, None], stack]
            mh, mv = fh[idx], fv[idx]
            aug[mh] = aug[mh][:, :, ::-1]       # horizontal: w axis
            aug[mv] = aug[mv][:, ::-1]          # vertical: h axis
            ph[idx] = average_phash_batch(aug)
            for j, i in enumerate(idx):
                out_bytes[i] = aug[j].tobytes()
        return pa.table({
            "image_id": b.column("image_id"),
            "orig_phash": b.column("phash"),
            "decoded_phash": pa.array(dph),
            "w": b.column("w"), "h": b.column("h"),
            "fmt": pa.array(["raw"] * n, pa.string()),
            "bytes": pa.array(out_bytes, pa.binary()),
            "flip_h": pa.array(fh), "flip_v": pa.array(fv),
            "bright_shift": pa.array(shift),
            "phash": pa.array(ph)})


def resample_audio(x: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    """Linear-interpolation resampler (mono float64) — the pure-numpy audio
    prep kernel (training pipelines normalize sample rates before feature
    extraction).  Output length = round(n * rate_out / rate_in)."""
    n = x.size
    m = int(round(n * rate_out / rate_in))
    if m <= 0 or n == 0:
        return np.zeros(0, dtype=np.float64)
    pos = np.arange(m, dtype=np.float64) * (rate_in / rate_out)
    i0 = np.minimum(pos.astype(np.int64), n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    frac = pos - i0
    return x[i0] * (1 - frac) + x[i1] * frac


class VideoSceneCuts:
    """Scene-cut detection per clip: decode EVERY frame ('mjpeg' through the
    real AVI+baseline-JPEG path, 'rawv' by slicing), one vectorized
    mean-|Δluma| over the whole (frames, h, w, 3) stack per clip, and a row
    per consecutive-frame transition with its difference and cut flag.  Same
    shape as VideoFrameSample (frames are decoded inside the map task, never
    on the driver); external codecs raise NotImplementedError.

    diff_milli is the mean absolute per-pixel difference x1000 (integer, so
    downstream compares are float-order-free); is_cut = diff > threshold."""

    def __init__(self, threshold_milli: int = 50_000):
        self.threshold_milli = threshold_milli

    def _frames(self, fmt, blob, w, h) -> "np.ndarray":
        from ..core.aviio import read_avi_mjpeg
        from ..core.jpegio import decode_jpeg
        if fmt == "mjpeg":
            raw, _info = read_avi_mjpeg(blob)
            out = []
            for fr in raw:
                img = decode_jpeg(fr)
                if img.ndim == 2:
                    img = np.repeat(img[:, :, None], 3, axis=2)
                out.append(img)
            return np.stack(out) if out else np.zeros((0, h, w, 3), np.uint8)
        if fmt == "rawv":
            n = len(blob) // (w * h * 3)
            return np.frombuffer(blob, np.uint8, count=n * w * h * 3) \
                .reshape(n, h, w, 3)
        raise NotImplementedError(
            f"video codec {fmt!r}: external codecs unavailable in this "
            f"environment; decodable here: 'mjpeg' (AVI), 'rawv'")

    def __call__(self, b: pa.Table) -> pa.Table:
        out_id, out_frame, out_diff = [], [], []
        for k in range(b.num_rows):
            frames = self._frames(b.column("fmt")[k].as_py(),
                                  b.column("bytes")[k].as_py(),
                                  b.column("w")[k].as_py(),
                                  b.column("h")[k].as_py())
            if len(frames) < 2:
                continue
            d = np.abs(np.diff(frames.astype(np.int16), axis=0)) \
                .mean(axis=(1, 2, 3))
            vid = b.column("video_id")[k].as_py()
            out_id.extend([vid] * d.size)
            out_frame.extend(range(1, d.size + 1))
            out_diff.append(np.rint(d * 1000).astype(np.int64))
        diff = (np.concatenate(out_diff) if out_diff
                else np.zeros(0, np.int64))
        return pa.table({
            "video_id": pa.array(out_id, pa.string()),
            "frame_idx": pa.array(out_frame, pa.int32()),
            "diff_milli": pa.array(diff),
            "is_cut": pa.array(diff > self.threshold_milli)})


def image_features(ds):
    return ds.map_batches(ImageFeatures(), batch_format="pyarrow")
