"""Plan persistence.

The scheduled algorithm's whole point is that planning happens *once*,
offline — so plans must be storable.  Format version 4 serialises the
engine's *lowered kernel program* (:class:`~repro.ir.program.
KernelProgram`) to a single ``.npz``: the engine name, the
permutation, and one group of keys per op (``op0.kind``, ``op0.gamma``,
``op0.s`` ...) holding exactly the schedule arrays the op carries.
Each member is deflated, bit-packed or stored, whichever the writer
estimates smallest (:func:`_write_npz`); a random permutation's index
arrays barely deflate, so they are packed to their exact bit width or
stored instead of paying for deflate.
Because every registered engine lowers to the IR, **any** engine's plan
can be saved and loaded — loading rebuilds the planned engine through
``Engine.from_program`` without re-running any colouring.

A scheduled plan made in closed form for an affine permutation
(:mod:`repro.core.affine`) is a function of ``(A, c, width)`` alone,
so its file is a **formula**: the same version-4 archive holding
``affine.A`` (the bit matrix's columns), ``affine.c``, ``n``,
``width`` and ``affine.recipe`` (the closed-form recipe version) in
place of ``p`` and the ``op{i}.*`` groups: a few KiB at any size,
nearly all of it the certificates.  The loader regenerates the plan through the same closed form
and then runs every check a program file gets.

Because a stored plan is *trusted forever*, the file is self-verifying:
every file carries a SHA-256 checksum over the canonically packed
payload arrays plus a library-version stamp.  :func:`load_plan`
verifies the checksum before the (much more expensive) structural
verification, and maps every way a file can be bad onto a precise
exception:

* unreadable / truncated / key-stripped file →
  :class:`~repro.errors.PlanCorruptionError`,
* checksum mismatch (bit rot, tampering)   →
  :class:`~repro.errors.PlanCorruptionError`,
* written by another format version         →
  :class:`~repro.errors.PlanVersionError`.

Files of the previous formats still load — version 2 (the fixed
thirteen-key layout of a scheduled plan) and version 3 (the v4 keys,
every member deflated); ``tests/data`` holds one golden plan of each —
but new files are always written as version 4.

On top of integrity, files embed machine-checked *proofs*:

* files whose engine carries a scheduled plan (the ``scheduled``
  engine itself, or ``padded`` wrapping one) embed an *optimality
  proof*: by default :func:`save_plan` computes the static
  conflict-freedom certificate of :mod:`repro.staticcheck`, binds it
  to the payload checksum and stores it;
* **every** v3/v4 file embeds a *correctness proof*: the semantic
  certificate of :mod:`repro.staticcheck.semantics`, recording that
  the stored program's symbolically-computed denotation is a bijection
  equal to the stored permutation ``p``.

:func:`load_plan` re-validates both — not just the SHA binding: the
semantic certificate's denotation is *recomputed* from the unpacked
program and compared against the certificate digest and the stored
``p``, so a file whose program no longer denotes its permutation is
refused as corrupt even if internally self-consistent.  A loaded plan
is then proven authentic, bank-conflict-free/coalesced (when
applicable) **and** semantically correct without running an executor.
Both certificates are optional extra keys, so their presence does not
change the payload checksum or the format version.

See ``docs/robustness.md`` for the exact file layout and checksum
definition, and ``docs/static-analysis.md`` for both certificates.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib
from io import BytesIO
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.core import affine
from repro.core.colwise import ColumnwiseSchedule
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.core.scheduler import ThreeStepDecomposition
from repro.core.transpose import TiledTranspose
from repro.errors import (
    CertificateError,
    PlanCorruptionError,
    PlanVersionError,
    SchedulingError,
    ValidationError,
)
from repro.ir.ops import OP_KINDS
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine

#: Format tag stored in every file; bump on incompatible change.
#: Version history: 1 = raw arrays; 2 = adds ``checksum`` (SHA-256 over
#: the payload) and ``library_version`` stamps; 3 = generic lowered
#: kernel programs (any registered engine, ``op{i}.*`` key groups);
#: 4 = the v3 keys, each member stored, deflated or bit-packed
#: (:func:`_write_npz`).
FORMAT_VERSION = 4

#: Format tag of sealed sidecar files (``save_sealed``); independent of
#: :data:`FORMAT_VERSION` because sealed artifacts are derived caches,
#: not plans — losing one costs a re-seal, never a re-plan.  Version 2
#: stores the gather raw or delta-encoded, whichever is smaller, and
#: uses the per-member encodings of :func:`_write_npz`.
SEALED_FORMAT_VERSION = 2

#: Keys that describe the file rather than the plan; excluded from the
#: checksum so adding a certificate does not change the payload digest.
METADATA_KEYS = (
    "checksum",
    "library_version",
    "certificate",
    "semantic_certificate",
    "pipeline",
    "fingerprint",
    "shard_d",
    "shard_fingerprint",
)

#: Optional provenance metadata the planner stamps on cached plans:
#: the pass-pipeline signature the plan was optimized under, the
#: content-addressed fingerprint it is cached by, and — when the plan
#: was sharded for out-of-core streaming — the shard count and the
#: ``d``-scoped shard fingerprint.
PROVENANCE_KEYS = ("pipeline", "fingerprint", "shard_d",
                   "shard_fingerprint")

#: Version-2 payload keys in their canonical (checksum) order; kept for
#: loading legacy scheduled-plan files.
PAYLOAD_KEYS = (
    "format_version",
    "p",
    "width",
    "colors",
    "gamma1",
    "delta",
    "gamma3",
    "s1",
    "t1",
    "s2",
    "t2",
    "s3",
    "t3",
)


def plan_checksum(arrays: dict, keys: tuple[str, ...] | None = None) -> str:
    """SHA-256 hex digest over the payload arrays of a plan file.

    Each key contributes, in order: its name, the array's dtype string,
    its shape, and its C-contiguous bytes — so any bit flip, shape
    change, retyping, or added/removed key changes the digest.  Version
    3 and 4 files hash every non-metadata key in sorted order (the
    default), over the logical arrays whatever their member encoding;
    version 2 files pass ``keys=PAYLOAD_KEYS`` for the legacy fixed
    order.
    """
    if keys is None:
        keys = tuple(sorted(k for k in arrays if k not in METADATA_KEYS))
    digest = hashlib.sha256()
    for key in keys:
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Member codec: one writer and one reader for every .npz this module
# writes (version 4 plans, version 2 sidecars)
# ----------------------------------------------------------------------

#: Bytes of a member's head that a level-1 deflate probe compresses to
#: estimate the member's deflate ratio.  Random index arrays deflate to
#: ~1.0 of their size, so a probe this small already tells them apart
#: from the structured (affine) members that deflate to a few percent.
_PROBE_BYTES = 16 * 1024

#: A member is deflated only when the probe predicts it shrinks below
#: this fraction of its size: random index arrays probe at 0.9-1.0 and
#: would pay milliseconds of deflate to save almost nothing.
_DEFLATE_CUTOFF = 0.9

#: A deflated member whose probe ratio is at least this is deflated at
#: zlib level 1 rather than NumPy's level 6.  Members this close to
#: random barely deflate at either level: a random 2^16 plan's
#: ``op*.s`` arrays probe at ~0.83, and level 6 saves ~0.3% of their
#: bytes for ~3x the time.  Below it, level 6 pays: the ``gamma``/``t``
#: arrays of a 2^20 bit-reversal plan (probing at 0.55-0.61) and the
#: delta-encoded sidecars of 2^18-2^20 affine permutations (0.52-0.59)
#: deflate 8-50% smaller at level 6 than at level 1.
_FAST_DEFLATE_RATIO = 0.75

#: Member-name suffixes of a bit-packed array: the packed bytes and the
#: JSON spec (``bits``, ``dtype``, ``shape``) that decodes them.
_PACKED_SUFFIX = ".bitpacked"
_SPEC_SUFFIX = ".bitspec"

#: What a spec member adds to the file: its deflated ``.npy`` (~100
#: bytes) plus a zip local header and central-directory entry.
_SPEC_BYTES = 256

#: The dtypes a packed member may decode to, by ``dtype.str``.
_UNSIGNED_DTYPES = {
    np.dtype(t).newbyteorder(order).str: np.dtype(t).newbyteorder(order)
    for t in ("uint8", "uint16", "uint32", "uint64") for order in "<>"
}

#: Members at least this large get zip64 headers (the zip32 limit is
#: 2 GiB - 1; the margin covers the .npy header).
_ZIP64_BYTES = (1 << 31) - (1 << 20)


def _packed_bits(arr: np.ndarray) -> int:
    """The exact bit width of an unsigned array's largest value, or 0
    when the array is not unsigned, is empty, or would not shrink."""
    if arr.dtype.kind != "u" or arr.size == 0:
        return 0
    bits = max(1, int(arr.max()).bit_length())
    return bits if bits < 8 * arr.dtype.itemsize else 0


def _npy_header(arr: np.ndarray) -> bytes:
    """The ``.npy`` header ``np.lib.format.write_array`` puts before
    ``arr``'s data (mostly padding: it deflates well)."""
    buf = BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, np.lib.format.header_data_from_array_1_0(arr)
    )
    return buf.getvalue()


def _encoding(arr: np.ndarray) -> tuple[str, int, float]:
    """How to store ``arr``: ``("deflate" | "pack" | "store", the
    encoding's parameter, estimated member bytes)``, the parameter being
    the zlib level to deflate at, the bits to pack with, or 0.

    The deflate ratio comes from a level-1 probe of the member's first
    :data:`_PROBE_BYTES` (``.npy`` header included, which decides small
    members); the packing size adds the spec member's
    :data:`_SPEC_BYTES`.  Deflate wins when it is the smaller estimate
    and below :data:`_DEFLATE_CUTOFF` of the plain size — at level 1
    when the ratio is at least :data:`_FAST_DEFLATE_RATIO`, else level
    6; failing that, an unsigned array whose values use fewer bits than
    its dtype is bit-packed; anything else is stored as-is.
    """
    header = _npy_header(arr)
    plain = len(header) + arr.nbytes
    flat = np.ascontiguousarray(arr).reshape(-1)
    head = header + flat[: -(-_PROBE_BYTES // flat.itemsize)].tobytes()
    ratio = len(zlib.compress(head, 1)) / len(head)
    deflated = plain * ratio
    bits = _packed_bits(arr)
    packed = (len(header) + -(-arr.size * bits // 8) + _SPEC_BYTES
              if bits else plain)
    if deflated < min(packed, _DEFLATE_CUTOFF * plain):
        return ("deflate", 1 if ratio >= _FAST_DEFLATE_RATIO else 6,
                deflated)
    if packed < plain:
        return "pack", bits, packed
    return "store", 0, plain


def _pack_bits(arr: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``arr`` at ``bits`` bits per value, little-endian
    bit order (value ``i`` fills stream bits ``i*bits`` upward); the
    pad bits of the last byte are zero.

    Eight values fill exactly ``bits`` bytes, so the stream is built one
    group-of-eight byte column at a time: each output byte ORs the
    shifted low bytes of the (at most nine) values that overlap it.
    """
    flat = arr.reshape(-1)
    count = flat.size
    groups = -(-count // 8)
    values = np.zeros(groups * 8, dtype=arr.dtype)
    values[:count] = flat
    values = values.reshape(groups, 8)
    # The uint8 arrays here are byte streams, not indices (REP103).
    out = np.zeros((groups, bits), dtype=np.uint8)  # staticcheck: ignore[REP103]
    for j in range(8):
        column = values[:, j]
        first = j * bits
        for byte in range(first >> 3, ((first + bits - 1) >> 3) + 1):
            shift = 8 * byte - first
            part = column >> shift if shift >= 0 else column << -shift
            out[:, byte] |= part.astype(np.uint8)  # staticcheck: ignore[REP103]
    return out.reshape(-1)[: -(-count * bits // 8)]


def _unpack_bits(data: np.ndarray, bits: int, count: int,
                 dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: ``count`` values of ``dtype``.

    Value ``j`` of every group of eight starts at the same byte column
    and bit shift, so one strided unaligned little-endian uint64 window
    per ``j`` reads all of them at once (plus one byte when ``shift +
    bits`` exceeds 64): eight vectorised shift-and-mask passes over
    ``count / 8`` values, with no per-bit temporaries.
    """
    if count == 0:
        return np.empty(0, dtype=dtype)
    groups = -(-count // 8)
    buf = np.zeros(groups * bits + 9, dtype=np.uint8)  # staticcheck: ignore[REP103]
    buf[: data.size] = data
    out = np.empty((groups, 8), dtype=dtype)
    mask = np.uint64((1 << bits) - 1)
    for j in range(8):
        column, shift = (j * bits) >> 3, (j * bits) & 7
        word = np.ndarray((groups,), dtype="<u8", buffer=buf,
                          offset=column, strides=(bits,))
        word = word >> np.uint64(shift)
        if shift + bits > 64:
            high = np.ndarray((groups,), dtype=np.uint8,
                              buffer=buf, offset=column + 8,
                              strides=(bits,))
            word |= high.astype(np.uint64) << np.uint64(64 - shift)
        out[:, j] = word & mask
    return out.reshape(-1)[:count]


def _spec_bytes(bits: int, dtype: np.dtype, shape: tuple) -> bytes:
    """The canonical JSON spec of a packed member."""
    return json.dumps({"bits": bits, "dtype": dtype.str,
                       "shape": [int(d) for d in shape]}).encode()


def _write_member(zf: zipfile.ZipFile, name: str, arr: np.ndarray,
                  compression: int, level: int | None = None) -> None:
    """Write ``arr`` as member ``name.npy``, streamed at the default
    level, or whole at zlib ``level`` (``writestr`` is the public way
    to pick one)."""
    info = zipfile.ZipInfo(name + ".npy")
    info.compress_type = compression
    if level is not None:
        buf = BytesIO()
        np.lib.format.write_array(buf, arr, allow_pickle=False)
        zf.writestr(info, buf.getbuffer(), compresslevel=level)
        return
    with zf.open(info, "w", force_zip64=arr.nbytes >= _ZIP64_BYTES) as fh:
        np.lib.format.write_array(fh, arr, allow_pickle=False)


def _write_npz(path, arrays: dict) -> None:
    """Write ``arrays`` to ``path`` as an ``.npz`` that ``np.load`` can
    open, choosing per member (:func:`_encoding`) between
    ``ZIP_DEFLATED`` (level 1 for members that barely deflate, NumPy's
    default level 6 otherwise), bit-packed ``ZIP_STORED`` and plain
    ``ZIP_STORED``.

    A packed member ``key`` becomes two members: ``key.bitpacked``
    (the :func:`_pack_bits` stream) and ``key.bitspec`` (its JSON
    spec).  :func:`_read_npz` restores every array bit for bit, so
    checksums over the logical arrays are unaffected by the choice.
    """
    with zipfile.ZipFile(Path(path), "w", allowZip64=True) as zf:
        for key, value in arrays.items():
            arr = np.asarray(value)
            how, param, _ = _encoding(arr)
            if how == "pack":
                spec = _spec_bytes(param, arr.dtype, arr.shape)
                _write_member(zf, key + _SPEC_SUFFIX,
                              np.asarray(np.bytes_(spec)),
                              zipfile.ZIP_DEFLATED)
                _write_member(zf, key + _PACKED_SUFFIX,
                              _pack_bits(arr, param), zipfile.ZIP_STORED)
            elif how == "deflate":
                _write_member(zf, key, arr, zipfile.ZIP_DEFLATED,
                              level=1 if param == 1 else None)
            else:
                _write_member(zf, key, arr, zipfile.ZIP_STORED)


def _unpack_member(path, key: str, data: np.ndarray,
                   spec_arr: np.ndarray) -> np.ndarray:
    """Decode one bit-packed member, refusing any spec or stream that
    does not match exactly (wrong length, nonzero pad bits)."""
    try:
        stored_spec = spec_arr.item()
        spec = json.loads(stored_spec)
        bits = int(spec["bits"])
        dtype = _UNSIGNED_DTYPES[str(spec["dtype"])]
        shape = tuple(int(d) for d in spec["shape"])
    except (ValueError, TypeError, KeyError) as exc:
        raise PlanCorruptionError(
            f"{path}: bit-packing spec of {key} is malformed: {exc}"
        ) from exc
    # Only the writer's exact bytes are accepted, so a flipped spec bit
    # that still parses (a space, a digit's leading zero) is refused.
    if (not 1 <= bits <= 8 * dtype.itemsize
            or any(d < 0 for d in shape)
            or stored_spec != _spec_bytes(bits, dtype, shape)):
        raise PlanCorruptionError(
            f"{path}: bit-packing spec of {key} is invalid or not "
            f"canonical: {stored_spec!r}"
        )
    count = math.prod(shape)
    stream_bits = count * bits
    if (data.dtype != np.uint8 or data.ndim != 1
            or data.size != -(-stream_bits // 8)):
        raise PlanCorruptionError(
            f"{path}: packed member {key} holds {data.size} bytes, but "
            f"its spec needs {-(-stream_bits // 8)} ({count} values x "
            f"{bits} bits)"
        )
    if stream_bits % 8 and int(data[-1]) >> (stream_bits % 8):
        raise PlanCorruptionError(
            f"{path}: packed member {key} has nonzero pad bits — the "
            "file was corrupted"
        )
    return _unpack_bits(data, bits, count, dtype).reshape(shape)


def _read_npz(path, what: str = "plan file") -> dict:
    """Read every array of an ``.npz`` written by :func:`_write_npz`
    (or by ``np.savez_compressed``: legacy files have no packed
    members), decoding packed members back to their logical arrays.

    Any unreadable archive or inconsistent packed member raises
    :class:`PlanCorruptionError` naming ``path``; ``what`` names the
    kind of file in that message.
    """
    try:
        with np.load(Path(path)) as data:
            raw = {k: np.asarray(data[k]) for k in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError,
            zlib.error) as exc:
        raise PlanCorruptionError(
            f"{path}: {what} is unreadable (truncated or not an archive "
            f"written by this library): {exc}"
        ) from exc
    arrays: dict = {}
    for name, value in raw.items():
        if name.endswith(_SPEC_SUFFIX):
            key = name[: -len(_SPEC_SUFFIX)]
            if key + _PACKED_SUFFIX not in raw:
                raise PlanCorruptionError(
                    f"{path}: bit-packing spec of {key} has no packed "
                    "member"
                )
        elif name.endswith(_PACKED_SUFFIX):
            key = name[: -len(_PACKED_SUFFIX)]
            spec = raw.get(key + _SPEC_SUFFIX)
            if spec is None or key in raw:
                raise PlanCorruptionError(
                    f"{path}: packed member {key} has "
                    + ("no bit-packing spec" if spec is None
                       else "a plain duplicate")
                )
            arrays[key] = _unpack_member(path, key, value, spec)
        else:
            arrays[name] = value
    return arrays


# ----------------------------------------------------------------------
# Packing (versions 3 and 4: generic kernel programs)
# ----------------------------------------------------------------------


def _narrow_index_array(arr: np.ndarray) -> np.ndarray:
    """The narrowest sufficient unsigned dtype for an index array.

    Plan arrays are indices (permutations, schedules, colourings):
    non-negative integers bounded by ``n``.  Stored at ``int64`` they
    waste 4--8x the bytes actually needed, so v3/v4 files narrow them to
    the smallest unsigned dtype that holds the maximum value.  Arrays
    that are not integer, are empty, or contain negatives (sentinel
    conventions) are stored as-is.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "iu" or arr.size == 0:
        return arr
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        return arr
    return arr.astype(np.min_scalar_type(int(arr.max())))


def _store_narrowed(arrays: dict, key: str, value: np.ndarray) -> None:
    """Store ``value`` under ``key``, narrowed when that saves bytes.

    When narrowing changes the dtype, the original dtype string is
    recorded under ``key + ".dtype"`` so the loader can restore the
    array *bitwise identical* — the simulator prices schedule arrays
    by their in-memory width, so load must not change what the
    planner built.  Sidecar keys are payload (checksummed), never
    metadata: retyping one is tampering.
    """
    value = np.asarray(value)
    narrowed = _narrow_index_array(value)
    arrays[key] = narrowed
    if narrowed.dtype != value.dtype:
        arrays[key + ".dtype"] = np.str_(str(value.dtype))


def _restore_narrowed(arrays: dict, key: str) -> np.ndarray:
    """Load ``arrays[key]``, widening back to its recorded dtype."""
    value = np.asarray(arrays[key])
    sidecar = key + ".dtype"
    if sidecar in arrays:
        value = value.astype(np.dtype(str(arrays[sidecar])))
    return value


def _pack_program(program: KernelProgram, p: np.ndarray) -> dict:
    """Flatten a lowered program (plus its permutation) to npz keys."""
    arrays: dict = {
        "format_version": np.int64(FORMAT_VERSION),
        "engine": np.str_(program.engine),
        "n": np.int64(program.n),
        "width": np.int64(program.width),
        "num_ops": np.int64(len(program.ops)),
    }
    _store_narrowed(arrays, "p", np.asarray(p))
    for i, op in enumerate(program.ops):
        prefix = f"op{i}."
        arrays[prefix + "kind"] = np.str_(op.kind)
        arrays[prefix + "label"] = np.str_(op.label)
        for field in op._ARRAY_FIELDS:
            value = getattr(op, field)
            if value is not None:
                _store_narrowed(arrays, prefix + field, value)
        for field in op._SCALAR_FIELDS:
            arrays[prefix + field] = np.int64(getattr(op, field))
        for field in op._BOOL_FIELDS:
            arrays[prefix + field] = np.bool_(getattr(op, field))
        for field in op._STR_FIELDS:
            arrays[prefix + field] = np.str_(getattr(op, field))
    return arrays


def _pack_formula(form: "affine.AffineForm", width: int) -> dict:
    """The payload keys of a formula plan file (see the module
    docstring): the affine form and the recipe that regenerates the
    plan from it."""
    return {
        "format_version": np.int64(FORMAT_VERSION),
        "engine": np.str_(ScheduledPermutation.engine_name),
        "n": np.int64(form.n),
        "width": np.int64(width),
        "affine.recipe": np.int64(affine.RECIPE_VERSION),
        "affine.A": np.asarray(form.columns, dtype=np.int64),
        "affine.c": np.int64(form.offset),
    }


def _regenerate_formula(path, arrays: dict) -> ScheduledPermutation:
    """Rebuild a formula file's plan through the closed form (the
    checksum has vouched for the bytes; this refuses what no writer of
    this build produces)."""
    try:
        recipe = int(arrays["affine.recipe"])
        engine = str(arrays["engine"])
        n, width = int(arrays["n"]), int(arrays["width"])
        columns = tuple(int(v) for v in np.asarray(arrays["affine.A"]))
        offset = int(arrays["affine.c"])
    except KeyError as exc:
        raise PlanCorruptionError(
            f"{path}: formula plan file is incomplete: {exc} is not a "
            "file in the archive"
        ) from exc
    if recipe != affine.RECIPE_VERSION:
        raise PlanCorruptionError(
            f"{path}: formula plan needs closed-form recipe {recipe}, "
            f"but this build regenerates recipe {affine.RECIPE_VERSION} "
            "only — re-plan from the original permutation"
        )
    if engine != ScheduledPermutation.engine_name:
        raise PlanCorruptionError(
            f"{path}: formula plan names engine {engine!r}; only "
            f"{ScheduledPermutation.engine_name!r} plans are stored as "
            "a formula"
        )
    form = affine.AffineForm(n.bit_length() - 1, columns, offset)
    try:
        if n != form.n:
            raise ValidationError(f"n = {n} is not a power of two")
        form.validate()
        return ScheduledPermutation.from_affine(form, width)
    except (ValidationError, SchedulingError) as exc:
        raise PlanCorruptionError(
            f"{path}: formula plan does not regenerate: {exc}"
        ) from exc


def _unpack_program(path, arrays: dict) -> KernelProgram:
    """Rebuild the :class:`KernelProgram` from npz keys (checksum has
    already vouched for the key set, so failures here mean the file was
    written by an incompatible library, not corrupted)."""
    engine = str(arrays["engine"])
    num_ops = int(arrays["num_ops"])
    ops = []
    for i in range(num_ops):
        prefix = f"op{i}."
        kind = str(arrays[prefix + "kind"])
        op_cls = OP_KINDS.get(kind)
        if op_cls is None:
            raise PlanCorruptionError(
                f"{path}: plan file contains unknown op kind {kind!r}; "
                "the file was written by an incompatible library version"
            )
        kwargs: dict = {"label": str(arrays[prefix + "label"])}
        for field in op_cls._ARRAY_FIELDS:
            if prefix + field in arrays:
                kwargs[field] = _restore_narrowed(
                    arrays, prefix + field
                )
        for field in op_cls._SCALAR_FIELDS:
            kwargs[field] = int(arrays[prefix + field])
        for field in op_cls._BOOL_FIELDS:
            kwargs[field] = bool(arrays[prefix + field])
        for field in op_cls._STR_FIELDS:
            kwargs[field] = str(arrays[prefix + field])
        try:
            ops.append(op_cls(**kwargs))
        except (TypeError, KeyError) as exc:
            raise PlanCorruptionError(
                f"{path}: op {i} ({kind}) is missing required fields: "
                f"{exc}"
            ) from exc
    return KernelProgram(
        engine=engine,
        n=int(arrays["n"]),
        width=int(arrays["width"]),
        ops=tuple(ops),
    )


def _certifiable_plan(plan: Any) -> ScheduledPermutation | None:
    """The scheduled plan inside ``plan`` (itself, or ``plan.inner``
    for the padded wrapper), or ``None`` when the engine has no
    statically certifiable schedule."""
    if isinstance(plan, ScheduledPermutation):
        return plan
    inner = getattr(plan, "inner", None)
    if isinstance(inner, ScheduledPermutation):
        return inner
    return None


def save_plan(path, plan, certify: bool = True,
              provenance: dict | None = None,
              semantic_certificate: Any | None = None) -> str:
    """Serialise a planned engine to ``path`` (.npz, format v4).

    ``plan`` may be any registered engine instance (its class carries
    ``engine_name``); anything else raises
    :class:`~repro.errors.ValidationError` naming the offending type.
    The file holds the engine's lowered kernel program and is stamped
    with :data:`FORMAT_VERSION`, the writing library's version, and a
    SHA-256 checksum over the payload.  A scheduled plan made in closed
    form (``plan.affine`` set) is stored as its formula instead of its
    program (see the module docstring); both certificates bind to that
    payload's checksum all the same.

    With ``certify=True`` (the default) and an engine carrying a
    scheduled plan, the static conflict-freedom certificate is
    computed, bound to that checksum and embedded; a plan that fails
    its own proof raises :class:`~repro.errors.CertificateError` and
    nothing is written — a conflicted plan must never be persisted as
    trusted.  Engines without a certifiable schedule (conventional,
    CPU, DMM) are saved without a conflict certificate.  In the same
    mode, a *semantic* certificate is computed for **every** engine:
    the program's denotation (:func:`repro.staticcheck.semantics.
    denote_program`) is proved a bijection equal to the stored
    permutation, and the digest-bound proof is embedded for the loader
    to re-verify.  A program that fails its own denotation proof also
    raises :class:`~repro.errors.CertificateError` unwritten.  Pass
    ``certify=False`` to write a bare (still checksummed) file.

    A caller that has already proved the program — the planner, whose
    compile denoted it — passes that proof as ``semantic_certificate``
    (:func:`~repro.staticcheck.semantics.validate_translation` of the
    lowered program against itself and ``plan.p``).  It is embedded
    only if it is positive and matches this plan: its
    ``requested_sha`` digests ``plan.p`` and its n, width, engine and
    op counts are the lowered program's; anything else is ignored and
    the program is denoted here as usual.

    Returns the payload checksum, which a sealed sidecar binds to.

    ``provenance`` optionally records the planner's compile context —
    :data:`PROVENANCE_KEYS` only (the pass-pipeline signature and the
    content-addressed fingerprint).  Provenance keys are metadata:
    they do not enter the payload checksum, so stamped and unstamped
    files holding the same plan share a digest.
    """
    engine_name = getattr(type(plan), "engine_name", "")
    if not engine_name:
        raise ValidationError(
            f"cannot save a {type(plan).__name__}: not a registered "
            "engine (no engine_name); register the class with "
            "repro.ir.register_engine or pass a planned engine instance"
        )
    if provenance is not None:
        unknown = sorted(set(provenance) - set(PROVENANCE_KEYS))
        if unknown:
            raise ValidationError(
                f"unknown provenance key(s) {unknown}; save_plan "
                f"records only {list(PROVENANCE_KEYS)}"
            )
    from repro import __version__

    program = plan.lower()
    with telemetry.span(
        "plan_io.save", n=program.n, engine=engine_name
    ) as sp:
        form = getattr(plan, "affine", None)
        if form is not None:
            arrays = _pack_formula(form, plan.width)
        else:
            arrays = _pack_program(program, plan.p)
        checksum = plan_checksum(arrays)
        extra: dict = {}
        if provenance is not None:
            for key in PROVENANCE_KEYS:
                if key in provenance:
                    extra[key] = np.str_(provenance[key])
        certifiable = _certifiable_plan(plan)
        if certify and certifiable is not None:
            from repro.staticcheck.certifier import certify_plan

            cert = certify_plan(certifiable).bound_to(checksum)
            if not cert.ok:
                assert cert.counterexample is not None
                raise CertificateError(
                    f"refusing to save {path}: plan is not conflict-"
                    f"free — {cert.counterexample.describe()}"
                )
            certifiable.certificate = cert
            extra["certificate"] = np.str_(cert.to_json())
        if certify:
            from repro.staticcheck.semantics import validate_translation

            sem = _reusable_semantic_certificate(
                semantic_certificate, program, plan.p
            ) or validate_translation(program, program, requested=plan.p)
            sem = sem.bound_to(checksum)
            if not sem.ok:
                raise CertificateError(
                    f"refusing to save {path}: program does not denote "
                    f"its own permutation — {sem.summary()}"
                )
            extra["semantic_certificate"] = np.str_(sem.to_json())
        _write_npz(path, {
            "checksum": np.str_(checksum),
            "library_version": np.str_(__version__),
            **extra,
            **arrays,
        })
        sp.set(file_bytes=Path(path).stat().st_size,
               certified="certificate" in extra,
               semantically_certified="semantic_certificate" in extra)
        telemetry.count("plan_io_saved_total")
    return checksum


def _reusable_semantic_certificate(
    cert: Any, program: KernelProgram, p: np.ndarray
) -> Any | None:
    """``cert`` if it is a positive raw-program certificate issued for
    exactly this program and permutation, else ``None``."""
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
    )

    ops = len(program.ops)
    if (
        not isinstance(cert, SemanticCertificate)
        or not cert.ok
        or cert.matches_requested is not True
        or cert.pipeline is not None
        or cert.blame is not None
        or (cert.engine, cert.n, cert.width) != (
            program.engine, int(program.n), int(program.width))
        or (cert.raw_ops, cert.optimized_ops) != (ops, ops)
    ):
        return None
    wanted = np.asarray(p, dtype=np.int64)
    if cert.requested_sha != denotation_digest(wanted):
        return None
    return cert


def _pack_v2(plan: ScheduledPermutation) -> dict:
    return {
        "format_version": np.int64(2),
        "p": plan.p,
        "width": np.int64(plan.width),
        "colors": plan.decomposition.colors,
        "gamma1": plan.decomposition.gamma1,
        "delta": plan.decomposition.delta,
        "gamma3": plan.decomposition.gamma3,
        "s1": plan.step1.s,
        "t1": plan.step1.t,
        "s2": plan.step2.rowwise.s,
        "t2": plan.step2.rowwise.t,
        "s3": plan.step3.s,
        "t3": plan.step3.t,
    }


def save_plan_v2(path, plan: ScheduledPermutation,
                 certify: bool = True) -> None:
    """Write the legacy version-2 layout (scheduled plans only).

    Kept so the migration tests can manufacture v2 files on demand;
    new code should use :func:`save_plan`.
    """
    if not isinstance(plan, ScheduledPermutation):
        raise ValidationError(
            f"expected a ScheduledPermutation, got {type(plan).__name__}"
        )
    from repro import __version__

    arrays = _pack_v2(plan)
    checksum = plan_checksum(arrays, keys=PAYLOAD_KEYS)
    extra: dict = {}
    if certify:
        from repro.staticcheck.certifier import certify_plan

        cert = certify_plan(plan).bound_to(checksum)
        if not cert.ok:
            assert cert.counterexample is not None
            raise CertificateError(
                f"refusing to save {path}: plan is not conflict-"
                f"free — {cert.counterexample.describe()}"
            )
        plan.certificate = cert
        extra["certificate"] = np.str_(cert.to_json())
    np.savez_compressed(
        Path(path),
        checksum=np.str_(checksum),
        library_version=np.str_(__version__),
        **extra,
        **arrays,
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _read_payload(
    path,
) -> tuple[int, dict, str, str | None, str | None]:
    """Open ``path`` and return ``(format version, payload arrays,
    stored checksum, conflict-certificate JSON or None, semantic-
    certificate JSON or None)``.

    All the ways a file can be unreadable — not a zip at all, truncated
    mid-archive, a metadata key deleted — surface here and are wrapped
    in :class:`PlanCorruptionError` naming the offending path, instead
    of leaking raw ``zipfile`` / ``KeyError`` internals.
    """
    arrays = _read_npz(path)
    if "format_version" not in arrays:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: format_version is not "
            "a file in the archive"
        )
    version = int(arrays.pop("format_version"))
    if version == 1:
        raise PlanVersionError(
            f"{path}: plan file uses format version 1, which "
            "carried no integrity checksum and can no longer "
            "be trusted or loaded; this build reads versions "
            f"2-{FORMAT_VERSION}.  Re-create the file from the "
            "original permutation with save_plan() or "
            "`python -m repro plan` — planning is "
            "deterministic, so the regenerated schedule is "
            "identical."
        )
    if version not in (2, 3, FORMAT_VERSION):
        raise PlanVersionError(
            f"{path}: unsupported plan format version {version}; "
            f"this build reads versions 2-{FORMAT_VERSION}"
        )
    arrays["format_version"] = np.int64(version)
    if "checksum" not in arrays:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: checksum is not a file "
            "in the archive"
        )
    stored = str(arrays.pop("checksum"))
    cert_arr = arrays.pop("certificate", None)
    cert_json = str(cert_arr) if cert_arr is not None else None
    sem_arr = arrays.pop("semantic_certificate", None)
    sem_json = str(sem_arr) if sem_arr is not None else None
    arrays.pop("library_version", None)
    for key in PROVENANCE_KEYS:
        arrays.pop(key, None)
    return version, arrays, stored, cert_json, sem_json


def read_plan_provenance(path) -> dict:
    """The provenance metadata of a plan file, as ``{key: str}``.

    Returns only the :data:`PROVENANCE_KEYS` actually present — an
    empty dict for files written outside the planner (plain
    :func:`save_plan`, legacy v2 files).  Provenance is advisory
    metadata; this helper does **not** verify the plan (use
    :func:`load_plan` for that), but an unreadable file still raises
    :class:`PlanCorruptionError`.
    """
    try:
        with np.load(Path(path)) as data:
            files = set(data.files)
            return {
                key: str(np.asarray(data[key]))
                for key in PROVENANCE_KEYS
                if key in files
            }
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise PlanCorruptionError(
            f"{path}: plan file is unreadable (truncated or not a "
            f"save_plan archive): {exc}"
        ) from exc


def load_plan(path):
    """Rebuild a planned engine saved by :func:`save_plan`.

    Verification happens cheapest-first: format version, then the
    SHA-256 content checksum, then the embedded certificate (well-
    formed, bound to this exact payload checksum, positive, and
    matching the plan's ``n``/``width``), then the full structural
    verification — ``plan.verify()`` when the engine provides it, a
    reference-executor differential against the stored permutation
    otherwise — so a corrupted file fails loudly rather than permuting
    silently wrong, and fails *early* rather than after an expensive
    rebuild.  A validated certificate is attached to the returned
    plan's scheduled core as ``certificate``.

    The returned object is whichever engine class the file names —
    version-2 files always hold a
    :class:`~repro.core.scheduled.ScheduledPermutation`.
    """
    with telemetry.span("plan_io.load") as sp:
        try:
            size = Path(path).stat().st_size
        except OSError:
            size = -1
        sp.set(file_bytes=size)
        try:
            plan = _load_plan_inner(path, sp)
        except Exception:
            telemetry.count("plan_io_rejected_total")
            raise
        telemetry.count("plan_io_loaded_total")
        return plan


def _load_plan_inner(path, sp):
    version, arrays, stored, cert_json, sem_json = _read_payload(path)
    if version == 2:
        # v2 files predate semantic certificates; any stray
        # semantic_certificate key is ignored.
        return _load_plan_v2(path, arrays, stored, cert_json, sp)
    # v3 and v4 share one logical layout (a v4 formula file swaps the
    # program keys for the formula's); only member encodings differ,
    # and _read_npz has already decoded those.
    return _load_plan_v3(path, arrays, stored, cert_json, sem_json, sp)


def _checksum_mismatch(path, stored: str, actual: str) -> PlanCorruptionError:
    return PlanCorruptionError(
        f"{path}: plan checksum mismatch (stored {stored[:12]}..., "
        f"recomputed {actual[:12]}...); the file was corrupted or "
        "tampered with — re-plan from the original permutation"
    )


def _load_plan_v3(path, arrays, stored, cert_json, sem_json, sp):
    actual = plan_checksum(arrays)
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    certificate = None
    if cert_json is not None:
        certificate = _validate_certificate(path, cert_json, actual)
    if "affine.recipe" in arrays:
        plan = _regenerate_formula(path, arrays)
        program, p = plan.lower(), plan.p
    else:
        plan = None
        program = _unpack_program(path, arrays)
        try:
            engine_cls = get_engine(program.engine)
        except ValidationError as exc:
            raise PlanCorruptionError(
                f"{path}: plan file names engine {program.engine!r}, "
                f"which is not in this build's registry: {exc}"
            ) from exc
        p = _restore_narrowed(arrays, "p")
    semantic = None
    if sem_json is not None:
        semantic = _validate_semantic_certificate(
            path, sem_json, actual, program, p
        )
    if plan is None:
        plan = engine_cls.from_program(program, p)
    if semantic is not None:
        plan.semantic_certificate = semantic
    if certificate is not None:
        certifiable = _certifiable_plan(plan)
        if certifiable is None:
            raise PlanCorruptionError(
                f"{path}: embedded certificate on engine "
                f"{program.engine!r}, which has no certifiable schedule"
            )
        if (certificate.n != certifiable.n
                or certificate.width != certifiable.width):
            raise PlanCorruptionError(
                f"{path}: embedded certificate was issued for n = "
                f"{certificate.n}, w = {certificate.width}, but the "
                f"plan has n = {certifiable.n}, "
                f"w = {certifiable.width}"
            )
        certifiable.certificate = certificate
    with telemetry.span("plan_io.verify", n=program.n):
        verifier = getattr(plan, "verify", None)
        if verifier is not None:
            verifier()
        else:
            _reference_check(path, plan, program)
    sp.set(n=program.n, width=program.width, engine=program.engine,
           certified=certificate is not None,
           semantically_certified=semantic is not None)
    return plan


def _reference_check(path, plan, program: KernelProgram) -> None:
    """Structural check for engines without ``verify()``: the loaded
    program must realise the stored permutation exactly."""
    from repro.exec.reference import ReferenceExecutor

    a = np.arange(program.n, dtype=np.int64)
    out = ReferenceExecutor().run(program, a)
    expected = np.empty_like(a)
    expected[np.asarray(plan.p, dtype=np.int64)] = a
    if not np.array_equal(out, expected):
        raise PlanCorruptionError(
            f"{path}: loaded program does not realise its stored "
            "permutation — the schedule arrays are inconsistent"
        )


def _load_plan_v2(path, arrays, stored, cert_json, sp):
    missing = [key for key in PAYLOAD_KEYS if key not in arrays]
    if missing:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: {missing[0]} is not a "
            "file in the archive"
        )
    actual = plan_checksum(arrays, keys=PAYLOAD_KEYS)
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    certificate = None
    if cert_json is not None:
        certificate = _validate_certificate(path, cert_json, actual)
    p = arrays["p"]
    width = int(arrays["width"])
    decomposition = ThreeStepDecomposition(
        gamma1=arrays["gamma1"],
        delta=arrays["delta"],
        gamma3=arrays["gamma3"],
        colors=arrays["colors"],
    )
    m = decomposition.m
    step1 = RowwiseSchedule(
        gamma=decomposition.gamma1, s=arrays["s1"], t=arrays["t1"],
        width=width,
    )
    step2 = ColumnwiseSchedule(
        rowwise=RowwiseSchedule(
            gamma=decomposition.delta, s=arrays["s2"], t=arrays["t2"],
            width=width,
        ),
        transpose=TiledTranspose(m, width),
    )
    step3 = RowwiseSchedule(
        gamma=decomposition.gamma3, s=arrays["s3"], t=arrays["t3"],
        width=width,
    )
    plan = ScheduledPermutation(
        p=p,
        width=width,
        decomposition=decomposition,
        step1=step1,
        step2=step2,
        step3=step3,
        certificate=certificate,
    )
    if certificate is not None and (
        certificate.n != plan.n or certificate.width != width
    ):
        raise PlanCorruptionError(
            f"{path}: embedded certificate was issued for n = "
            f"{certificate.n}, w = {certificate.width}, but the plan "
            f"has n = {plan.n}, w = {width}"
        )
    with telemetry.span("plan_io.verify", n=plan.n):
        plan.verify()
    sp.set(n=plan.n, width=width, engine="scheduled",
           certified=certificate is not None)
    return plan


def _validate_certificate(path, cert_json: str, checksum: str):
    """Parse and police an embedded certificate (all failure modes are
    :class:`PlanCorruptionError` — a bad certificate means the file was
    hand-edited or spliced together from two files)."""
    from repro.staticcheck.certifier import Certificate

    try:
        cert = Certificate.from_json(cert_json)
    except CertificateError as exc:
        raise PlanCorruptionError(
            f"{path}: embedded certificate is malformed: {exc}"
        ) from exc
    if cert.plan_sha != checksum:
        raise PlanCorruptionError(
            f"{path}: embedded certificate is bound to payload "
            f"{str(cert.plan_sha)[:12]}..., not this file's "
            f"{checksum[:12]}... — certificate and payload do not "
            "belong together"
        )
    if not cert.ok:
        assert cert.counterexample is not None
        raise PlanCorruptionError(
            f"{path}: embedded certificate records a conflict "
            f"({cert.counterexample.describe()}); a negative "
            "certificate must never be persisted"
        )
    return cert


def _validate_semantic_certificate(
    path, sem_json: str, checksum: str, program: KernelProgram,
    p: np.ndarray,
):
    """Parse and *re-prove* an embedded semantic certificate.

    Beyond the structural checks (well-formed JSON, bound to this
    payload checksum, positive verdict), the program's denotation is
    recomputed from the unpacked ops and compared against both the
    certificate's digest and the stored permutation — so the
    certificate cannot vouch for a program that no longer denotes its
    permutation, even if the rest of the file is self-consistent.
    """
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
        denote_program,
    )

    try:
        cert = SemanticCertificate.from_json(sem_json)
    except CertificateError as exc:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate is malformed: {exc}"
        ) from exc
    if cert.plan_sha != checksum:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate is bound to "
            f"payload {str(cert.plan_sha)[:12]}..., not this file's "
            f"{checksum[:12]}... — certificate and payload do not "
            "belong together"
        )
    if not cert.ok:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate records a "
            f"refutation ({cert.summary()}); a negative certificate "
            "must never be persisted"
        )
    denotation = denote_program(program)
    if not denotation.ok:
        assert denotation.failure is not None
        raise PlanCorruptionError(
            f"{path}: stored program does not denote a permutation "
            f"({denotation.failure.describe()}), but the file carries "
            "a positive semantic certificate"
        )
    if denotation.digest() != cert.denotation_sha:
        raise PlanCorruptionError(
            f"{path}: recomputed program denotation "
            f"{denotation.digest()[:12]}... does not match the "
            f"certified {cert.denotation_sha[:12]}... — the program "
            "was altered after certification"
        )
    stored_p = np.asarray(p, dtype=np.int64)
    if not np.array_equal(denotation.index_map, stored_p):
        raise PlanCorruptionError(
            f"{path}: stored program denotes a different permutation "
            "than the stored p — the schedule arrays are inconsistent"
        )
    if (cert.requested_sha is not None
            and cert.requested_sha != denotation_digest(stored_p)):
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate was issued for a "
            "different requested permutation than the stored p"
        )
    return cert


# ----------------------------------------------------------------------
# Sealed artifacts (the third compilation tier)
# ----------------------------------------------------------------------

#: Metadata keys of sealed sidecar files — excluded from the payload
#: checksum, like :data:`METADATA_KEYS` for plan files.
SEALED_METADATA_KEYS = (
    "checksum",
    "library_version",
    "semantic_certificate",
    "plan_sha",
    "fingerprint",
    "pipeline",
)


def read_plan_checksum(path) -> str:
    """The stored payload checksum of a plan file (metadata read only).

    The cheap identity the sealed sidecar binds to: no arrays are
    decompressed beyond the checksum string.  Unreadable or
    checksum-less files raise :class:`PlanCorruptionError`.
    """
    try:
        with np.load(Path(path)) as data:
            if "checksum" not in data.files:
                raise PlanCorruptionError(
                    f"{path}: plan file is incomplete: checksum is not "
                    "a file in the archive"
                )
            return str(np.asarray(data["checksum"]))
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise PlanCorruptionError(
            f"{path}: plan file is unreadable (truncated or not a "
            f"save_plan archive): {exc}"
        ) from exc


def _zigzag_encode(deltas: np.ndarray) -> np.ndarray:
    """Map signed deltas onto small unsigned values (order-preserving
    in magnitude), so near-sorted gathers narrow to tiny dtypes."""
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def _zigzag_decode(codes: np.ndarray) -> np.ndarray:
    zz = np.ascontiguousarray(codes, dtype=np.uint64)
    half = (zz >> np.uint64(1)).view(np.int64)
    sign = (zz & np.uint64(1)).view(np.int64)
    return half ^ -sign


def save_sealed(path, sealed, plan_sha: str | None = None) -> None:
    """Serialise a :class:`~repro.ir.sealed.SealedProgram` to ``path``.

    The gather index is stored either raw (``gather``) or
    **delta-encoded** (``gather_delta``: zigzagged first differences,
    tiny for the near-sorted gathers of structured permutations), each
    narrowed to the smallest sufficient unsigned dtype; whichever has
    the smaller :func:`_encoding` estimate is written.  A random
    gather stays raw (its deltas need a wider dtype and deflate
    poorly), an affine one is delta-encoded and deflated.  The scatter
    map is not stored at all; the loader re-derives it as the gather's
    inverse.

    Integrity mirrors plan files: a SHA-256 checksum over the payload
    keys, the denotation digest of the scatter map as a payload key
    (so a decoded artifact is re-provable), an optional ``plan_sha``
    binding the sidecar to one plan file's payload checksum, and the
    semantic certificate carried by the sealed program embedded as
    metadata.  The artifact is *re-proved on load*; a sealed program
    that fails its own :meth:`verify` is refused unwritten.
    """
    from repro import __version__
    from repro.staticcheck.semantics import denotation_digest

    sealed.verify()
    with telemetry.span(
        "plan_io.save_sealed", n=sealed.n, engine=sealed.engine
    ) as sp:
        arrays: dict = {
            "sealed_version": np.int64(SEALED_FORMAT_VERSION),
            "engine": np.str_(sealed.engine),
            "n": np.int64(sealed.n),
            "width": np.int64(sealed.width),
            "denotation_sha": np.str_(
                denotation_digest(sealed.scatter)
            ),
        }
        deltas = np.diff(sealed.gather, prepend=np.int64(0))
        encoded = {"gather": np.asarray(sealed.gather),
                   "gather_delta": _zigzag_encode(deltas)}
        key = min(encoded, key=lambda k: _encoding(
            _narrow_index_array(encoded[k]))[2])
        _store_narrowed(arrays, key, encoded[key])
        rounds = sealed.meta.get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            arrays["predicted_rounds"] = np.int64(rounds)
        checksum = plan_checksum(
            arrays, keys=tuple(sorted(arrays))
        )
        extra: dict = {}
        bound = plan_sha or sealed.meta.get("plan_sha")
        if bound:
            extra["plan_sha"] = np.str_(str(bound))
        for key in ("fingerprint", "pipeline"):
            if sealed.meta.get(key):
                extra[key] = np.str_(str(sealed.meta[key]))
        if sealed.certificate is not None:
            extra["semantic_certificate"] = np.str_(
                sealed.certificate.to_json()
            )
        _write_npz(path, {
            "checksum": np.str_(checksum),
            "library_version": np.str_(__version__),
            **extra,
            **arrays,
        })
        sp.set(file_bytes=Path(path).stat().st_size)
        telemetry.count("plan_io_sealed_saved_total")


def load_sealed(path, expected_plan_sha: str | None = None):
    """Rebuild and **re-prove** a sealed artifact saved by
    :func:`save_sealed`.

    Verification ladder, cheapest first: payload checksum, delta
    decode, scatter re-derivation, denotation digest comparison
    against the stored ``denotation_sha``, mutual-inverse proof
    (:meth:`~repro.ir.sealed.SealedProgram.verify`), and — when the
    caller knows which plan the sidecar must belong to —
    ``expected_plan_sha`` against the recorded binding.  Any failure
    raises :class:`~repro.errors.PlanCorruptionError`; a sealed
    artifact is a derived cache, so the caller heals by re-sealing
    from the plan, never by trusting the file.
    """
    with telemetry.span("plan_io.load_sealed") as sp:
        try:
            arrays = _read_npz(path, what="sealed artifact")
            sealed = _decode_sealed(path, arrays, expected_plan_sha)
        except Exception:
            telemetry.count("plan_io_sealed_rejected_total")
            raise
        sp.set(n=sealed.n, engine=sealed.engine)
        telemetry.count("plan_io_sealed_loaded_total")
        return sealed


def _decode_sealed(path, arrays: dict, expected_plan_sha: str | None):
    from repro.ir.sealed import SealedProgram, invert_permutation
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
    )

    for key in ("checksum", "sealed_version", "n"):
        if key not in arrays:
            raise PlanCorruptionError(
                f"{path}: sealed artifact is incomplete: {key} is not "
                "a file in the archive"
            )
    version = int(arrays["sealed_version"])
    if version not in (1, SEALED_FORMAT_VERSION):
        raise PlanVersionError(
            f"{path}: unsupported sealed format version {version}; "
            f"this build reads versions 1-{SEALED_FORMAT_VERSION}"
        )
    encodings = [k for k in ("gather", "gather_delta") if k in arrays]
    if len(encodings) != 1:
        raise PlanCorruptionError(
            f"{path}: sealed artifact must store exactly one of gather "
            f"and gather_delta, found {encodings or 'neither'}"
        )
    stored = str(arrays.pop("checksum"))
    sem_arr = arrays.pop("semantic_certificate", None)
    bound_arr = arrays.pop("plan_sha", None)
    fingerprint_arr = arrays.pop("fingerprint", None)
    pipeline_arr = arrays.pop("pipeline", None)
    arrays.pop("library_version", None)
    actual = plan_checksum(arrays, keys=tuple(sorted(arrays)))
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    if bound_arr is not None and expected_plan_sha is not None:
        if str(bound_arr) != expected_plan_sha:
            raise PlanCorruptionError(
                f"{path}: sealed artifact is bound to plan payload "
                f"{str(bound_arr)[:12]}..., not the expected "
                f"{expected_plan_sha[:12]}... — sidecar and plan do "
                "not belong together"
            )
    n = int(arrays["n"])
    stored_gather = _restore_narrowed(arrays, encodings[0])
    if stored_gather.shape != (n,):
        raise PlanCorruptionError(
            f"{path}: sealed artifact stores {encodings[0]} of shape "
            f"{stored_gather.shape} for n = {n} — the index data is "
            "inconsistent"
        )
    if encodings[0] == "gather":
        gather = stored_gather.astype(np.int64, copy=False)
    else:
        gather = np.cumsum(_zigzag_decode(stored_gather), dtype=np.int64)
    if n and (int(gather.min()) < 0 or int(gather.max()) >= n):
        raise PlanCorruptionError(
            f"{path}: decoded sealed gather leaves the range "
            f"0..{n - 1} — the index data is corrupted"
        )
    scatter = invert_permutation(gather)
    if str(arrays["denotation_sha"]) != denotation_digest(scatter):
        raise PlanCorruptionError(
            f"{path}: decoded sealed map digests "
            f"{denotation_digest(scatter)[:12]}..., not the stored "
            f"{str(arrays['denotation_sha'])[:12]}... — the artifact "
            "no longer encodes its certified permutation"
        )
    certificate = None
    if sem_arr is not None:
        try:
            certificate = SemanticCertificate.from_json(str(sem_arr))
        except CertificateError as exc:
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate is malformed: "
                f"{exc}"
            ) from exc
        if not certificate.ok:
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate records a "
                "refutation; a negative certificate must never be "
                "persisted"
            )
        if certificate.denotation_sha != str(arrays["denotation_sha"]):
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate digests a "
                "different denotation than the sealed map"
            )
    meta: dict = {"denotation_sha": str(arrays["denotation_sha"])}
    if bound_arr is not None:
        meta["plan_sha"] = str(bound_arr)
    if fingerprint_arr is not None:
        meta["fingerprint"] = str(fingerprint_arr)
    if pipeline_arr is not None:
        meta["pipeline"] = str(pipeline_arr)
    if "predicted_rounds" in arrays:
        meta["predicted_rounds"] = int(arrays["predicted_rounds"])
    sealed = SealedProgram(
        engine=str(arrays.get("engine", "")),
        width=int(arrays.get("width", 0)),
        scatter=scatter,
        gather=gather,
        meta=meta,
        certificate=certificate,
    )
    sealed.verify()
    return sealed
