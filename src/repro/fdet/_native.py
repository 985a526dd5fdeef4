"""On-demand compilation and loading of the C peeling kernels.

The ``fast`` peel engine is a small dependency-free C kernel
(``_peel_kernel.c``) driven through :mod:`ctypes`. The kernel has no
Python.h dependency, so any system C compiler can build it; the shared
object is cached in a stable per-user directory keyed by the source hash
(plus any extra compile flags), so compilation happens at most once per
source version per machine — across processes and across runs. When the
cache directory cannot be created, is not trusted, or is unwritable, the
build falls back to a fresh private temp directory (trusted by
construction) so the native path still works, just without cross-process
reuse.

The shared object exports several entry points, loaded together as a
:class:`NativeKernels` handle:

``repro_greedy_peel``
    One peel of one flattened graph given as an int32 CSR (used by
    :mod:`.peeling`, which runs the reference engine for a graph whose
    node or half-edge count reaches the int32 limit).
``repro_fdet_batch``
    The FDET block loop for one or many members (used by :mod:`.batched`
    for ensemble fits and for ``Fdet.detect``). Both entry points run the
    same peel core over int32 member-local node ids; a member past the
    int32 limit reports status -1 and takes the per-member path.
``repro_pairwise_sum``
    numpy-replica pairwise summation, exported so the Python side can
    probe bitwise agreement with ``np.sum`` before trusting the batch
    path on a given host.

Compilation prefers ``-fopenmp -march=native`` and silently retries the
remaining flag combinations, so hosts lacking libgomp (or a compiler that
rejects ``-march=native``) still get a working kernel. The in-kernel
thread count is governed by :func:`native_threads`, which mirrors
``REPRO_WORKERS`` semantics via ``REPRO_NATIVE_THREADS``, counts the cores
in the process's affinity mask, and guards against oversubscription when
an outer process pool is already fanning out.

Everything here degrades gracefully: no compiler, a failed compile, or
``REPRO_NATIVE=0`` in the environment all simply yield ``None``, and the
``fast`` engine runs the ``reference`` engine instead (same results, no
speedup). Nothing is ever installed — the toolchain already present on the
host is all that is used.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..parallel.executor import usable_cores

__all__ = [
    "NativeKernels",
    "load_kernels",
    "native_available",
    "native_threads",
]

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_peel_kernel.c")

_lock = threading.Lock()
#: None = not yet attempted, False = unavailable, else the NativeKernels handle
_kernels: NativeKernels | bool | None = None


@dataclass(frozen=True)
class NativeKernels:
    """Configured ctypes entry points of one loaded kernel build."""

    greedy_peel: object
    fdet_batch: object
    pairwise_sum: object
    has_openmp: bool


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_NATIVE", "1").strip().lower() in ("0", "false", "no", "off")


def _find_compiler() -> str | None:
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _extra_cflags() -> list[str]:
    """Extra compile flags from ``REPRO_NATIVE_CFLAGS`` (CI sanitizer hook)."""
    raw = os.environ.get("REPRO_NATIVE_CFLAGS", "")
    return shlex.split(raw) if raw.strip() else []


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if configured:
        return configured
    home_cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    if not home_cache.startswith("~"):  # expansion succeeded
        return os.path.join(home_cache, "repro-native")
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _trusted_dir(path: str) -> bool:
    """Refuse cache dirs another local user could have planted code in.

    The shared object is loaded straight into the process, so the directory
    must belong to us and must not be writable by group/other (a predictable
    /tmp path could otherwise be pre-created with a malicious ``.so``).
    """
    if not hasattr(os, "getuid"):  # non-POSIX: no uid semantics to check
        return True
    info = os.lstat(path)
    return (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.getuid()
        and not (info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))
    )


def _build_dir() -> tuple[str, bool]:
    """``(directory, reusable)`` to build into.

    Prefers the stable per-user cache (reusable across processes and runs).
    Any failure — unwritable parent, pre-existing dir owned by someone
    else, group/other-writable permissions — falls back to a fresh private
    temp directory, which is trusted by construction but private to this
    process (no cross-run reuse).
    """
    cache_dir = _cache_dir()
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        if _trusted_dir(cache_dir) and os.access(cache_dir, os.W_OK):
            return cache_dir, True
    except OSError:
        pass
    return tempfile.mkdtemp(prefix="repro-native-"), False


def _compile(compiler: str, out_dir: str, reusable: bool) -> str:
    """Compile the kernel into ``out_dir`` and return the .so path.

    The cache key covers the source bytes and the extra cflags so sanitizer
    builds never collide with production builds. The preferred flag set is
    ``-fopenmp -march=native`` (the kernel is compiled on the host that runs
    it, so host codegen is always valid — the integer radix/heap loops gain
    ~10%, and no floating-point expression in the kernel has a contraction
    site, so results stay bitwise identical); compilers that reject either
    flag fall back through the combinations down to a plain serial build.
    """
    with open(_SOURCE_PATH, "rb") as handle:
        source = handle.read()
    extra = _extra_cflags()
    base_flags = ["-O3", "-shared", "-fPIC"]
    attempts = (
        ["-fopenmp", "-march=native"],
        ["-fopenmp"],
        ["-march=native"],
        [],
    )
    # the baked flags join the key too, so flag-set changes rebuild
    keyed = base_flags + attempts[0] + extra
    digest = hashlib.sha256(source + "\x00".join(keyed).encode()).hexdigest()[:16]
    so_path = os.path.join(out_dir, f"peel-{digest}.so")
    if reusable and os.path.exists(so_path):
        return so_path
    # compile to a private temp name, then atomically publish, so
    # concurrent processes never load a half-written object
    fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=out_dir)
    os.close(fd)
    try:
        base = [compiler, *base_flags, *extra, "-o", tmp_path, _SOURCE_PATH]
        for wanted in attempts:
            try:
                subprocess.run(
                    base[:1] + wanted + base[1:],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                break
            except subprocess.CalledProcessError:
                if not wanted:
                    raise
        os.replace(tmp_path, so_path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return so_path


def _configure(lib: ctypes.CDLL) -> NativeKernels:
    i32_array = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    i64_array = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64_array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    u8_array = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    # parent columns may be compact (int32/float32) storage — including
    # read-only mmap views — so the pointer is dtype-agnostic; the kernel
    # widens each load per the explicit *_width arguments
    any_array = np.ctypeslib.ndpointer(flags="C_CONTIGUOUS")

    peel = lib.repro_greedy_peel
    peel.argtypes = [
        ctypes.c_int64,  # n
        i32_array,  # indptr
        i32_array,  # flat_other
        f64_array,  # flat_w
        f64_array,  # prio (in/out)
        ctypes.c_double,  # total
        i32_array,  # removal_order (out)
        f64_array,  # densities (out)
        ctypes.POINTER(ctypes.c_double),  # best_density (out)
        ctypes.POINTER(ctypes.c_int64),  # best_removed (out)
    ]
    peel.restype = ctypes.c_int64

    batch = lib.repro_fdet_batch
    batch.argtypes = [
        ctypes.c_int64,  # pn_users
        ctypes.c_int64,  # pn_merchants
        any_array,  # p_eu (int32 or int64 storage)
        any_array,  # p_em
        ctypes.c_int64,  # idx_width (4 or 8)
        any_array,  # p_w (float32/float64; dummy array when unweighted)
        ctypes.c_int64,  # has_weights
        ctypes.c_int64,  # w_width (4 or 8)
        f64_array,  # weight_table
        ctypes.c_int64,  # n_members
        i64_array,  # edge_ids (concatenated)
        i64_array,  # edge_off
        f64_array,  # scales
        ctypes.c_int64,  # max_blocks
        ctypes.c_int64,  # min_block_edges
        ctypes.c_int64,  # frozen_policy
        ctypes.c_int64,  # all_nodes
        ctypes.c_int64,  # n_threads
        i64_array,  # out_status
        i64_array,  # out_nu
        i64_array,  # out_nm
        i64_array,  # kept_users slab
        i64_array,  # ku_off
        i64_array,  # kept_merchants slab
        i64_array,  # km_off
        i64_array,  # out_n_blocks
        f64_array,  # block_density
        i64_array,  # block_n_edges
        u8_array,  # block_masks slab
        i64_array,  # mask_off
    ]
    batch.restype = ctypes.c_int64

    psum = lib.repro_pairwise_sum
    psum.argtypes = [f64_array, ctypes.c_int64]
    psum.restype = ctypes.c_double

    omp = lib.repro_has_openmp
    omp.argtypes = []
    omp.restype = ctypes.c_int64

    return NativeKernels(
        greedy_peel=peel,
        fdet_batch=batch,
        pairwise_sum=psum,
        has_openmp=bool(omp()),
    )


def _compile_and_load() -> NativeKernels | None:
    compiler = _find_compiler()
    if compiler is None:
        return None
    out_dir, reusable = _build_dir()
    so_path = _compile(compiler, out_dir, reusable)
    return _configure(ctypes.CDLL(so_path))


def load_kernels() -> NativeKernels | None:
    """The loaded kernel handle, or ``None`` when unavailable."""
    global _kernels
    if _kernels is not None:
        return _kernels or None
    with _lock:
        if _kernels is None:
            if _disabled_by_env():
                _kernels = False
            else:
                try:
                    _kernels = _compile_and_load() or False
                except Exception:  # any toolchain hiccup -> reference engine
                    _kernels = False
        return _kernels or None


def native_available() -> bool:
    """``True`` when the compiled kernel can be (or has been) loaded."""
    return load_kernels() is not None


def native_threads(n_workers: int = 1) -> int:
    """In-kernel OpenMP thread count for one worker of an ``n_workers`` pool.

    Mirrors ``REPRO_WORKERS`` semantics: ``REPRO_NATIVE_THREADS`` pins the
    count explicitly (a non-integer raises :class:`ReproError`), otherwise
    every usable core (:func:`~repro.parallel.executor.usable_cores`, the
    affinity mask) is used. Either way the result is capped at
    ``cores // n_workers`` so a process pool that already fans out workers
    never oversubscribes the machine (``workers x threads <= cores``), and
    is floored at 1.
    """
    cores = usable_cores()
    cap = max(1, cores // max(1, n_workers))
    raw = os.environ.get("REPRO_NATIVE_THREADS")
    if raw is None or not raw.strip():
        return cap
    try:
        pinned = int(raw)
    except ValueError:
        raise ReproError(
            f"REPRO_NATIVE_THREADS must be an integer, got {raw!r}"
        ) from None
    return max(1, min(pinned, cap))


def _reset_for_tests() -> None:
    """Forget the cached load attempt (tests exercise env-driven paths)."""
    global _kernels
    with _lock:
        _kernels = None
