"""Native kernel loader: build cache, fallbacks, and thread pinning."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fdet import _native
from repro.parallel import default_workers


@pytest.fixture(autouse=True)
def _fresh_loader_state():
    """Each test drives the loader from a clean slate and leaves one behind."""
    _native._reset_for_tests()
    yield
    _native._reset_for_tests()


def _compiler_available() -> bool:
    return _native._find_compiler() is not None


needs_compiler = pytest.mark.skipif(
    not _compiler_available(), reason="no C compiler on this host"
)


class TestBuildCache:
    @needs_compiler
    def test_cache_dir_is_reused_across_loads(self, tmp_path, monkeypatch):
        cache = tmp_path / "kernel-cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(cache))
        assert _native.native_available()
        built = sorted(cache.glob("peel-*.so"))
        assert len(built) == 1
        stamp = built[0].stat().st_mtime_ns

        _native._reset_for_tests()
        assert _native.native_available()
        assert sorted(cache.glob("peel-*.so")) == built
        assert built[0].stat().st_mtime_ns == stamp  # cache hit, no rebuild

    @needs_compiler
    def test_unusable_cache_dir_falls_back_to_tmp_build(self, tmp_path, monkeypatch):
        # a *file* at the cache path makes makedirs fail deterministically
        # (even as root, where permission bits alone would not)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(blocker))
        directory, reusable = _native._build_dir()
        assert not reusable
        assert directory != str(blocker)
        assert os.path.isdir(directory)
        # the kernel still loads through the fallback build
        assert _native.native_available()

    def test_untrusted_cache_dir_is_rejected(self, tmp_path, monkeypatch):
        if not hasattr(os, "getuid"):
            pytest.skip("no POSIX permission semantics")
        loose = tmp_path / "world-writable"
        loose.mkdir()
        loose.chmod(0o777)  # group/other writable: another user could plant a .so
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(loose))
        directory, reusable = _native._build_dir()
        assert not reusable
        assert directory != str(loose)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert _native.load_kernels() is None
        assert not _native.native_available()

    @needs_compiler
    def test_extra_cflags_change_the_cache_key(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(cache))
        assert _native.native_available()
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-DREPRO_CACHE_KEY_PROBE=1")
        _native._reset_for_tests()
        assert _native.native_available()
        assert len(sorted(cache.glob("peel-*.so"))) == 2  # distinct keyed builds


class TestKernelHandle:
    @needs_compiler
    def test_kernels_expose_all_entry_points(self):
        kernels = _native.load_kernels()
        assert kernels is not None
        for name in ("greedy_peel", "fdet_batch", "pairwise_sum"):
            assert getattr(kernels, name) is not None
        assert isinstance(kernels.has_openmp, bool)

    @needs_compiler
    def test_pairwise_sum_matches_numpy_bitwise(self):
        kernels = _native.load_kernels()
        rng = np.random.default_rng(42)
        for size in (0, 1, 7, 8, 9, 127, 128, 129, 1000, 4097):
            values = np.ascontiguousarray(rng.random(size))
            assert kernels.pairwise_sum(values, size) == float(np.sum(values))


class TestNativeThreads:
    def test_defaults_to_cores_over_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        monkeypatch.setattr(_native, "usable_cores", lambda: 8)
        assert _native.native_threads() == 8
        assert _native.native_threads(n_workers=2) == 4
        assert _native.native_threads(n_workers=3) == 2
        assert _native.native_threads(n_workers=16) == 1  # floored at 1

    def test_env_pin_is_capped_by_oversubscription_guard(self, monkeypatch):
        monkeypatch.setattr(_native, "usable_cores", lambda: 8)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert _native.native_threads() == 3
        # workers x threads <= cores: a 4-worker pool caps the pin at 2
        assert _native.native_threads(n_workers=4) == 2
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "100")
        assert _native.native_threads(n_workers=2) == 4
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
        assert _native.native_threads() == 1

    def test_affinity_mask_bounds_threads_and_workers(self, monkeypatch):
        """A process pinned to one CPU of a bigger machine runs one thread."""
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _native.native_threads() == 1
        assert default_workers() == 1
        # without an affinity call the machine's count is all there is
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _native.native_threads() == 2
        assert default_workers() == 2

    def test_non_integer_pin_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "many")
        with pytest.raises(ReproError, match="REPRO_NATIVE_THREADS"):
            _native.native_threads()
