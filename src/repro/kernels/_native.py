"""Native compiled kernel backend: ``_kernels.c`` via cffi ABI mode.

The C source next to this module is compiled on first use with the
system C compiler into a content-addressed shared library (keyed by the
SHA-256 of the source plus the compiler identity, so stale caches can
never be picked up) and opened with ``ffi.dlopen``.  ABI mode needs no
``Python.h`` and cffi releases the GIL around every call into the
library — the property ROADMAP item 1 is after.

The build deliberately uses plain ``-O3``: no ``-ffast-math`` /
``-fassociative-math``, because the compiler must not reassociate the
sequential accumulations that :mod:`repro.kernels._numpy` defines as
the bit-parity contract.  It also pins ``-ffp-contract=off``: where the
target has FMA (aarch64's baseline, or x86-64 with ``-mfma``), GCC
would otherwise fuse ``acc + x * y`` into one fused multiply-add,
rounding once where NumPy rounds twice.

If any ingredient is missing — cffi, a C compiler, a writable cache
directory — loading raises :class:`NativeKernelsUnavailable`.  There is
no silent fallback to NumPy at load time; per-call fallbacks for
dtypes the native code does not cover are served by the reference
backend and *counted* in :attr:`NativeBackend.fallback_calls`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels._numpy import NumpyKernels

__all__ = ["NativeKernelsUnavailable", "NativeBackend", "load_native_backend"]

_CDEF = """
void repro_scatter_sum_f64(const int64_t *ids, const double *grads,
                           int64_t rows, int64_t dim, double *out);
void repro_segment_div_f64(const double *vals, const int64_t *lengths,
                           int64_t num_segments, double *out);
void repro_segment_div_f32(const float *vals, const int64_t *lengths,
                           int64_t num_segments, float *out);
void repro_segment_sums_f64(const double *rows_, const int64_t *lengths,
                            int64_t num_segments, int64_t dim, double *out);
void repro_segment_sums_f32(const float *rows_, const int64_t *lengths,
                            int64_t num_segments, int64_t dim, float *out);
void repro_pairwise_sq_dists_f64(const double *flat, int64_t groups,
                                 int64_t n, int64_t dim, double *out);
void repro_stacked_step_gradients_f64(const double *old_rows,
                                      const double *new_rows,
                                      double server_lr, double max_step,
                                      int64_t rows, int64_t dim, double *out);
void repro_row_diff_norms_f64(const double *a, const double *b,
                              int64_t rows, int64_t dim, double *out);
"""

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]


class NativeKernelsUnavailable(RuntimeError):
    """Raised when ``kernels="native"`` is requested but cannot be served.

    Deliberately an error rather than a quiet downgrade: a run that asks
    for the native backend and silently gets NumPy would report numpy
    throughput under a native label, the exact failure mode the
    anti-fallback counters elsewhere in the engine exist to surface.
    """


def _find_compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _cache_dir() -> Path:
    configured = os.environ.get("REPRO_KERNELS_CACHE")
    if configured:
        return Path(configured)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _build_shared_library() -> Path:
    """Compile ``_kernels.c`` into a content-addressed cached ``.so``."""
    if not _SOURCE.is_file():
        raise NativeKernelsUnavailable(
            f"native kernel source not found at {_SOURCE}"
        )
    compiler = _find_compiler()
    if compiler is None:
        raise NativeKernelsUnavailable(
            "no C compiler found (looked for cc/gcc/clang on PATH); "
            "the native kernel backend needs one to build _kernels.c"
        )
    source = _SOURCE.read_bytes()
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise NativeKernelsUnavailable(
            f"C compiler {compiler!r} is not usable: {exc}"
        ) from exc
    tag = hashlib.sha256(
        source + b"\0" + version + b"\0" + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"repro_kernels_{tag}.so"
    if target.is_file():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=cache, prefix=".build_", suffix=".so"
        )
        os.close(fd)
        build = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if build.returncode != 0:
            os.unlink(tmp_name)
            raise NativeKernelsUnavailable(
                f"compiling _kernels.c failed:\n{build.stderr.strip()}"
            )
        # Concurrent builders race benignly: both produce byte-equivalent
        # libraries for the same tag, and replace is atomic.
        os.replace(tmp_name, target)
    except OSError as exc:
        raise NativeKernelsUnavailable(
            f"could not build native kernels under {cache}: {exc}"
        ) from exc
    return target


def _dlopen(library: Path):
    try:
        import cffi
    except ImportError as exc:
        raise NativeKernelsUnavailable(
            "cffi is not installed; install the 'native' extra "
            "(pip install repro[native]) to use kernels='native'"
        ) from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(str(library))
    except OSError as exc:
        raise NativeKernelsUnavailable(
            f"could not dlopen built kernel library {library}: {exc}"
        ) from exc
    return ffi, lib


class NativeBackend:
    """Kernel backend serving dispatched calls from the compiled library.

    Wrappers only marshal: inputs are made C-contiguous in the exact
    dtype the C entry point expects (an exact representation change,
    not a numerical one), outputs are NumPy-allocated buffers the C
    code fills.  Calls whose dtype has no native port (e.g. float32
    pairwise distances, which nothing on a hot path produces) are
    served by the reference backend and recorded in
    :attr:`fallback_calls` so the engine's anti-fallback accounting can
    surface them.
    """

    name = "native"

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib
        self._numpy = NumpyKernels()
        self.fallback_calls = 0

    # -- marshalling helpers -------------------------------------------

    def _ptr(self, ctype: str, array: np.ndarray):
        return self._ffi.from_buffer(ctype, array, require_writable=False)

    def _out(self, ctype: str, array: np.ndarray):
        return self._ffi.from_buffer(ctype, array, require_writable=True)

    @staticmethod
    def _i64(array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array, dtype=np.int64)

    # -- kernels -------------------------------------------------------

    def scatter_sum(
        self, item_ids: np.ndarray, item_grads: np.ndarray, num_items: int
    ) -> np.ndarray:
        grads = np.ascontiguousarray(item_grads, dtype=np.float64)
        ids = self._i64(item_ids)
        out = np.zeros((num_items, grads.shape[1]))
        self._lib.repro_scatter_sum_f64(
            self._ptr("int64_t[]", ids),
            self._ptr("double[]", grads),
            grads.shape[0],
            grads.shape[1],
            self._out("double[]", out),
        )
        return out

    def segment_div(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        if values.dtype == np.float64:
            func, ctype = self._lib.repro_segment_div_f64, "double[]"
        elif values.dtype == np.float32:
            func, ctype = self._lib.repro_segment_div_f32, "float[]"
        else:
            self.fallback_calls += 1
            return self._numpy.segment_div(values, lengths)
        vals = np.ascontiguousarray(values)
        out = np.empty_like(vals)
        func(
            self._ptr(ctype, vals),
            self._ptr("int64_t[]", self._i64(lengths)),
            len(lengths),
            self._out(ctype, out),
        )
        return out

    def segment_sums(
        self, rows: np.ndarray, lengths: np.ndarray, dim: int
    ) -> np.ndarray:
        if rows.dtype == np.float64:
            func, ctype = self._lib.repro_segment_sums_f64, "double[]"
        elif rows.dtype == np.float32:
            func, ctype = self._lib.repro_segment_sums_f32, "float[]"
        else:
            self.fallback_calls += 1
            return self._numpy.segment_sums(rows, lengths, dim)
        flat = np.ascontiguousarray(rows)
        out = np.empty((len(lengths), dim), dtype=rows.dtype)
        func(
            self._ptr(ctype, flat),
            self._ptr("int64_t[]", self._i64(lengths)),
            len(lengths),
            dim,
            self._out(ctype, out),
        )
        return out

    def pairwise_sq_dists(self, flat: np.ndarray) -> np.ndarray:
        if flat.dtype != np.float64:
            self.fallback_calls += 1
            return self._numpy.pairwise_sq_dists(flat)
        groups, n, dim = flat.shape
        stacks = np.ascontiguousarray(flat)
        out = np.empty((groups, n, n))
        self._lib.repro_pairwise_sq_dists_f64(
            self._ptr("double[]", stacks),
            groups,
            n,
            dim,
            self._out("double[]", out),
        )
        return out

    def stacked_step_gradients(
        self,
        old_rows: np.ndarray,
        new_rows: np.ndarray,
        server_lr: float,
        max_step: float,
    ) -> np.ndarray:
        if (
            old_rows.dtype != np.float64
            or new_rows.dtype != np.float64
            or old_rows.ndim != 2
        ):
            self.fallback_calls += 1
            return self._numpy.stacked_step_gradients(
                old_rows, new_rows, server_lr, max_step
            )
        old = np.ascontiguousarray(old_rows)
        new = np.ascontiguousarray(new_rows)
        out = np.empty_like(old)
        self._lib.repro_stacked_step_gradients_f64(
            self._ptr("double[]", old),
            self._ptr("double[]", new),
            float(server_lr),
            float(max_step),
            old.shape[0],
            old.shape[1],
            self._out("double[]", out),
        )
        return out

    def row_diff_norms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.dtype != np.float64 or b.dtype != np.float64:
            self.fallback_calls += 1
            return self._numpy.row_diff_norms(a, b)
        left = np.ascontiguousarray(a)
        right = np.ascontiguousarray(b)
        out = np.empty(left.shape[0])
        self._lib.repro_row_diff_norms_f64(
            self._ptr("double[]", left),
            self._ptr("double[]", right),
            left.shape[0],
            left.shape[1],
            self._out("double[]", out),
        )
        return out


def load_native_backend() -> NativeBackend:
    """Build (or reuse) the shared library and wrap it in a backend.

    Raises :class:`NativeKernelsUnavailable` when the toolchain is
    missing — never falls back silently.
    """
    ffi, lib = _dlopen(_build_shared_library())
    return NativeBackend(ffi, lib)
