"""Dense float64 matrix kernels shared by every update rule.

All matrices are 2-D float64 arrays with finite entries.  Identical
inputs produce bit-identical outputs, which the round-based training
protocol relies on to stay reproducible across transports and runs;
only the Cholesky kernels write to an argument, their work matrix.

``single_blas_thread`` pins every loaded OpenBLAS build to one thread
for the duration of an entry-point call, so results do not depend on
the caller's BLAS thread setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.linalg import cython_lapack

MAX_SEED = 2**64 - 1

# BLAS thread count inside every entry point.  The dense solves here are
# small, so extra BLAS threads only oversubscribe the cores, and a fixed
# count keeps floating-point reduction order, hence results, fixed.
BLAS_THREADS = 1

# The SPD solver's refinement stops once ||A x - b||_F <= this * ||b||_F.
SPD_RESIDUAL_TOL = 1e-13


class NotPositiveDefiniteError(Exception):
    """Cholesky factorization failed: the system matrix is not SPD."""


def check_seed(seed) -> int:
    """Validate a seed as a 64-bit unsigned integer and return it as int."""
    if isinstance(seed, (bool, float)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(seed, *key: int) -> int:
    """Derive a child seed from a base seed and a tuple of small integers.

    Used to give every randomly initialized block its own independent
    stream while keeping the whole run reproducible from one base seed.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def ensure_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 2-D array with >= 1 row/col and finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries."""
    m = ensure_matrix(m)
    return float(np.sum(m * m))


def row_norms(m) -> np.ndarray:
    """Euclidean norm of each row."""
    m = ensure_matrix(m)
    return np.sqrt(np.sum(m * m, axis=1))


def _cholesky_solve_in_place(work, b, matrix, shift=None) -> tuple[np.ndarray, np.ndarray]:
    """Solve (matrix + diag(shift)) x = b, a symmetric positive definite
    system, by Cholesky factorization and at most three steps of iterative
    refinement, which stop once the residual ||A x - b||_F is within
    SPD_RESIDUAL_TOL ||b||_F.  Nothing is checked.

    ``work`` holds that system in Fortran order and is overwritten by its
    Cholesky factor; refinement residuals come from ``matrix`` and
    ``shift``, so no second copy of the system is kept.  Returns
    ``(x, matrix @ x)``: the refinement needs the product anyway."""
    _cholesky_factor_in_place(work)
    x = _cholesky_solve(work, b)
    product = matrix @ x
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0.0:
        for _ in range(3):
            residual = b - product
            if shift is not None:
                residual -= shift[:, None] * x
            if float(np.linalg.norm(residual)) <= SPD_RESIDUAL_TOL * b_norm:
                break
            x = x + _cholesky_solve(work, residual)
            product = matrix @ x
    return x, product


# ---------------------------------------------------------------------------
# LAPACK Cholesky without the interpreter lock


def _lapack_function(name: str, signature: str, *argtypes):
    """A LAPACK routine from scipy's ``cython_lapack`` capsules as a
    ``ctypes`` function.

    scipy's f2py wrappers (``cho_factor``, ``cho_solve``) hold the
    interpreter lock while LAPACK runs; a ``ctypes`` call through the same
    function pointer releases it, so threads can factor side by side.  It
    is the library and routine scipy itself calls, so results are the
    same bit for bit.  ``signature`` is the C signature the capsule must
    name (with scipy's double typedef written as ``double``)."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule_name = get_name(capsule)
    found = re.sub(r"__pyx_t_\w*cython_lapack_d\b", "double", capsule_name.decode())
    if found != signature:
        raise ImportError(f"scipy's {name} has signature {found!r}, expected {signature!r}")
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, capsule_name))


_INT_P = ctypes.POINTER(ctypes.c_int)
_dpotrf = _lapack_function(
    "dpotrf", "void (char *, int *, double *, int *, int *)",
    ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P)
_dpotrs = _lapack_function(
    "dpotrs", "void (char *, int *, int *, double *, int *, double *, int *, int *)",
    ctypes.c_char_p, _INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P)


def _check_lapack_matrix(m, rows: int, name: str, square: bool = False):
    """LAPACK reads ``m`` through a raw pointer: insist on the layout it assumes."""
    if (m.dtype != np.float64 or m.ndim != 2 or m.shape[0] != rows
            or (square and m.shape[1] != rows) or not m.flags.f_contiguous):
        raise ValueError(f"{name} must be a Fortran-order float64 matrix with {rows} rows")


def _cholesky_factor_in_place(work) -> None:
    """Overwrite the lower triangle of the Fortran-order SPD ``work`` with
    its Cholesky factor (LAPACK ``dpotrf``; the upper triangle is left as
    it was).  Raises ``NotPositiveDefiniteError`` when it is not SPD."""
    n = len(work)
    _check_lapack_matrix(work, n, "work", square=True)
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    _dpotrf(b"L", ctypes.byref(size), work.ctypes.data, ctypes.byref(size), ctypes.byref(info))
    if info.value > 0:
        raise NotPositiveDefiniteError(
            f"{info.value}-th leading minor of the array is not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrf")


def _cholesky_solve(factor, b) -> np.ndarray:
    """Solve with a factor from ``_cholesky_factor_in_place`` (LAPACK
    ``dpotrs``).  Returns a new Fortran-order array; ``b`` is unchanged."""
    n = len(factor)
    _check_lapack_matrix(factor, n, "factor", square=True)
    x = np.array(b, dtype=np.float64, order="F")
    _check_lapack_matrix(x, n, "b")
    size, nrhs, info = ctypes.c_int(n), ctypes.c_int(x.shape[1]), ctypes.c_int(0)
    _dpotrs(b"L", ctypes.byref(size), ctypes.byref(nrhs), factor.ctypes.data,
            ctypes.byref(size), x.ctypes.data, ctypes.byref(size), ctypes.byref(info))
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrs")
    return x


def random_orthonormal(rows: int, cols: int, seed) -> np.ndarray:
    """Seeded random matrix with orthonormal columns (rows >= cols).

    QR of a standard normal draw, with column signs fixed so the result
    is a deterministic function of the seed.
    """
    if rows < cols:
        raise ValueError(f"need rows >= cols for orthonormal columns, got {rows} < {cols}")
    if cols < 1:
        raise ValueError("cols must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    gauss = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


# ---------------------------------------------------------------------------
# BLAS thread pinning


def _openblas_symbol(lib, stem: str):
    """The ``stem`` entry point of an OpenBLAS build, or None.

    numpy bundles an ILP64 build whose symbols carry a ``64_`` suffix;
    scipy bundles an LP64 one; a system OpenBLAS has no ``scipy_`` prefix.
    """
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


@dataclass(frozen=True)
class OpenBlasLibrary:
    """One OpenBLAS build loaded into this process."""

    path: str
    config: str | None
    get_num_threads: object | None = field(repr=False)
    set_num_threads: object | None = field(repr=False)

    @property
    def pinnable(self) -> bool:
        return self.get_num_threads is not None and self.set_num_threads is not None

    def threads(self) -> int | None:
        """Current thread count, or None when the symbol is missing."""
        if self.get_num_threads is None:
            return None
        return int(self.get_num_threads())

    def set_threads(self, count: int):
        self.set_num_threads(count)


@functools.cache
def openblas_libraries() -> tuple[OpenBlasLibrary, ...]:
    """Every OpenBLAS build mapped into this process, found once.

    numpy and scipy each bundle their own build, so both are listed by
    scanning ``/proc/self/maps``.  Empty on platforms without it or when
    the BLAS is not OpenBLAS.
    """
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return ()
    libraries = []
    for path in sorted(p for p in paths if p.startswith("/") and ".so" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get_threads = _openblas_symbol(lib, "get_num_threads")
        set_threads = _openblas_symbol(lib, "set_num_threads")
        get_config = _openblas_symbol(lib, "get_config")
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
        config = None
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            config = get_config().decode("utf-8", "replace").strip()
        libraries.append(OpenBlasLibrary(path, config, get_threads, set_threads))
    return tuple(libraries)


class _PinState:
    """Process-wide pin bookkeeping: the outermost scope saves and pins,
    the last one to leave restores."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[tuple[OpenBlasLibrary, int]] = []


_PIN = _PinState()


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on ``BLAS_THREADS`` threads.

    Usable as ``with single_blas_thread():`` or as a decorator.  The
    thread count is process-global, so nested and concurrent scopes
    share one pin: the first to enter saves each library's count and
    sets it, the last to leave restores it, also on an exception.  A
    no-op when no OpenBLAS is loaded.
    """
    with _PIN.lock:
        if _PIN.depth == 0:
            libraries = [lib for lib in openblas_libraries() if lib.pinnable]
            _PIN.saved = [(lib, lib.threads()) for lib in libraries]
            for lib in libraries:
                lib.set_threads(BLAS_THREADS)
        _PIN.depth += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.depth -= 1
            if _PIN.depth == 0:
                for lib, count in _PIN.saved:
                    lib.set_threads(count)
                _PIN.saved = []


def numerics_report() -> dict:
    """numpy and scipy versions plus each OpenBLAS build with its current
    thread count (None when the build exposes no thread symbols).  An
    empty ``openblas`` list means nothing could be pinned."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": [{"library": os.path.basename(lib.path), "config": lib.config,
                      "threads": lib.threads()}
                     for lib in openblas_libraries()],
    }
