"""Dense float64 matrix kernels shared by every update rule.

All matrices are 2-D float64 arrays with finite entries.  Identical
inputs produce bit-identical outputs, which the round-based training
protocol relies on to stay reproducible across transports and runs;
only the Cholesky kernels write to an argument: the Gram they are
handed, restored bit for bit.

``single_blas_thread`` pins every loaded OpenBLAS build to one thread
for the duration of an entry-point call, so results do not depend on
the caller's BLAS thread setting.  The scope also owns the one helper
thread that claims independent tasks beside the calling thread (see
``_run_tasks``): the participant refits of a large round, the tiles of a
wide Cholesky (see ``_cholesky_factor_in_place``) and the two blocks of
a wide Gram matrix (see ``optimizer.gram_matrix``).  It runs only when
at least two CPUs are usable, and from the outermost scope's entry to
its exit.  A factor depends only on its order and ``CHOLESKY_TILE``, and
a Gram only on its shape, never on which thread computed a tile or a
block or how many CPUs there are.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import numbers
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

MAX_SEED = 2**64 - 1

# BLAS thread count inside every entry point.  A fixed count keeps the
# floating-point reduction order, hence results, fixed; OpenBLAS's own
# threads would change a factor's bits with the thread count.  Wide
# blocks use a second CPU through the tiled Cholesky and the two-block
# Gram instead.
BLAS_THREADS = 1

# Edge of the fixed tile grid of the Cholesky factor: a factor of order
# up to this is one LAPACK call, a wider one is built tile by tile, and
# the tiles of one step are shared between threads.  On 2 cores a d=1984
# factor took 0.101 s as one call and 0.060 s in 256-wide tiles.  A Gram
# up to this width is one numpy product (see ``optimizer.gram_matrix``).
CHOLESKY_TILE = 256

# CPU quota of the process's own cgroup, as a container sees it: cgroup v2
# ``cpu.max`` ("<quota|max> <period>"), else the cgroup v1 quota and
# period (quota -1 when there is none).
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us")

# The SPD solver's refinement stops once ||A x - b||_F <= this * ||b||_F.
SPD_RESIDUAL_TOL = 1e-13


class NotPositiveDefiniteError(Exception):
    """Cholesky factorization failed: the system matrix is not SPD."""


def check_seed(seed) -> int:
    """Validate a seed as a 64-bit unsigned integer and return it as int:
    ``ValueError`` unless it is an integer, not a bool, in [0, 2**64), so
    a float, a string or a flag is never truncated into a seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
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


def _cholesky_solve_in_place(system, b, shift) -> tuple[np.ndarray, np.ndarray]:
    """Solve (G + diag(shift)) x = b, a symmetric positive definite
    system, by Cholesky factorization and at most three steps of iterative
    refinement, which stop once the residual ||A x - b||_F is within
    SPD_RESIDUAL_TOL ||b||_F.  Only the layout is checked.

    ``system`` is the Fortran-order view ``G.T`` of an exactly symmetric
    G, and the only d x d array the solve uses: each factorization adds
    ``shift`` to its diagonal and overwrites its lower triangle with the
    factor, and once the factor has been solved with, or has raised,
    ``_restore_lower`` copies the lower triangle back from the untouched
    upper one and the diagonal from a saved copy.  So G comes back bit for
    bit, and a refinement step re-factors the same input into the same
    factor.  Returns ``(x, G x)``, the product refinement needs anyway,
    computed as ``(x.T @ system.T).T`` = (x^T G)^T, which is G x because G
    is exactly symmetric: with G in C order, as the caller holds it,
    OpenBLAS forms the product with a thin x about twice as fast in that
    operand order as ``G @ x``."""
    n = len(system)
    _check_lapack_matrix(system, n, "system", square=True)
    diagonal = system.diagonal().copy()
    gram = system.T

    def solve(rhs):
        try:
            # the diagonal as a strided view of the (contiguous) buffer
            system.reshape(-1, order="F")[::n + 1] += shift
            _cholesky_factor_in_place(system)
            return _cholesky_solve(system, rhs)
        finally:
            _restore_lower(system, diagonal)

    x = solve(b)
    product = (x.T @ gram).T
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0.0:
        for _ in range(3):
            residual = b - product - shift[:, None] * x
            if float(np.linalg.norm(residual)) <= SPD_RESIDUAL_TOL * b_norm:
                break
            x = x + solve(residual)
            product = (x.T @ gram).T
    return x, product


def _restore_lower(system, diagonal) -> None:
    """Copy the strict upper triangle of the Fortran-order square
    ``system`` onto its strict lower one and write ``diagonal`` back on
    its diagonal.  Each ``CHOLESKY_TILE``-wide column panel is one task of
    ``_run_tasks``, and restores its two halves in turn: a masked
    transposed copy of the half's diagonal block, then one transposed copy
    of the columns below that block from the rows right of it.  Tasks
    write disjoint entries and read only the upper triangle.  numpy copies
    a source whose memory range overlaps its destination's first; only the
    diagonal blocks' ranges do, so a task's temporary is a quarter tile."""
    n = len(system)

    def restore_columns(start, end):
        block = system[start:end, start:end]
        np.copyto(block, block.T, where=np.tri(end - start, k=-1, dtype=bool))
        system[end:, start:end] = system[start:end, end:].T

    def restore_panel(col):
        end = min(col + CHOLESKY_TILE, n)
        restore_columns(col, (col + end) // 2)
        restore_columns((col + end) // 2, end)

    _run_tasks([functools.partial(restore_panel, col) for col in range(0, n, CHOLESKY_TILE)])
    system.reshape(-1, order="F")[::n + 1] = diagonal


# ---------------------------------------------------------------------------
# Tiled LAPACK Cholesky without the interpreter lock


def _symbol_names(stem: str, ilp64: str, lp64: str):
    """The names an OpenBLAS build may export ``stem`` under, ILP64
    (64-bit integer) ones first, each paired with whether it is ILP64:
    ``stem`` plus ``ilp64`` or ``lp64``, with or without a ``scipy_``
    prefix.  numpy bundles an ILP64 build and scipy an LP64 one, both
    prefixed; a system OpenBLAS is not."""
    return [(f"{prefix}{stem}{suffix}", wide)
            for suffix, wide in ((ilp64, True), (lp64, False)) for prefix in ("scipy_", "")]


def _lapack_function(routine: str, *argtypes):
    """numpy's own LAPACK or BLAS ``routine`` as a ``ctypes`` function
    taking ``argtypes``; ``ImportError`` unless numpy's library has it
    with the integer width ``_INT`` of its ``dpotrf``.

    ``dlsym`` on the handle of numpy's ``_umath_linalg`` extension
    searches the extension and the libraries it links: the OpenBLAS
    behind ``np.linalg.cholesky``, so a one-call factor is bit-identical
    to it.  A ``ctypes`` call releases the interpreter lock while the
    routine runs, so threads can factor side by side."""
    for name, ilp64 in _symbol_names(routine, "_64_", "_"):
        function = getattr(_NUMPY_LAPACK, name, None)
        if function is not None and ilp64 == _ILP64:
            function.argtypes, function.restype = argtypes, None
            return function
    raise ImportError(f"numpy's LAPACK has no {routine} with {8 * ctypes.sizeof(_INT)}-bit "
                      "integers")


_NUMPY_LAPACK = ctypes.CDLL(_umath_linalg.__file__)
_ILP64 = any(hasattr(_NUMPY_LAPACK, name)
             for name, ilp64 in _symbol_names("dpotrf", "_64_", "_") if ilp64)
_INT = ctypes.c_int64 if _ILP64 else ctypes.c_int
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_MATRIX = ctypes.c_void_p
_dpotrf = _lapack_function("dpotrf", _CHAR, _INT_P, _MATRIX, _INT_P, _INT_P)
_dpotrs = _lapack_function(
    "dpotrs", _CHAR, _INT_P, _INT_P, _MATRIX, _INT_P, _MATRIX, _INT_P, _INT_P)
_dtrsm = _lapack_function(
    "dtrsm", _CHAR, _CHAR, _CHAR, _CHAR, _INT_P, _INT_P, _DOUBLE_P, _MATRIX, _INT_P, _MATRIX,
    _INT_P)
_dsyrk = _lapack_function(
    "dsyrk", _CHAR, _CHAR, _INT_P, _INT_P, _DOUBLE_P, _MATRIX, _INT_P, _DOUBLE_P, _MATRIX, _INT_P)
_dgemm = _lapack_function(
    "dgemm", _CHAR, _CHAR, _INT_P, _INT_P, _INT_P, _DOUBLE_P, _MATRIX, _INT_P, _MATRIX, _INT_P,
    _DOUBLE_P, _MATRIX, _INT_P)
_dpocon_routine = _lapack_function(
    "dpocon", _CHAR, _INT_P, _MATRIX, _INT_P, _DOUBLE_P, _DOUBLE_P, _MATRIX, _MATRIX, _INT_P)
_ONE = ctypes.byref(ctypes.c_double(1.0))
_MINUS_ONE = ctypes.byref(ctypes.c_double(-1.0))


def _check_lapack_matrix(m, rows: int, name: str, square: bool = False):
    """LAPACK reads ``m`` through a raw pointer: insist on the layout it assumes."""
    if (m.dtype != np.float64 or m.ndim != 2 or m.shape[0] != rows
            or (square and m.shape[1] != rows) or not m.flags.f_contiguous):
        raise ValueError(f"{name} must be a Fortran-order float64 matrix with {rows} rows")


def _cholesky_factor_in_place(system) -> None:
    """Overwrite the lower triangle of the Fortran-order SPD ``system`` with
    its Cholesky factor (the upper triangle is left as it was).  Raises
    ``NotPositiveDefiniteError`` when it is not SPD.

    A right-looking Cholesky over the fixed grid of ``CHOLESKY_TILE``-wide
    tiles: step k factors diagonal tile k (``dpotrf``), solves the tiles
    below it against that factor (one ``dtrsm`` each), then updates each
    trailing column panel (``dsyrk`` on its diagonal tile, one ``dgemm``
    on the tiles below).  The tasks of a phase write disjoint tiles, so
    the calling thread and the scope's helper thread (see
    ``single_blas_thread``) claim them in any order; each tile still gets
    the same calls on the same operands, so the factor depends only on
    the order and ``CHOLESKY_TILE``.  An order up to ``CHOLESKY_TILE`` is
    one ``dpotrf`` call."""
    n = len(system)
    _check_lapack_matrix(system, n, "system", square=True)
    lead, tile, base = ctypes.byref(_INT(n)), CHOLESKY_TILE, system.ctypes.data

    def at(row, col):
        return base + system.itemsize * (row + col * n)

    def width(start):
        return ctypes.byref(_INT(min(tile, n - start)))

    def solve_tile(row, k):
        _dtrsm(b"R", b"L", b"T", b"N", width(row), width(k), _ONE, at(k, k), lead,
               at(row, k), lead)

    def update_panel(col, k):
        _dsyrk(b"L", b"N", width(col), width(k), _MINUS_ONE, at(col, k), lead, _ONE,
               at(col, col), lead)
        if col + tile < n:
            _dgemm(b"N", b"T", ctypes.byref(_INT(n - col - tile)), width(col), width(k),
                   _MINUS_ONE, at(col + tile, k), lead, at(col, k), lead, _ONE,
                   at(col + tile, col), lead)

    for k in range(0, n, tile):
        info = _INT(0)
        _dpotrf(b"L", width(k), at(k, k), lead, ctypes.byref(info))
        if info.value > 0:
            raise NotPositiveDefiniteError(
                f"{k + info.value}-th leading minor of the array is not positive definite")
        if info.value < 0:
            raise ValueError(f"illegal value in argument {-info.value} of dpotrf")
        later = range(k + tile, n, tile)
        _run_tasks([functools.partial(solve_tile, row, k) for row in later])
        _run_tasks([functools.partial(update_panel, col, k) for col in later])


def _cholesky_solve(factor, b) -> np.ndarray:
    """Solve with a factor from ``_cholesky_factor_in_place`` (LAPACK
    ``dpotrs``).  Returns a new Fortran-order array; ``b`` is unchanged."""
    n = len(factor)
    _check_lapack_matrix(factor, n, "factor", square=True)
    x = np.array(b, dtype=np.float64, order="F")
    _check_lapack_matrix(x, n, "b")
    size, nrhs, info = _INT(n), _INT(x.shape[1]), _INT(0)
    _dpotrs(b"L", ctypes.byref(size), ctypes.byref(nrhs), factor.ctypes.data,
            ctypes.byref(size), x.ctypes.data, ctypes.byref(size), ctypes.byref(info))
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpotrs")
    return x


def _dpocon(factor, anorm: float) -> tuple[float, int]:
    """LAPACK ``dpocon`` on a factor from ``_cholesky_factor_in_place``:
    the estimated reciprocal 1-norm condition number of the matrix whose
    1-norm is ``anorm``, and LAPACK's ``info``."""
    n = len(factor)
    _check_lapack_matrix(factor, n, "factor", square=True)
    size, rcond, info = _INT(n), ctypes.c_double(0.0), _INT(0)
    work, iwork = np.empty(3 * n), np.empty(n, dtype=_INT)
    _dpocon_routine(b"L", ctypes.byref(size), factor.ctypes.data, ctypes.byref(size),
                    ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(rcond), work.ctypes.data,
                    iwork.ctypes.data, ctypes.byref(info))
    return rcond.value, info.value


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
# Usable CPUs and the tile helper thread


def _cpu_quota() -> int | None:
    """Whole CPUs the cgroup CPU quota allows (rounded up), or None when
    there is no quota or it cannot be read."""
    try:
        try:
            quota, period = Path(_CPU_MAX).read_text().split()
        except FileNotFoundError:
            quota, period = (Path(name).read_text().strip() for name in _CFS_QUOTA)
        if quota in ("max", "-1"):
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its CPU affinity, capped by the
    cgroup CPU quota, which affinity does not show."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _cpu_quota() or cpus)


class _Batch:
    """Tasks that any thread may claim, each exactly once."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.lock = threading.Lock()
        self.claimed = 0
        self.unfinished = len(tasks)
        self.finished = threading.Event()
        self.error: Exception | None = None

    def work(self):
        """Run claimed tasks until none is left to claim."""
        while True:
            with self.lock:
                index = self.claimed
                self.claimed += 1
            if index >= len(self.tasks):
                return
            try:
                self.tasks[index]()
            except Exception as exc:  # raised again by the thread that posted the batch
                self.error = exc
            finally:
                with self.lock:
                    self.unfinished -= 1
                    if not self.unfinished:
                        self.finished.set()


class _TileHelper:
    """A thread that claims the tasks of posted batches (participant
    refits, Cholesky tiles, Gram blocks) beside the threads that post them.

    There is one helper on any host: only one and two threads per batch
    were measured, on 2 cores, so wider hosts keep to two until more are.
    """

    def __init__(self):
        self.batches: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="mmvfl-tiles", daemon=True)
        self.thread.start()

    def _serve(self):
        while (batch := self.batches.get()) is not None:
            batch.work()

    def close(self):
        self.batches.put(None)
        self.thread.join()


def _run_tasks(tasks) -> None:
    """Run independent tasks, sharing them with the scope's helper thread
    when there is more than one, and raise a task's error once all have
    run.  The caller claims tasks too, so it never waits for a helper
    busy elsewhere, only for a task the helper has already claimed.  A
    task may post a batch of its own (a refit's wide factor does): the
    thread running the task claims that batch's tasks like any poster,
    so nested batches cannot deadlock."""
    if len(tasks) > 1 and (helper := _PIN.helper) is not None:
        batch = _Batch(tasks)
        helper.batches.put(batch)
        batch.work()
        batch.finished.wait()
        if batch.error is not None:
            raise batch.error
        return
    for task in tasks:
        task()


# ---------------------------------------------------------------------------
# BLAS thread pinning


def _openblas_symbol(lib, stem: str):
    """The ``openblas_{stem}`` entry point of an OpenBLAS build, or None."""
    for name, _ in _symbol_names(f"openblas_{stem}", "64_", ""):
        function = getattr(lib, name, None)
        if function is not None:
            return function
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

    The program calls only numpy's build, but a caller may load another
    (scipy bundles its own), so every one is listed by scanning
    ``/proc/self/maps``.  Empty on platforms without it or when
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
    """Process-wide scope bookkeeping: the outermost scope saves and pins
    the BLAS thread counts and starts the tile helper; the last one to
    leave restores the counts and joins the helper."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[tuple[OpenBlasLibrary, int]] = []
        self.helper: _TileHelper | None = None


_PIN = _PinState()


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on ``BLAS_THREADS`` threads.

    Usable as ``with single_blas_thread():`` or as a decorator.  The
    thread count is process-global, so nested and concurrent scopes
    share one pin: the first to enter saves each library's count and
    sets it, the last to leave restores it, also on an exception.  A
    no-op when no OpenBLAS is loaded.

    The scopes also share the helper thread of ``_run_tasks``: the first
    to enter starts it when ``_usable_cpus()`` is at least 2, and the
    last to leave stops and joins it, so no thread outlives the outermost
    scope.  It starts before the threads the body starts (federated
    parties): glibc hands an exiting thread's malloc arena to the next
    new thread, so a helper started on the first wide factor took the
    arena of a thread the previous run had ended and left both arenas
    grown (C7 peak RSS 198 -> 208 MB over 3 fits).
    """
    with _PIN.lock:
        if _PIN.depth == 0:
            libraries = [lib for lib in openblas_libraries() if lib.pinnable]
            _PIN.saved = [(lib, lib.threads()) for lib in libraries]
            for lib in libraries:
                lib.set_threads(BLAS_THREADS)
            if _usable_cpus() >= 2:
                _PIN.helper = _TileHelper()
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
                if _PIN.helper is not None:
                    _PIN.helper.close()
                    _PIN.helper = None


def numerics_report() -> dict:
    """The numpy version plus each OpenBLAS build with its current thread
    count (None when the build exposes no thread symbols).  An empty
    ``openblas`` list means nothing could be pinned."""
    return {
        "numpy": np.__version__,
        "openblas": [{"library": os.path.basename(lib.path), "config": lib.config,
                      "threads": lib.threads()}
                     for lib in openblas_libraries()],
    }
