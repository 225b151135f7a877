"""The sequential recurrences of ``loops.c``, compiled: the gap scan, the guarded walk and the decreasing-fee DP.
Nothing is built at import: the first call builds the library with ``cc`` into ``$XDG_CACHE_HOME/planswitch``
(``~/.cache/planswitch`` if unset) beside the command and source it came from, which later processes compare before
loading it. A cache that cannot be written gets a private build; a missing or failing ``cc``, a CompilerError."""

import ctypes
import os
import zlib

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "loops.c")
COMMAND = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-")  # the source on stdin
# Each function's arguments: an array's dtype (passed as a pointer to its data), or a number's C type.
_F, _I, _B, _S, _N = (*map(np.dtype, ("f8", "i8", "?", "i1")), ctypes.c_int64)
_SIGNATURES = {"scan": (_F, _N, _F, _F, _N, _N, _F), "walk": (_B, _B, _N, _N, _N, _N, _S, _I),
               "dp": (_F, _F, _N, _F, _I, _B, ctypes.c_double, _N, _N, _F, _I, _S, _I)}
_lib = None  # the library, loaded by the first call


class CompilerError(OSError):
    """The compiled loops could not be built: ``cc`` is missing or failed."""


def _load() -> ctypes.CDLL:
    # The cached library if the key stored beside it (the command, a newline, the source) is this one's, else one
    # built in a temporary directory, loaded, then renamed into the cache, the library before its key.
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = " ".join(COMMAND).encode() + b"\n" + source
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "planswitch")
    base = os.path.join(cache, f"loops-{zlib.crc32(key):08x}")
    try:
        with open(base + ".key", "rb") as fh:
            if fh.read() == key:
                return ctypes.CDLL(base + ".so")
    except OSError:  # not built yet, or not loadable: build it again
        pass
    import subprocess
    import tempfile

    try:
        os.makedirs(cache, exist_ok=True)
        build = tempfile.TemporaryDirectory(dir=cache)
    except OSError:  # the cache cannot be written: build in a private directory and keep nothing
        build, base = tempfile.TemporaryDirectory(), None
    with build as tmp:
        so = os.path.join(tmp, "loops.so")
        try:
            subprocess.run([*COMMAND, "-o", so], input=source, capture_output=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:  # no cc, or cc failed: name its first complaint
            said = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip().splitlines() or [exc]
            raise CompilerError(f"planswitch builds its loops with cc on first use: {said[0]}") from None
        lib = ctypes.CDLL(so)
        if base:
            with open(os.path.join(tmp, "key"), "wb") as fh:
                fh.write(key)
            os.replace(so, base + ".so")
            os.replace(os.path.join(tmp, "key"), base + ".key")
        return lib


def call(name: str, *args) -> None:
    """Runs ``loops.c``'s function ``name``: an array argument, which must be C-contiguous and of the dtype
    ``_SIGNATURES`` gives, as a pointer to its data, and a number as an int64 or a double."""
    global _lib
    if _lib is None:
        lib = _load()
        for fn, kinds in _SIGNATURES.items():
            getattr(lib, fn).argtypes = [ctypes.c_void_p if isinstance(k, np.dtype) else k for k in kinds]
            getattr(lib, fn).restype = None
        _lib = lib
    for i, (a, kind) in enumerate(zip(args, _SIGNATURES[name])):
        if isinstance(kind, np.dtype) and not (isinstance(a, np.ndarray) and a.dtype == kind and a.flags.c_contiguous):
            raise TypeError(f"{name}: argument {i} must be a C-contiguous {kind} array")
    getattr(_lib, name)(*(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args))
