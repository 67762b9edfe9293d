"""The scipy kernels of ``liesegang._scipy`` are scipy's own objects, on either path.

Each case runs in a fresh interpreter, since the point is which modules an
import loads and in what order.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import liesegang as lg

SRC = Path(__file__).resolve().parents[1] / "src"
ARRAYS = ("times", "w", "accum", "ignition_time", "ignition_u_right", "ignition_u_back")
LENGTHS = (2112, 1051, 17)  # the default grid's tail length, an odd one, a short one


def run_python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return done.stdout


def coarse_record() -> lg.SolutionRecord:
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=4.0, t_max=0.26)
    return lg.run(params, grid, lg.RelayKind.sharp(), snapshot_stride=7)


# Which public names the two paths bind, and whether they agree with scipy.fft.
CHECKS = f"""
    import numpy as np
    import scipy.fft, scipy.linalg.lapack, scipy.special
    assert _scipy.erfc is scipy.special.erfc
    for name in ("dgtsv", "dgttrf", "dgttrs"):
        assert getattr(_scipy.lapack, name) is getattr(scipy.linalg.lapack, name), name
    rng = np.random.default_rng(5)
    for n in {LENGTHS!r}:
        x = rng.standard_normal(n)
        for kind in (2, 3):
            assert np.array_equal(_scipy.dst(x, kind), scipy.fft.dst(x, type=kind)), (n, kind)
        assert _scipy.prev_fast_len(n) == scipy.fft.prev_fast_len(n), n
"""


@pytest.mark.parametrize("first", ["liesegang", "scipy"])
def test_kernels_are_scipys_objects_in_either_import_order(first):
    imports = ["from liesegang import _scipy",
               "import scipy.fft, scipy.linalg.lapack, scipy.special"]
    if first == "scipy":
        imports.reverse()
    out = run_python("\n".join(imports) + textwrap.dedent(CHECKS) + """
from scipy.fft._pocketfft import pypocketfft
from scipy.linalg import _flapack
from scipy.special import _special_ufuncs
assert _scipy._pocketfft is pypocketfft and _scipy.lapack is _flapack
assert _scipy.erfc is _special_ufuncs.erfc
print("ok")
""")
    assert out == "ok\n"


# Made to fail before liesegang is imported: no extension file is found, or
# none of scipy's loads from a file location.
BREAKS = {
    "missing file": "importlib.machinery.EXTENSION_SUFFIXES.clear()",
    "load fails": """
        from_file = importlib.util.spec_from_file_location

        def refuse(name, *args, **kwargs):
            if name.startswith("scipy."):
                raise ImportError(name)
            return from_file(name, *args, **kwargs)

        importlib.util.spec_from_file_location = refuse
    """,
}


@pytest.mark.parametrize("broken", BREAKS)
def test_fallback_binds_the_public_names_and_runs_the_same(tmp_path, broken):
    out = run_python(f"""
import importlib.machinery, importlib.util, sys
{textwrap.dedent(BREAKS[broken])}
from liesegang import _scipy
assert "scipy.special" in sys.modules and "scipy.linalg" in sys.modules
assert not hasattr(_scipy, "_pocketfft")
{textwrap.dedent(CHECKS)}
assert _scipy.lapack is scipy.linalg.lapack
import numpy as np
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_scipy_kernels import ARRAYS, coarse_record
record = coarse_record()
np.savez({str(tmp_path / "fallback.npz")!r}, **{{k: getattr(record, k) for k in ARRAYS}})
print("ok")
""")
    assert out == "ok\n"
    record = coarse_record()
    with np.load(tmp_path / "fallback.npz") as fallback:
        for name in ARRAYS:
            assert np.array_equal(fallback[name], getattr(record, name), equal_nan=True), name
