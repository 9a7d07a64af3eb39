"""Importing the package loads numpy and no SciPy module.

``scipy.fft`` (which loads ``scipy.special``) was about two thirds of the
time ``import fraclap`` took, and ``scipy.integrate`` with
``scipy.optimize`` most of the rest.  Each is imported where it is first
used: ``spectral.transform`` loads ``scipy.fft``, the mode-1 and Gaussian
closed forms ``scipy.special``, quadrature ``scipy.integrate`` and front
tracking ``scipy.optimize``.  The block build, the single-column symbol
and the cache need numpy alone.  ``conftest`` imports ``scipy.special``, so
only a fresh interpreter sees these imports happen.
"""

import json

import numpy as np

from conftest import run_fresh_python
from fraclap import closed_form_gaussian, closed_form_mode1, transform

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy_module():
    script = f"import json, sys, fraclap; print(json.dumps({SCIPY_LOADED}))"
    assert json.loads(run_fresh_python(script, "1")) == []


def test_cli_import_leaves_fft_and_special_unloaded():
    # the CLI imports scipy itself, for the version in its manifests
    script = (
        "import json, sys, fraclap.cli; "
        "print(json.dumps([m for m in ('scipy.fft', 'scipy.special') if m in sys.modules]))"
    )
    assert json.loads(run_fresh_python(script, "1")) == []


def test_build_cache_and_single_column_need_only_numpy(tmp_path):
    script = f"""
import json, sys
import numpy as np
from fraclap import GridConfig, build_matrix, load_matrix, save_matrix, symbol_samples
matrix = build_matrix(GridConfig(16, 1.0), 0.7, 40)
save_matrix(matrix, {str(tmp_path / "m.bin")!r})
loaded = load_matrix({str(tmp_path / "m.bin")!r}, expect_n=16, expect_alpha=0.7, expect_l_lim=40)
assert np.array_equal(loaded.entries, matrix.entries)
symbol_samples(0.7, 1024, 500)
print(json.dumps({SCIPY_LOADED}))
"""
    assert json.loads(run_fresh_python(script, "1")) == []


def test_first_use_imports_give_the_same_values():
    # each call below is the first use of its SciPy module in the fresh process
    u = np.cos(np.arange(8.0)) + 0.25
    x = np.linspace(-3.0, 3.0, 7)
    s = np.linspace(0.2, 2.9, 5)
    script = f"""
import json, sys
import numpy as np
from fraclap import closed_form_gaussian, closed_form_mode1, transform
u = np.cos(np.arange(8.0)) + 0.25
x = np.linspace(-3.0, 3.0, 7)
s = np.linspace(0.2, 2.9, 5)
cold = {SCIPY_LOADED}
values = [transform(u, "even"), transform(u, "odd"), closed_form_gaussian(x, 1.3)]
mode1 = closed_form_mode1(s, 0.6)
values += [mode1.real, mode1.imag]
print(json.dumps({{"cold": cold, "values": [[v.hex() for v in a.tolist()] for a in values]}}))
"""
    got = json.loads(run_fresh_python(script, "1"))
    mode1 = closed_form_mode1(s, 0.6)
    want = [transform(u, "even"), transform(u, "odd"), closed_form_gaussian(x, 1.3),
            mode1.real, mode1.imag]
    assert got["cold"] == []
    assert got["values"] == [[v.hex() for v in a.tolist()] for a in want]
