"""Importing the package loads numpy and no SciPy module.

``scipy.fft`` (which loads ``scipy.special``) was about two thirds of the
time ``import fraclap`` took, and ``scipy.integrate`` with
``scipy.optimize`` most of the rest.  Each is imported where it is first
used: ``spectral.transform`` loads ``scipy.fft``, the mode-1 and Gaussian
closed forms ``scipy.special``, quadrature ``scipy.integrate`` and front
tracking ``scipy.optimize``.  The block build, the single-column symbol
and the cache need numpy alone, and the CLI imports SciPy only when it
writes a manifest.  ``conftest`` imports ``scipy.special``, so only a fresh
interpreter sees these imports happen.

One fresh interpreter runs four stages in turn and records, after each,
which SciPy modules are loaded: ``import fraclap``; a build, cache round
trip and k = 2 column; ``import fraclap.cli``; then the first use of each
SciPy-backed function, whose values must equal this process's.  Each test
checks its own stage, so each stage also checks that the ones before it
loaded nothing.
"""

import json

import numpy as np
import pytest

from conftest import run_fresh_python
from fraclap import closed_form_gaussian, closed_form_mode1, transform

_STAGES = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

record = dict()
import fraclap
record["import"] = scipy_loaded()

import numpy as np
from fraclap import GridConfig, build_matrix, load_matrix, save_matrix, symbol_samples
matrix = build_matrix(GridConfig(16, 1.0), 0.7, 40)
save_matrix(matrix, {cache!r})
loaded = load_matrix({cache!r}, expect_n=16, expect_alpha=0.7, expect_l_lim=40)
symbol_samples(0.7, 1024, 500)
record["build"] = dict(round_trip=bool(np.array_equal(loaded.entries, matrix.entries)),
                       loaded=scipy_loaded())

import fraclap.cli
record["cli"] = scipy_loaded()

from fraclap import closed_form_gaussian, closed_form_mode1, transform
u = np.cos(np.arange(8.0)) + 0.25
x = np.linspace(-3.0, 3.0, 7)
s = np.linspace(0.2, 2.9, 5)
cold = scipy_loaded()
values = [transform(u, "even"), transform(u, "odd"), closed_form_gaussian(x, 1.3)]
mode1 = closed_form_mode1(s, 0.6)
values += [mode1.real, mode1.imag]
record["first_use"] = dict(cold=cold, values=[[v.hex() for v in a.tolist()] for a in values])
print(json.dumps(record))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory) -> dict:
    cache = str(tmp_path_factory.mktemp("import") / "m.bin")
    return json.loads(run_fresh_python(_STAGES.format(cache=cache), "1"))


def test_import_loads_no_scipy_module(stages):
    assert stages["import"] == []


def test_cli_import_leaves_fft_and_special_unloaded(stages):
    # the CLI imports scipy inside the manifest writer, for its version
    assert stages["cli"] == []


def test_build_cache_and_single_column_need_only_numpy(stages):
    assert stages["build"] == {"round_trip": True, "loaded": []}


def test_first_use_imports_give_the_same_values(stages):
    # each call below is the first use of its SciPy module in the fresh process
    u = np.cos(np.arange(8.0)) + 0.25
    x = np.linspace(-3.0, 3.0, 7)
    s = np.linspace(0.2, 2.9, 5)
    mode1 = closed_form_mode1(s, 0.6)
    want = [transform(u, "even"), transform(u, "odd"), closed_form_gaussian(x, 1.3),
            mode1.real, mode1.imag]
    assert stages["first_use"]["cold"] == []
    assert stages["first_use"]["values"] == [[v.hex() for v in a.tolist()] for a in want]
