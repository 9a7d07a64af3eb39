"""Importing the package loads numpy and no SciPy module, and neither does the Fisher path.

``scipy.fft`` (which loads ``scipy.special``) was about two thirds of the
time ``import fraclap`` took, and ``scipy.integrate`` with
``scipy.optimize`` most of the rest.  Each is imported where it is first
used: the mode-1 and Gaussian closed forms load ``scipy.special`` and
quadrature ``scipy.integrate``.  The block build, the single-column
symbol, the cache, the transforms and the whole Fisher path (front
tracking included) need numpy alone, and the CLI imports SciPy only when
it writes a manifest.  ``conftest`` imports ``scipy.special``, so only a
fresh interpreter sees these imports happen.

One fresh interpreter runs five stages in turn and records, after each,
which SciPy modules are loaded: ``import fraclap``; a build, cache round
trip and k = 2 column; ``import fraclap.cli``; both transforms,
a ``front_position`` finder and a short ``run_simulation``; then the first use of
each SciPy-backed function.  The values of the last two stages must equal
this process's bit for bit.  Each test checks its own stage, so each stage
also checks that the ones before it loaded nothing.
"""

import json

import numpy as np
import pytest

from conftest import run_fresh_python
from fraclap import (
    FisherRun,
    GridConfig,
    build_matrix,
    closed_form_gaussian,
    closed_form_mode1,
    front_position,
    run_simulation,
    transform,
)

_STAGES = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

def hexes(arrays):
    return [[v.hex() for v in a.tolist()] for a in arrays]

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

from fraclap import FisherRun, front_position, run_simulation, transform
u = np.cos(np.arange(8.0)) + 0.25
cfg = GridConfig(16, 50.0)
run = run_simulation(FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=0.1, l_lim=20,
                               sample_stride=2, fit_window=(0.0, 0.1)),
                     build_matrix(cfg, 1.2, 20))
values = [transform(u, "even"), transform(u, "odd"), run.trace.x05,
          np.array([front_position(cfg)(run.final_samples)[0]])]
record["fisher"] = dict(loaded=scipy_loaded(), values=hexes(values))

from fraclap import closed_form_gaussian, closed_form_mode1
x = np.linspace(-3.0, 3.0, 7)
s = np.linspace(0.2, 2.9, 5)
mode1 = closed_form_mode1(s, 0.6)
record["first_use"] = hexes([closed_form_gaussian(x, 1.3), mode1.real, mode1.imag])
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


def test_transforms_and_fisher_path_load_no_scipy_module(stages):
    # and give this process's values bit for bit
    u = np.cos(np.arange(8.0)) + 0.25
    cfg = GridConfig(16, 50.0)
    run = run_simulation(FisherRun(cfg=cfg, alpha=1.2, dt=0.01, t_final=0.1, l_lim=20,
                                   sample_stride=2, fit_window=(0.0, 0.1)),
                         build_matrix(cfg, 1.2, 20))
    want = [transform(u, "even"), transform(u, "odd"), run.trace.x05,
            np.array([front_position(cfg)(run.final_samples)[0]])]
    assert stages["fisher"] == {"loaded": [], "values": _hexes(want)}


def test_first_use_imports_give_the_same_values(stages):
    # each call below is the first use of scipy.special in the fresh process
    x = np.linspace(-3.0, 3.0, 7)
    s = np.linspace(0.2, 2.9, 5)
    mode1 = closed_form_mode1(s, 0.6)
    assert stages["first_use"] == _hexes([closed_form_gaussian(x, 1.3), mode1.real, mode1.imag])


def _hexes(arrays) -> list:
    return [[v.hex() for v in a.tolist()] for a in arrays]
