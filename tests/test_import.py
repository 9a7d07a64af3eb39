"""Importing the package loads neither SciPy's integrator nor its root finder."""

import json

from conftest import run_fresh_python


def test_import_leaves_integrate_and_optimize_unloaded():
    # quadrature and front tracking import them on first use; together they
    # were about a third of the time `import fraclap` took
    script = (
        "import json, sys, fraclap; "
        "print(json.dumps([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules]))"
    )
    assert json.loads(run_fresh_python(script, "1")) == []
