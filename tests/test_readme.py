"""README's python blocks run as written, in one namespace, and give the figures their comments quote."""

import re
from pathlib import Path

import numpy as np
import pytest

import fraclap as fl

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def readme() -> dict:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_gaussian_node_error(readme):
    # the comment quotes ~3e-15 at L = 4.6
    assert np.max(np.abs(readme["lap"] - readme["exact"])) <= 1e-14


def test_value_between_nodes(readme):
    # the comment quotes ~4e-9 at x = 0.25
    between = fl.evaluate(readme["coeffs"], "even", readme["cfg"], 0.25)
    assert abs(between - fl.closed_form_gaussian(0.25, 0.5)) <= 1e-8


def test_bound_finder_gives_the_last_traced_front(readme):
    assert readme["x05"] == readme["result"].trace.x05[-1]


def test_stepper_steps_node_values(readme):
    # ten steps from the Gaussian on the first block's grid: n finite node
    # values, kept in [0, 1] as the monostable equation keeps them
    u = readme["u"]
    assert u.shape == (readme["cfg"].n,)
    assert np.all(np.isfinite(u)) and np.max(np.abs(u)) <= 1.0
