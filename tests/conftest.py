"""Shared pytest hooks and fixtures.

The acceptance module records one (number, line) tuple per criterion;
this hook prints them as a dedicated section of the terminal summary so
every run ends with an explicit PASS/FAIL line per criterion.
"""

import sys

import numpy as np
import pytest

from boundseg.models import pseudo_color
from boundseg.nn import TransposedConv2d


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)


@pytest.fixture
def stage_sizes():
    """Spatial sizes from a real inference forward through a model's
    layers: the encoder output, each `TransposedConv2d` output, the head
    output before its crop to the input size, and the map."""
    def sizes(model) -> dict:
        x = pseudo_color(np.zeros((1, *model.config.input_size)), model.dtype)
        y = model.encoder.forward(x, keep=False)
        plan = {"features": y.shape[2:], "deconvs": []}
        *layers, crop = model.head.layers
        for layer in layers:
            y = layer.forward(y, keep=False)
            if isinstance(layer, TransposedConv2d):
                plan["deconvs"].append(y.shape[2:])
        plan["head_raw"] = y.shape[2:]
        plan["output"] = crop.forward(y, keep=False).shape[2:]
        return plan
    return sizes
