"""The README's python code blocks run as written: in order, in one
namespace, with the results their comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    report, problem = namespace["report"], namespace["problem"]
    assert np.array_equal(namespace["entropy"], report.entropy)
    assert np.array_equal(namespace["mass"], np.stack((report.mass_rho, report.mass_mu), 1))
    assert namespace["u"].shape == problem.u0.shape == (2, 256)
    assert namespace["record"].dt == namespace["dt"]
