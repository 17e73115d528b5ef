"""Golden digests: small pinned configs through cli.main, every output file
compared by sha256 with the table in golden_digests.json, and each
completion line (its step and clamp counts) with the line recorded there.

Any change to what a run computes, down to the last bit of one value,
changes a digest here.  No grid has a power-of-two cell count: dividing by
such a dx is exact, so a reordered (F / dx) * dt would not show there.
The table was generated with numpy 2.4.6 and scipy 1.17.1 (LAPACK from
scipy-openblas 0.3.31) on x86-64; another numpy, LAPACK or CPU may round
differently and then fails this test without a change to crossdiff.  To write the table again from a tree whose outputs
are trusted, run

    PYTHONPATH=src python tests/test_golden.py

from the repository root.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from crossdiff.cli import main

TABLE = Path(__file__).resolve().with_name("golden_digests.json")

_COMMON = """
[potentials]
V = 1:0:1
W = {W}
[initial]
rho_offset = 0.5
rho_modes = 1:{rho}:0
mu_offset = 0.5
mu_modes = {mu}
"""

# name -> (command, config text or the name of the run to diagnose)
CASES = {
    # explicit upwind steps with viscosity: the eps * grad(u) flux term
    "explicit": ("run", "[grid]\nn = 40\n[model]\nalpha = 0.5\n"
                 + _COMMON.format(W="1:1:0, 2:0:0.5", rho=0.2, mu="2:0:0.2")
                 + "[time]\nt_final = 0.02\nsnapshots = 5\neps = 0.002\n"
                   "[output]\ndir = explicit\nbank_k = 4\n"),
    # semi-implicit steps with s_floor above part of S: Newton clamps
    "semi": ("run", "[grid]\nn = 36\n[model]\nalpha = 0.5\ns_floor = 0.9\n"
             + _COMMON.format(W="1:1:0", rho=0.25, mu="1:0.2:0.1")
             + "[time]\nt_final = 0.02\nsnapshots = 5\nstepper = semi-implicit\n"
               "eps = 0.001\n[output]\ndir = semi\nbank_k = 4\n"),
    # two semi-implicit levels, one with viscosity and one without
    "study": ("study", "[grid]\nn = 12\n[model]\nalpha = 0.7\n"
              + _COMMON.format(W="2:0.5:0", rho=0.2, mu="1:0:0.2")
              + "[time]\nt_final = 0.01\nsnapshots = 3\nstepper = semi-implicit\n"
                "[output]\ndir = study\nbank_k = 2\n[study]\nlevels = 2\n"
                "viscosity = 1e-3, 0\n"),
    # semi-implicit steps at alpha = 1: the log pressure and the s ** 1.0 and
    # s ** 0.0 fast paths; nine snapshots, so a run on two or more CPUs
    # streams them through its writer process
    "semi-alpha1": ("run", "[grid]\nn = 44\n[model]\nalpha = 1\n"
                    + _COMMON.format(W="0:0:0", rho=0.25, mu="2:0:0.25")
                    + "[time]\nt_final = 0.04\nsnapshots = 9\nstepper = semi-implicit\n"
                      "[output]\ndir = semi-alpha1\nbank_k = 4\n"),
    "diagnose": ("diagnose", "semi"),
}


def _outputs(root: Path) -> dict:
    """Run every case in root; per case, its completion line without the
    output directory and the sha256 of each file it wrote."""
    results = {}
    for name, (command, source) in CASES.items():
        if command == "diagnose":
            argv = [command, source, "--out", name]
        else:
            (root / f"{name}.cfg").write_text(source)
            argv = [command, f"{name}.cfg"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, name
        line = stdout.getvalue().strip().rpartition(", output in ")[0]
        out = root / name
        files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        results[name] = {"line": line, "files": files}
    return results


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # every path a case names is relative: run.cfg holds dir
    assert _outputs(tmp_path) == json.loads(TABLE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        results = _outputs(Path(scratch))
    TABLE.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
