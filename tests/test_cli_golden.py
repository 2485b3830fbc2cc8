"""Byte-for-byte CLI transcript: the stdout, stderr and exit code of fast
invocations, compared against the recorded transcript in cli_golden.json.

Each case runs in process.  ``{dir}`` in an argument stands for a temporary
directory holding the files of FILES.  After a deliberate output change,
rewrite the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.  ``verify-paper`` is left out: its lines carry timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from multifilt.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FS = {"dim": 2, "steps": [{"index": 0, "basis": [["1", "0"], ["0", "1"]]}, {"index": 2, "basis": [["1", "1/2"]]}]}
MODULE = {"ambient_dim": 2, "generators": [{"vector": ["1", "1/2"], "degree": 2}, {"vector": ["0", "1"], "degree": 0}]}


def _labeled(group, label, dim):
    obj = {"rep": {"group": group, "label": label}, "h_action": {"dim": dim, "intertwiner_constraints": []}, "filtrations": []}
    return json.dumps({"a": obj, "b": obj})


EXPLICIT = {
    "rep": {"dim": 2, "weights": [[0, 0], [1, -1]], "ops": []},
    "h_action": {"dim": 2, "intertwiner_constraints": [[["1", "0"], ["0", "2"]]]},
    "filtrations": [{"dim": 2, "steps": [{"index": 0, "basis": [["1", "0"], ["0", "1"]]}, {"index": 1, "basis": [["1", "0"]]}]}],
}

FILES = {
    "forms.json": {"group_rank": 2, "group": "GL2", "cocharacters": [[1, 0]], "x_module_weights": [[-2, 0], [-1, -1], [0, -2]]},
    "generic.json": {"group_rank": 2, "cocharacters": [[1, 0]], "x_module_weights": [[-2, 0], [-1, -1], [0, -2]]},
    "keyed.json": {
        "group_rank": 2,
        "group": "GL2",
        "cocharacters": [[1, 0]],
        "x_module_weights": [[-2, 0], [-1, -1], [0, -2]],
        "stabilizer_ops": {"0,0": [[["0"]]], "2,0": [[["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]},
    },
    "badgroup.json": {"group_rank": 2, "group": "GL3", "cocharacters": [], "x_module_weights": []},
}

FORMS = ["--variety", "BinaryQuadraticForms"]
MATRICES = ["--variety", "TwoByTwoMatrices"]
TSV = ["--format", "tsv"]

# name -> (arguments, standard input)
CASES = {
    # single labels
    "multiplicity-forms-2,0": (["multiplicity", *FORMS, "--label", "2,0"], None),
    "multiplicity-forms-2,1": (["multiplicity", *FORMS, "--label", "2,1"], None),
    "multiplicity-forms-lie-only-2,1": (["--h-style", "lie_only", "multiplicity", *FORMS, "--label", "2,1"], None),
    "multiplicity-matrices-1,0;1,0": (["multiplicity", *MATRICES, "--label", "1,0;1,0"], None),
    "multiplicity-matrices-2,1;2,0": (["multiplicity", *MATRICES, "--label", "2,1;2,0"], None),
    "oracle-forms-4,2": (["oracle", *FORMS, "--label", "4,2"], None),
    "oracle-matrices-2,1;2,1": (["oracle", *MATRICES, "--label", "2,1;2,1"], None),
    "oracle-forms-max-degree": (["oracle", *FORMS, "--label", "2000,0", "--max-degree", "20"], None),
    "oracle-custom-forms": (["oracle", "--variety-file", "{dir}/forms.json", "--label", "2,0"], None),
    "oracle-custom-generic": (["oracle", "--variety-file", "{dir}/generic.json", "--label", "2,0"], None),
    "multiplicity-custom-keyed": (["multiplicity", "--variety-file", "{dir}/keyed.json", "--label", "2,0"], None),
    # grids
    "grid-json-multiplicity-forms": (["multiplicity", *FORMS, "--grid", "n=0..2,m=-1..1"], None),
    "grid-tsv-multiplicity-forms": ([*TSV, "multiplicity", *FORMS, "--grid", "n=0..2,m=-1..1"], None),
    "grid-json-oracle-matrices": (["oracle", *MATRICES, "--grid", "n=0..1,m=0..1"], None),
    "grid-tsv-oracle-matrices": ([*TSV, "oracle", *MATRICES, "--grid", "n=0..1,m=0..1"], None),
    "grid-tsv-multiplicity-matrices-n2-m2": ([*TSV, "multiplicity", *MATRICES, "--grid", "n=0..1,m=0..0,n2=1..2,m2=-1..0"], None),
    "grid-json-oracle-matrices-n2": (["oracle", *MATRICES, "--grid", "n=1..1,m=0..1,n2=1..1"], None),
    "grid-json-empty": (["oracle", *FORMS, "--grid", "n=1..0,m=0..1"], None),
    "grid-tsv-empty-forms": ([*TSV, "oracle", *FORMS, "--grid", "n=0..1,m=1..0"], None),
    "grid-tsv-empty-matrices": ([*TSV, "multiplicity", *MATRICES, "--grid", "n=0..1,m=1..0"], None),
    # filtrations
    "filtration-variety-forms": (["filtration", "--label", "2,0", *FORMS], None),
    "filtration-variety-matrices": (["filtration", "--label", "1,0;1,0", *MATRICES], None),
    "filtration-mu-product": (["filtration", "--label", "1,0;1,0", "--mu", "1,1,0,-1"], None),
    "filtration-mu-gl2": (["filtration", "--label", "2,1", "--mu", "1,0"], None),
    # JSON commands
    "hom-dim-gl2": (["hom-dim", "-"], _labeled("GL2", [0, 0], 1)),
    "hom-dim-product": (["hom-dim", "-"], _labeled("GL2xGL2", [[1, 0], [1, 0]], 4)),
    "hom-dim-explicit": (["hom-dim", "-"], json.dumps({"a": EXPLICIT, "b": EXPLICIT})),
    "rees": (["rees", "-"], json.dumps(FS)),
    "derees": (["derees", "-"], json.dumps(MODULE)),
    "gr": (["gr", "-"], json.dumps(FS)),
    # label shape rejections
    "shape-multiplicity-matrices": (["multiplicity", *MATRICES, "--label", "1,0"], None),
    "shape-oracle-matrices": (["oracle", *MATRICES, "--label", "1,0"], None),
    "shape-filtration-matrices": (["filtration", *MATRICES, "--label", "1,0"], None),
    "shape-multiplicity-forms": (["multiplicity", *FORMS, "--label", "1,0;1,0"], None),
    "shape-oracle-forms": (["oracle", *FORMS, "--label", "1,0;1,0"], None),
    "shape-grid-forms-n2": (["multiplicity", *FORMS, "--grid", "n=0..1,m=0..0,n2=0..1"], None),
    "shape-bad-text": (["multiplicity", *FORMS, "--label", "2;0"], None),
    "shape-three-factors": (["oracle", *MATRICES, "--label", "1,0;1,0;1,0"], None),
    "shape-negative-multiplicity": (["multiplicity", *FORMS, "--label=-4,4"], None),
    "shape-generic-multiplicity": (["multiplicity", "--variety-file", "{dir}/generic.json", "--label", "2,0"], None),
    "shape-unknown-group-file": (["oracle", "--variety-file", "{dir}/badgroup.json", "--label", "2,0"], None),
    "shape-unknown-group-json": (["hom-dim", "-"], _labeled("GL3", [0, 0], 1)),
    # bound rejections
    "rep-dim-label": (["multiplicity", *MATRICES, "--label", "200,0;200,0"], None),
    "rep-dim-grid": (["multiplicity", *FORMS, "--grid", "n=0..300,m=0..1"], None),
    "rep-dim-filtration": (["filtration", "--label", "0,0;169,0", "--mu", "1,1,0,-1"], None),
    "degree-label": (["oracle", *FORMS, "--label", "2000,0"], None),
    "degree-grid": (["oracle", *MATRICES, "--grid", "n=0..81,m=0..0"], None),
    "cells-matrices": (["oracle", *MATRICES, "--grid", "n=0..9,m=-5..5"], None),
    "cells-forms": (["multiplicity", *FORMS, "--grid", "n=0..0,m=-10000000..10000000"], None),
}


def run_case(name: str, directory: Path) -> dict:
    args, stdin = CASES[name]
    for file, payload in FILES.items():
        (directory / file).write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{dir}", str(directory)) for a in args])
    finally:
        sys.stdin = saved_stdin
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_transcript_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        transcript = {name: run_case(name, Path(tmp)) for name in CASES}
    GOLDEN.write_text(json.dumps(transcript, indent=1, sort_keys=True) + "\n")
