import json

from multifilt.cli import main
from multifilt.gl2 import external_rep, irrep_gl2

FS = {"dim": 2, "steps": [{"index": 0, "basis": [["1", "0"], ["0", "1"]]}, {"index": 2, "basis": [["1", "1/2"]]}]}


def _run(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gr_example(tmp_path, capsys):
    path = tmp_path / "fs.json"
    path.write_text(json.dumps({"dim": 1, "steps": [{"index": 0, "basis": [["1"]]}]}))
    code, out, _ = _run(capsys, ["gr", str(path)])
    assert code == 0
    assert json.loads(out) == {"0": 1}


def test_rees_derees_round_trip_bytes(tmp_path, capsys):
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(FS))
    code, derees_in, _ = _run(capsys, ["rees", str(path)])
    assert code == 0
    mod_path = tmp_path / "mod.json"
    mod_path.write_text(derees_in)
    code, out1, _ = _run(capsys, ["derees", str(mod_path)])
    assert code == 0
    # normalize the original through the same pipeline a second time
    fs_path = tmp_path / "fs2.json"
    fs_path.write_text(out1)
    code, again, _ = _run(capsys, ["rees", str(fs_path)])
    assert code == 0
    mod_path.write_text(again)
    code, out2, _ = _run(capsys, ["derees", str(mod_path)])
    assert code == 0
    assert out1 == out2


def test_filtration_command(capsys):
    code, out, _ = _run(capsys, ["filtration", "--label", "2,0", "--variety", "BinaryQuadraticForms"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert [s["index"] for s in payload["steps"]] == [-2, -1, 0]


def test_filtration_prints_dumps_of_its_payloads(tmp_path, capsys):
    # one flag prints its payload, and any other number of flags (none
    # included) the list of them, as dumps renders it
    from multifilt import serialize
    from multifilt.varieties import cocharacter_filtration

    rep = irrep_gl2(3, 1)
    for cocharacters in ([], [[1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1], [1, -1]]):
        path = tmp_path / "flags.json"
        path.write_text(json.dumps({"group_rank": 2, "group": "GL2", "cocharacters": cocharacters}))
        code, out, _ = _run(capsys, ["filtration", "--variety-file", str(path), "--label", "3,1"])
        payloads = [serialize.filtered_space_to_json(cocharacter_filtration(rep, tuple(mu))) for mu in cocharacters]
        assert code == 0 and out == serialize.dumps(payloads[0] if len(payloads) == 1 else payloads) + "\n"
    code, out, _ = _run(capsys, ["filtration", "--variety", "TwoByTwoMatrices", "--label", "2,1;1,0"])
    mu = (1, 1, 0, -1)
    assert out == serialize.dumps(serialize.filtered_space_to_json(cocharacter_filtration(external_rep((2, 1), (1, 0)), mu))) + "\n"


def test_multiplicity_single_label(capsys):
    code, out, _ = _run(capsys, ["multiplicity", "--variety", "BinaryQuadraticForms", "--label", "2,2"])
    assert code == 0
    assert out.strip() == "1"


def test_multiplicity_grid_tsv_deterministic(capsys):
    args = ["--format", "tsv", "multiplicity", "--variety", "BinaryQuadraticForms", "--grid", "n=0..2,m=-1..1"]
    code, out1, _ = _run(capsys, args)
    assert code == 0
    code, out2, _ = _run(capsys, args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n\tm\tmultiplicity"
    table = {tuple(map(int, line.split("\t")[:2])): int(line.split("\t")[2]) for line in lines[1:]}
    assert table[(0, 0)] == 1 and table[(2, 0)] == 1 and table[(1, 0)] == 0


def test_oracle_agrees_with_multiplicity(capsys):
    for label in ("2,0", "2,1", "4,2"):
        code, hom_out, _ = _run(capsys, ["multiplicity", "--variety", "BinaryQuadraticForms", "--label", label])
        assert code == 0
        code, oracle_out, _ = _run(capsys, ["oracle", "--variety", "BinaryQuadraticForms", "--label", label])
        assert code == 0
        assert hom_out == oracle_out


def test_hom_dim_command(tmp_path, capsys):
    obj = {
        "rep": {"group": "GL2", "label": [0, 0]},
        "h_action": {"dim": 1, "intertwiner_constraints": [[["0"]]]},
        "filtrations": [{"dim": 1, "steps": [{"index": 0, "basis": [["1"]]}]}],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": obj, "b": obj}))
    code, out, _ = _run(capsys, ["hom-dim", str(path)])
    assert code == 0
    assert out.strip() == "1"


def test_custom_variety_file(tmp_path, capsys):
    spec = {
        "group_rank": 2,
        "group": "GL2",
        "cocharacters": [[1, 0]],
        "x_module_weights": [[-2, 0], [-1, -1], [0, -2]],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, ["oracle", "--variety-file", str(path), "--label", "2,0"])
    assert code == 0
    assert out.strip() == "1"


def test_error_exit_codes(tmp_path, capsys, monkeypatch):
    code, _, err = _run(capsys, ["rees", "-"], stdin="not json", monkeypatch=monkeypatch)
    assert code == 2
    assert "parse error" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "steps": [{"index": 0, "basis": [["1", "0", "3"]]}]}))
    code, _, err = _run(capsys, ["rees", str(bad)])
    assert code == 2
    assert "steps[0]" in err

    code, _, err = _run(capsys, ["multiplicity", "--variety", "Nope", "--label", "0,0"])
    assert code == 2

    code, _, err = _run(capsys, ["--convention", "other", "multiplicity", "--variety", "BinaryQuadraticForms", "--label", "0,0"])
    assert code == 2

    code, _, err = _run(capsys, ["multiplicity", "--variety", "BinaryQuadraticForms"])
    assert code == 2


def test_print_conventions(capsys):
    code, out, _ = _run(capsys, ["--print-conventions"])
    assert code == 0
    assert "sym-dual" in out
    assert "m >= 0" in out


def test_h_style_flag(capsys):
    # the connected-torus style misses the reflection parity condition
    code, out, _ = _run(capsys, ["--h-style", "lie_only", "multiplicity", "--variety", "BinaryQuadraticForms", "--label", "2,1"])
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = _run(capsys, ["--h-style", "lie_plus_elements", "multiplicity", "--variety", "BinaryQuadraticForms", "--label", "2,1"])
    assert code == 0
    assert out.strip() == "0"


def test_oversized_labels_rejected_before_building(capsys):
    import time

    start = time.perf_counter()
    code, out, err = _run(capsys, ["multiplicity", "--variety", "TwoByTwoMatrices", "--label", "200,0;200,0"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "40401" in err and "bound 169" in err

    code, _, err = _run(capsys, ["multiplicity", "--variety", "BinaryQuadraticForms", "--grid", "n=0..300,m=0..1"])
    assert code == 2 and "bound 169" in err
    code, _, err = _run(capsys, ["filtration", "--label", "0,0;169,0", "--mu", "1,1,0,-1"])
    assert code == 2 and "bound 169" in err
    # the bound itself is accepted
    code, out, _ = _run(capsys, ["multiplicity", "--variety", "TwoByTwoMatrices", "--label", "12,1;12,1"])
    assert code == 0 and out.strip() == "1"


def test_oracle_degree_bound(capsys):
    import time

    start = time.perf_counter()
    code, out, err = _run(capsys, ["oracle", "--variety", "BinaryQuadraticForms", "--label", "2000,0"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "degree 1000" in err and "bound 80" in err

    code, _, err = _run(capsys, ["oracle", "--variety", "TwoByTwoMatrices", "--grid", "n=0..81,m=0..0"])
    assert code == 2 and "degree 81" in err and "bound 80" in err
    # just under the bound still answers; a --max-degree below the label's degree truncates
    code, out, _ = _run(capsys, ["oracle", "--variety", "BinaryQuadraticForms", "--label", "160,0"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = _run(capsys, ["oracle", "--variety", "BinaryQuadraticForms", "--label", "2000,0", "--max-degree", "20"])
    assert code == 0 and out.strip() == "0"


def test_oracle_degree_bound_uses_max_degree_when_sums_do_not_decide(tmp_path, capsys):
    # the dual of (1,0) plus the determinant: weight sums 1 and 2, so the degree is the --max-degree value
    spec = {"group_rank": 2, "group": "GL2", "cocharacters": [[1, 0]], "x_module_weights": [[-1, 0], [0, -1], [-1, -1]]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    code, _, err = _run(capsys, ["oracle", "--variety-file", str(path), "--label", "1,0", "--max-degree", "81"])
    assert code == 2 and "degree 81" in err and "bound 80" in err
    code, out, _ = _run(capsys, ["oracle", "--variety-file", str(path), "--label", "1,0", "--max-degree", "4"])
    assert code == 0 and out.strip() == "1"


def test_label_of_the_wrong_shape_rejected(capsys):
    for command in ("multiplicity", "oracle", "filtration"):
        code, out, err = _run(capsys, [command, "--variety", "TwoByTwoMatrices", "--label", "1,0"])
        assert code == 2 and out == ""
        assert "group GL2xGL2" in err and "'n,m;n2,m2'" in err
    for command in ("multiplicity", "oracle"):
        code, out, err = _run(capsys, [command, "--variety", "BinaryQuadraticForms", "--label", "1,0;1,0"])
        assert code == 2 and out == ""
        assert "group GL2" in err and "'n,m'" in err
    code, out, err = _run(capsys, ["multiplicity", "--variety", "BinaryQuadraticForms", "--grid", "n=0..1,m=0..0,n2=0..1"])
    assert code == 2 and out == "" and "only n and m" in err
    # labels of the right shape still answer
    code, out, _ = _run(capsys, ["oracle", "--variety", "TwoByTwoMatrices", "--label", "1,0;1,0"])
    assert code == 0 and out.strip() == "1"


def test_labels_naming_no_representation_rejected(capsys):
    code, out, err = _run(capsys, ["oracle", "--variety", "BinaryQuadraticForms", "--label=-4,4"])
    assert code == 2 and out == "" and "nonnegative" in err
    for command in ("multiplicity", "oracle"):
        code, out, err = _run(capsys, [command, "--variety", "BinaryQuadraticForms", "--grid", "n=-3..0,m=0..2"])
        assert code == 2 and out == "" and "nonnegative" in err


def test_hom_dim_rejects_labels_with_extra_components(tmp_path, capsys):
    rest = {"h_action": {"dim": 1, "intertwiner_constraints": []}, "filtrations": []}
    ok = {"rep": {"group": "GL2", "label": [0, 0]}, **rest}
    for group, label in (("GL2", [0, 0, 5]), ("GL2xGL2", [[0, 0, 9], [0, 0], [3, 3]]), ("GL2xGL2", [[0, 0, 9], [0, 0]])):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"a": {"rep": {"group": group, "label": label}, **rest}, "b": ok}))
        code, out, err = _run(capsys, ["hom-dim", str(path)])
        assert code == 2 and out == "" and "$.a.rep.label" in err


def test_custom_variety_group_must_match_rank(tmp_path, capsys):
    matrix_weights = {"group_rank": 4, "cocharacters": [[1, 1, 0, -1]], "x_module_weights": [[-1, 0, -1, 0], [-1, 0, 0, -1], [0, -1, -1, 0], [0, -1, 0, -1]]}
    forms_weights = {"group_rank": 2, "cocharacters": [[1, 0]], "x_module_weights": [[-2, 0], [-1, -1], [0, -2]]}
    for spec, label in (({"group": "GL2", **matrix_weights}, "1,0"), ({"group": "GL2xGL2", **forms_weights}, "2,0;0,0")):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec))
        for command in ("oracle", "multiplicity"):
            code, out, err = _run(capsys, [command, "--variety-file", str(path), "--label", label])
            assert code == 2 and out == "" and f"group {spec['group']} has torus rank" in err
    # a generic group takes any rank
    path.write_text(json.dumps(matrix_weights))
    code, out, _ = _run(capsys, ["oracle", "--variety-file", str(path), "--label", "1,0;1,0"])
    assert code == 0 and out.strip() == "1"


def _run_with_memory_cap(args, cap_mb=512):
    """Run the CLI in a child process whose address space is capped, so that
    a grid materialized in full fails in the child instead of exhausting the
    host's memory."""
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import multifilt

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_mb << 20, cap_mb << 20))

    code = "import sys; from multifilt.cli import main; raise SystemExit(main(sys.argv[1:]))"
    env = {"PYTHONPATH": str(Path(multifilt.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, preexec_fn=cap, env=env)


def test_largest_filtration_is_written_a_step_at_a_time():
    # forms (168, 0) prints 12 MB; rendered whole, its JSON needed about
    # 210 MB, and it fails under this cap; written a step at a time it
    # runs at about 21 MB peak RSS
    run = _run_with_memory_cap(["filtration", "--variety", "BinaryQuadraticForms", "--label", "168,0"], cap_mb=96)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith('{"dim": 169, "steps": [{"index": -168, "basis": [["1", "0", ')
    assert run.stdout.endswith(', "1"]]}]}\n') and run.stdout.count('{"index": ') == 169
    assert len(run.stdout) == 12171800


def test_oversized_grid_rejected_before_labels_are_made(capsys):
    import time

    from multifilt.cli import MAX_GRID_CELLS

    for command in ("multiplicity", "oracle"):
        for variety in ("TwoByTwoMatrices", "BinaryQuadraticForms"):
            start = time.perf_counter()
            done = _run_with_memory_cap([command, "--variety", variety, "--grid", "n=0..0,m=-10000000..10000000"])
            assert time.perf_counter() - start < 5
            assert done.returncode == 2 and done.stdout == ""
            assert f"bound {MAX_GRID_CELLS}" in done.stderr
    # a matrix grid counts the cells of both factors
    code, out, err = _run(capsys, ["oracle", "--variety", "TwoByTwoMatrices", "--grid", "n=0..9,m=-5..5"])
    assert code == 2 and out == "" and "12100 cells" in err
    # a grid of exactly the bound is accepted (oracle answers it quickly)
    code, out, _ = _run(capsys, ["--format", "tsv", "oracle", "--variety", "TwoByTwoMatrices", "--grid", "n=0..9,m=-4..5"])
    assert code == 0 and len(out.splitlines()) == 1 + MAX_GRID_CELLS


def _plain_object(dim):
    """A dim-dimensional object with no constraints and the trivial filtration."""
    identity = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return {
        "rep": {"dim": dim, "weights": [[0, 0]] * dim, "ops": []},
        "h_action": {"dim": dim, "intertwiner_constraints": []},
        "filtrations": [{"dim": dim, "steps": [{"index": 0, "basis": identity}]}],
    }


def test_oversized_hom_dim_pair_rejected_before_solving(tmp_path, capsys):
    import time

    from multifilt.cli import MAX_HOM_VARS

    # a 400 x 400 pair (160000 Hom variables) is refused from its dimensions
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"a": _plain_object(400), "b": _plain_object(400)}))
    start = time.perf_counter()
    done = _run_with_memory_cap(["hom-dim", str(path)])
    assert time.perf_counter() - start < 10
    assert done.returncode == 2 and done.stdout == ""
    assert f"400 x 400 = 160000 Hom variables, above the bound {MAX_HOM_VARS}" in done.stderr
    # one variable over the bound is rejected, a pair of exactly the bound is solved
    path.write_text(json.dumps({"a": _plain_object(MAX_HOM_VARS + 1), "b": _plain_object(1)}))
    code, out, err = _run(capsys, ["hom-dim", str(path)])
    assert code == 2 and out == "" and f"bound {MAX_HOM_VARS}" in err
    path.write_text(json.dumps({"a": _plain_object(1), "b": _plain_object(MAX_HOM_VARS)}))
    code, out, _ = _run(capsys, ["hom-dim", str(path)])
    assert code == 0 and out.strip() == str(MAX_HOM_VARS)


def test_hom_dim_bounds_a_labeled_rep_before_building_it(tmp_path):
    import time

    from multifilt.cli import MAX_HOM_VARS

    small = {"rep": {"group": "GL2", "label": [0, 0]}, "h_action": {"dim": 1, "intertwiner_constraints": []}, "filtrations": []}
    path = tmp_path / "huge.json"
    # a label of dimension 2000001 against a one-dimensional constraint set,
    # then against constraints of the label's own dimension
    cases = (
        (1, "$.a: constraint dimension does not match the representation"),
        (2000001, f"2000001 x 1 = 2000001 Hom variables, above the bound {MAX_HOM_VARS}"),
    )
    for h_dim, message in cases:
        huge = {"rep": {"group": "GL2", "label": [2000000, 0]}, "h_action": {"dim": h_dim, "intertwiner_constraints": []}, "filtrations": []}
        path.write_text(json.dumps({"a": huge, "b": small}))
        start = time.perf_counter()
        done = _run_with_memory_cap(["hom-dim", str(path)])
        assert time.perf_counter() - start < 5
        assert done.returncode == 2 and done.stdout == ""
        assert message in done.stderr


def test_hom_dim_bounds_a_labeled_rep_against_a_zero_dimensional_side(tmp_path, capsys):
    import time

    from multifilt.cli import MAX_HOM_VARS

    empty = {"rep": {"dim": 0, "weights": [], "ops": []}, "h_action": {"dim": 0, "intertwiner_constraints": []}, "filtrations": []}
    path = tmp_path / "zero.json"
    # the pair needs 0 Hom variables, but the label alone has dimension 2000001
    huge = {"rep": {"group": "GL2", "label": [2000000, 0]}, "h_action": {"dim": 2000001, "intertwiner_constraints": []}, "filtrations": []}
    for k, pair in (("a", {"a": huge, "b": empty}), ("b", {"a": empty, "b": huge})):
        path.write_text(json.dumps(pair))
        start = time.perf_counter()
        done = _run_with_memory_cap(["hom-dim", str(path)])
        assert time.perf_counter() - start < 5
        assert done.returncode == 2 and done.stdout == ""
        assert f"$.{k}.rep: label needs representation dimension 2000001, above the bound {MAX_HOM_VARS}" in done.stderr
    # a label of exactly the bound is built, and gets the zero-map answer
    at_bound = {"rep": {"group": "GL2", "label": [MAX_HOM_VARS - 1, 0]}, "h_action": {"dim": MAX_HOM_VARS, "intertwiner_constraints": []}, "filtrations": []}
    path.write_text(json.dumps({"a": at_bound, "b": empty}))
    code, out, _ = _run(capsys, ["hom-dim", str(path)])
    assert code == 0 and out.strip() == "0"


def test_negative_dimensions_are_input_errors(tmp_path, capsys):
    cases = [
        (["gr"], {"dim": -1, "steps": []}, "$.dim"),
        (["rees"], {"dim": -1, "steps": []}, "$.dim"),
        (["derees"], {"ambient_dim": -2, "generators": []}, "$.ambient_dim"),
        (["hom-dim"], {"a": {**_plain_object(1), "rep": {"dim": -1, "weights": [], "ops": []}}, "b": _plain_object(1)}, "$.a.rep.dim"),
        (["hom-dim"], {"a": _plain_object(1), "b": {**_plain_object(1), "h_action": {"dim": -1}}}, "$.b.h_action.dim"),
    ]
    for command, payload, path in cases:
        file = tmp_path / "payload.json"
        file.write_text(json.dumps(payload))
        code, out, err = _run(capsys, [*command, str(file)])
        assert code == 2 and out == ""
        assert f"{path}: dimension -" in err and "is negative" in err


def test_grid_naming_a_variable_twice_rejected(capsys):
    for command in ("multiplicity", "oracle"):
        code, out, err = _run(capsys, [command, "--variety", "BinaryQuadraticForms", "--grid", "n=0..1,n=5..6,m=0..0"])
        assert code == 2 and out == ""
        assert err == "input error: grid 'n=0..1,n=5..6,m=0..0' names a variable twice\n"
    code, out, err = _run(capsys, ["oracle", "--variety", "TwoByTwoMatrices", "--grid", "n=0..1,m=0..0,m2=0..0,m2=1..1"])
    assert code == 2 and out == "" and "names a variable twice" in err


def test_repeated_step_index_rejected(tmp_path, capsys):
    path = tmp_path / "fs.json"
    steps = [{"index": 0, "basis": [["1", "0"], ["0", "1"]]}, {"index": 1, "basis": [["1", "0"]]}, {"index": 1, "basis": [["0", "1"]]}]
    path.write_text(json.dumps({"dim": 2, "steps": steps}))
    for command in ("gr", "rees"):
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        assert err == "input error: $.steps[2].index: step index 1 is repeated\n"
