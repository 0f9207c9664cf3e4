import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from itertools import combinations_with_replacement, groupby, product
from operator import getitem
from pathlib import Path

import pytest

from cycloschur import abacus, scanning, weights
from cycloschur.abacus import count_divisible_hooks, in_fundamental_domain, multi_beta
from cycloschur.cli import main, write_scan_csv
from cycloschur.groups import sigma
from cycloschur.partitions import (
    count_multipartitions,
    enumerate_multipartitions,
    format_multicharge,
    format_multipartition,
    format_partition,
    parse_multipartition,
    partitions_of,
    rank_vectors,
)
from cycloschur.scanning import BlockReport, ScanReport, scan
from cycloschur.schur import column_tables, defect_integer
from cycloschur.weights import (
    CoreResult,
    core,
    residue_counts,
    residue_vector,
    residue_weight,
    uglov_weight,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hooks_command(capsys):
    code, out, _ = run(capsys, "hooks", "3.1|2.1.1", "--charge", "0,2", "--mod", "2")
    assert code == 0
    assert "H = -2^1 0^2 1^4 2^3 3^3 4^2 5^1" in out
    assert "size = 16" in out
    assert "divisible by 2: 8" in out


def test_hooks_empty_and_firstabacus(capsys):
    code, out, _ = run(capsys, "hooks", "0|0", "--charge", "0,0")
    assert code == 0
    assert "size = 0" in out
    code, out, _ = run(capsys, "hooks", "2|1|1.1", "--charge", "0,1,2", "--mod", "3")
    assert code == 0
    assert "divisible by 3: 1" in out


def test_hooks_no_diagonal(capsys):
    code, out, _ = run(capsys, "hooks", "3.1|2.1.1", "--charge", "0,2", "--no-diagonal")
    assert code == 0
    assert "size = 8" in out


@pytest.mark.parametrize("mod", ["0", "-3"])
def test_hooks_bad_mod_exits_2_before_output(capsys, mod):
    code, out, err = run(capsys, "hooks", "3.1|2.1.1", "--charge", "0,2", "--mod", mod)
    assert code == 2
    assert out == ""
    assert "--mod must be positive" in err


def test_defect_command(capsys):
    code, out, _ = run(capsys, "defect", "3.1|2.1.1", "--charge", "0,2", "--e", "2")
    assert code == 0
    assert out.strip() == "8"


@pytest.mark.parametrize(
    "mp, charge, message",
    [("1_0|0", "0,1", "bad partition '1_0'"), ("+2|0", "0,1", "bad partition '+2'"),
     ("\u0661|1", "0,1", "bad partition '\u0661'"),
     ("1|1", "+1,0_0", "bad multicharge '+1,0_0'")],
)
def test_non_ascii_digit_input_exits_2_before_output(capsys, mp, charge, message):
    # int() alone would read "1_0" as 10, "+2" as 2 and an Arabic-Indic one as 1
    code, out, err = run(capsys, "defect", mp, "--charge", charge, "--e", "2", "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_defect_json(capsys):
    code, out, _ = run(
        capsys, "defect", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"defect": 4, "weight": 4, "core": "2|0"}


def test_defect_general(capsys):
    code, out, _ = run(
        capsys,
        "defect", "2|0|0", "--roots", "12,4", "--rcharges", "0,0,1",
    )
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(
        capsys,
        "defect", "2|0|0", "--roots", "12,8", "--rcharges", "0,0,1",
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(
        capsys,
        "defect", "2|0|0", "--roots", "12,4", "--rcharges", "0,0,1", "--qexp", "2",
    )
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize(
    "extra",
    [["--rcharges", "0,0,1", "--e", "3"], [], ["--rcharges", "0,0,1", "--charge", "0,0,1"]],
    ids=["with-e", "without-rcharges", "with-charge"],
)
def test_defect_roots_misuse_exits_2_before_output(capsys, extra):
    code, out, _ = run(capsys, "defect", "2|0|0", "--roots", "12,4", *extra)
    assert code == 2
    assert out == ""


def test_defect_qexp_without_roots_exits_2_before_output(capsys):
    # the integer route evaluates q at y, so a q-exponent there is a usage error
    code, out, err = run(capsys, "defect", "1|0", "--e", "2", "--charge", "0,1", "--qexp", "2")
    assert (code, out) == (2, "")
    assert "--qexp" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--charge", ["defect", "1|0", "--e", "2", "--charge", "-1,1"]),
        ("--rcharges", ["defect", "2|0|0", "--roots", "12,4", "--rcharges", "-1,1,0"]),
        ("--rcharges", ["glpn", "1|1", "--d", "1", "--p", "2", "--roots", "4,1", "--rcharges", "-1"]),
        ("--params", ["dm-classes", "--roots", "6", "--params", "-1,2", "--u", "2", "--n", "3"]),
        ("--char", ["defect", "1|0", "--e", "2", "--char", "-1,1"]),
        ("--rch", ["defect", "2|0|0", "--roots", "12,4", "--rch", "-1,1,0"]),
    ],
    ids=["charge", "rcharges", "glpn-rcharges", "params", "char", "rch"],
)
def test_negative_list_values_parse_like_equals_form(capsys, flag, argv):
    i = argv.index(flag)
    expected = run(capsys, *argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:])
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


def test_main_returns_argparse_exit_codes(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out
    code, out, err = run(capsys, "defect")
    assert (code, out) == (2, "")
    assert "required" in err


def test_defect_via_polynomial(capsys):
    # cyclotomic valuation of the expanded Schur element; 8 even charged
    # hooks survive the charge shift to (0,9)
    code, out, _ = run(
        capsys,
        "defect", "3.1|2.1.1", "--charge", "0,9", "--e", "2", "--via-polynomial",
    )
    assert code == 0
    assert out.strip() == "8"


def test_defect_via_polynomial_large_composite_e(capsys):
    # Phi_e has degree phi(2000006) = 1000002, far above the span of the
    # expanded Schur element, so the valuation is 0 without any division
    code, out, _ = run(
        capsys,
        "defect", "3.1|2", "--charge", "0,1", "--e", "2000006", "--via-polynomial",
    )
    assert (code, out.strip()) == (0, "0")


def test_bad_specialisation_exits_3(capsys):
    code, _, err = run(
        capsys,
        "defect", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3", "--via-polynomial",
    )
    assert code == 3
    assert "bad specialisation" in err


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "defect", "1.2|x", "--e", "2")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "hooks", "1|1", "--charge", "0")
    assert code == 2  # wrong multicharge length


def test_weight_and_core_commands(capsys):
    code, out, _ = run(capsys, "weight", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3")
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run(capsys, "core", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3")
    assert code == 0
    assert "core = 2|0" in out
    assert "weight = 4" in out
    code, out, _ = run(
        capsys, "core", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3", "--json"
    )
    assert json.loads(out) == {"core": "2|0", "charges": [0, 2], "weight": 4}


def test_weight_violation_exits_1_on_stderr(monkeypatch, capsys):
    # the reduction weight one too high: the two routes disagree, and the
    # command reports it on stderr alone
    real = weights.uglov_weight
    monkeypatch.setattr(weights, "uglov_weight", lambda mp, s, e: real(mp, s, e) + 1)
    code, out, err = run(capsys, "weight", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3")
    assert (code, out) == (1, "")
    assert err == "VIOLATION: residue weight 4 != reduction weight 5\n"


def test_core_normalises_charges(capsys):
    # unsorted charge gets normalised instead of rejected
    code, out, _ = run(capsys, "core", "2.1.1|2.1.1", "--charge", "2,0", "--e", "3")
    assert code == 0
    assert "weight = 4" in out


def test_schur_command(capsys):
    code, out, _ = run(capsys, "schur", "1")
    assert code == 0
    assert json.loads(out) == {"sign": 1, "q_exp": 0, "qints": [1], "pairs": []}
    code, out, _ = run(capsys, "schur", "1|0", "--charge", "0,2")
    assert code == 0
    assert out.strip() == "1 - y^-2"
    code, _, _ = run(capsys, "schur", "1|0", "--charge", "0,0")
    assert code == 3


def test_abacus_command(capsys):
    code, out, _ = run(capsys, "abacus", "5.4.2.1.1", "--charge", "0", "--window", "6")
    assert code == 0
    assert "|" in out
    assert "-5" in out


def test_dm_classes_command(capsys):
    code, out, _ = run(
        capsys, "dm-classes", "--roots", "12", "--params", "0,3", "--u", "4", "--n", "3"
    )
    assert code == 0
    assert json.loads(out) == [[0], [1]]


def test_yokonuma_command(capsys):
    code, out, _ = run(
        capsys,
        "yokonuma", "2|1.1", "--d", "2", "--l", "1", "--charge", "0", "--e", "2",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"defect": 2, "key": [[1, 1], [1, 1]]}


def test_glpn_command(capsys):
    code, out, _ = run(
        capsys,
        "glpn", "1|1", "--d", "1", "--p", "2", "--roots", "4,1", "--rcharges", "0",
    )
    assert code == 0
    assert "orbit size = 1" in out
    assert "stabilizer = 2" in out
    assert "defect =" in out


def general_parameter_sweep():
    """argv of ``defect --roots`` and ``glpn`` runs over small levels and
    ranks, four roots (one whose order the level 3 does not divide), two
    charge vectors per shape and the q-exponents 1, 2 and -1."""
    roots = ("12,4", "12,3", "6,1", "4,2")
    qexps = ("1", "2", "-1")

    def charge_texts(k):
        return ",".join("0" * k), ",".join(map(str, (1, -1, 2)[:k]))

    shapes = [("defect", None, None, l, n) for l, n in ((1, 2), (2, 2), (3, 1))]
    shapes += [
        ("glpn", d, p, d * p, n) for d, p, n in ((1, 2, 2), (2, 1, 1), (1, 3, 1), (2, 2, 1))
    ]
    for cmd, d, p, level, n in shapes:
        packages = [] if d is None else ["--d", str(d), "--p", str(p)]
        for rank in range(n + 1):
            for mp in enumerate_multipartitions(level, rank):
                for r, rc, q in product(roots, charge_texts(d or level), qexps):
                    yield [
                        cmd, format_multipartition(mp), *packages,
                        "--roots", r, f"--rcharges={rc}", "--qexp", q,
                    ]


# sha256 over the sweep of each run's exit code and stdout, recorded from a
# tree whose defect command took the general route only under --general
GENERAL_PARAMETER_DIGEST = "4445d845e1ef53b7618b0d55b67b006716fc002aa5922f4b5f630fc92e230fd2"


def test_general_parameter_commands_match_digest(capsys):
    digest = hashlib.sha256()
    for argv in general_parameter_sweep():
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GENERAL_PARAMETER_DIGEST


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """[argv, expected stdout or None] of each ``cycloschur`` line of the
    ``sh`` block under "## Command line" in README.md.  The expected
    output is the line's trailing comment, less a closing remark in
    parentheses, or else the comment lines right below it."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("cycloschur "):
            command, _, comment = line.partition("#")
            expected = re.sub(r"\s*\(.*\)$", "", comment.strip()) if comment else None
            commands.append([shlex.split(command)[1:], expected])
        elif line.startswith("# "):
            above = commands[-1][1]
            commands[-1][1] = line[2:] if above is None else f"{above}\n{line[2:]}"
    return commands


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    # every command of the README's example block exits 0 and prints the
    # output its comment shows; the scan writes its files into tmp_path
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert sum(expected is not None for _, expected in commands) == 8, commands
    for argv, expected in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out == expected + "\n", argv


def python_310():
    """A Python 3.10 that runs, or None: ``python3.10`` on PATH, else
    $PYENV_ROOT/versions/3.10*/bin/python3.10, each only if ``-c pass``
    exits 0 (a pyenv shim of a version that is not selected exits 127)."""
    found = [shutil.which("python3.10")]
    if os.environ.get("PYENV_ROOT"):
        found += sorted(Path(os.environ["PYENV_ROOT"]).glob("versions/3.10*/bin/python3.10"))
    for python in filter(None, found):
        if subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0:
            return python
    return None


def cli_outputs(python, argvs, cwd):
    """The exit code and stdout of each argv run as ``python -m
    cycloschur.cli`` in cwd, from this checkout, and the files they wrote."""
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    cwd.mkdir()
    runs = [
        subprocess.run(
            [python, "-m", "cycloschur.cli", *argv], cwd=cwd, env=env, capture_output=True
        )
        for argv in argvs
    ]
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    return [(done.returncode, done.stdout) for done in runs], files


def test_python_310_writes_the_same_bytes(tmp_path):
    # the lowest Python that pyproject.toml admits prints and writes the
    # same bytes as this one: the README examples, the text, JSON and CSV
    # with orbit sizes of two golden scans, and a rank-31 oracle count
    python = python_310()
    if python is None:
        pytest.skip("no Python 3.10 runs here")
    argvs = [argv for argv, _ in readme_commands()] + [
        ["scan", "--l", "3", "--n", "8", "--e", "3", "--charge", "0,1,2", "--p", "3",
         "--json", "a.json", "--csv", "a.csv"],
        ["scan", "--l", "3", "--n", "6", "--e", "2", "--charge=-3,5,2", "--p", "3",
         "--json", "b.json", "--csv", "b.csv"],
        # a two-word base: the oracle's wide packing path
        ["defect", "6.4.2|5.3.2.1|4.2.1.1", "--e", "3", "--charge", "0,94,188",
         "--via-polynomial"],
    ]
    old = cli_outputs(python, argvs, tmp_path / "old")
    assert old == cli_outputs(sys.executable, argvs, tmp_path / "new")
    assert {code for code, _ in old[0]} == {0} and len(old[1]) == 6


def test_scan_exit_zero_and_text(capsys):
    code, out, _ = run(capsys, "scan", "--l", "1", "--n", "4", "--e", "2", "--charge", "0")
    assert code == 0
    assert "violations=0" in out
    assert "members: 4 3.1 2.2 2.1.1 1.1.1.1" in out


def test_scan_rank_zero(capsys):
    code, out, _ = run(capsys, "scan", "--l", "2", "--n", "0", "--e", "2", "--charge", "0,0")
    assert code == 0
    assert "defect=0" in out


def test_scan_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "scan", "--l", "2", "--n", "2", "--e", "1", "--charge", "0,0")
    assert code == 2
    code, out, err = run(capsys, "scan", "--l", "2", "--n", "2", "--e", "2", "--charge", "0")
    assert (code, out) == (2, "")
    assert "has length 1, expected 2" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--jobs", "0", "jobs must be positive"), ("--n", "-1", "rank must be nonnegative"),
     ("--l", "0", "level must be at least 1")],
)
def test_scan_argument_out_of_range_exits_2_and_leaves_no_file(
    tmp_path, capsys, flag, value, message
):
    # scan checks its own arguments after the output paths are opened, so
    # the file it created goes again; the library raises the same error
    options = {"--l": "2", "--n": "3", "--e": "2", "--jobs": "1", flag: value}
    path = tmp_path / "r.json"
    argv = [word for pair in options.items() for word in pair]
    code, out, err = run(capsys, "scan", *argv, "--json", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not path.exists()
    l, n = int(options["--l"]), int(options["--n"])
    with pytest.raises(ValueError, match=message):
        scan(l, n, 2, (0,) * l, jobs=int(options["--jobs"]))


def listed(x):
    """x with every tuple, named tuples included, as a list, the way JSON
    reads it back."""
    if isinstance(x, dict):
        return {k: listed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [listed(v) for v in x]
    return x


def test_scan_report_roundtrip(tmp_path):
    report = scan(2, 3, 2, (0, 1))
    text = report.to_json_str()
    again = json.loads(text)
    assert again == listed(report.to_json())
    assert json.dumps(again, indent=2, sort_keys=True) == text


def test_scan_report_json_escapes_member_texts_as_json_dumps():
    # the member arrays are spliced into the dump at each "members": [],
    # so a member holding that literal, quotes, backslashes, non-ASCII
    # letters or control characters must come out as json.dumps writes it
    odd = ('"members": []', 'a"b', "back\\slash", "\u00e9|\u03bb", "tab\there\x01", "1|0")
    blocks = (
        BlockReport((1, 1), odd, 1, 0, '"members": []', (0, 1), True),
        BlockReport((2, 0), ("2|0",), 2, 2, "0|0", (0, 1), False),
        BlockReport((0, 0), (), 0, 0, "0|0", (0, 0), False),
        BlockReport((0, 2), odd[::-1], 2, 2, "0|0", (1, 0), False),
    )
    report = ScanReport(2, 2, 2, (0, 1), 4, blocks)
    assert report.to_json_str() == json.dumps(report.to_json(), indent=2, sort_keys=True)


def test_scan_jobs_deterministic(monkeypatch):
    # through the real pool, cut as if one member repaid a worker process
    monkeypatch.setattr(scanning, "_WORKER_MEMBERS", 1)
    a = scan(2, 4, 2, (0, 1), jobs=1)
    b = scan(2, 4, 2, (0, 1), jobs=2)
    c = scan(2, 4, 2, (0, 1), jobs=3)
    assert a == b == c
    assert a.to_text() == b.to_text() == c.to_text()
    assert a.to_json_str() == c.to_json_str()


def test_scan_csv(tmp_path):
    report = scan(2, 2, 2, (0, 1))
    path = tmp_path / "out.csv"
    write_scan_csv(report, str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["block_id", "residue_key", "multipartition", "weight", "defect", "core"]
    assert len(rows) == 1 + sum(len(b.members) for b in report.blocks)
    with_orbits = tmp_path / "orbits.csv"
    write_scan_csv(report, str(with_orbits), p=2)
    rows = list(csv.reader(with_orbits.read_text().splitlines()))
    assert rows[0][-1] == "orbit_size"
    assert {row[-1] for row in rows[1:]} <= {"1", "2"}


def _sigma_orbit(text, d):
    # the number of distinct shifts by d-packages, by walking sigma
    mp = parse_multipartition(text)
    size, current = 1, sigma(mp, d)
    while current != mp:
        size, current = size + 1, sigma(current, d)
    return size


@pytest.mark.parametrize(
    "l, n, d",
    [(4, 4, 2), (4, 4, 1), (6, 3, 2), (6, 4, 3), (6, 6, 1)],
)
def test_scan_csv_parses_back(tmp_path, l, n, d):
    # every row reads back as its block's fields and the member, with the
    # orbit column a sigma walk; the bytes are what csv.writer writes
    p = l // d
    report = scan(l, n, 3, (0, 1) * (l // 2))
    path = tmp_path / "out.csv"
    write_scan_csv(report, str(path), p)
    expected = [["block_id", "residue_key", "multipartition", "weight", "defect", "core", "orbit_size"]]
    for idx, b in enumerate(report.blocks):
        for m in b.members:
            row = [idx, format_multicharge(b.key), m, b.weight, b.defect, b.core, _sigma_orbit(m, d)]
            expected.append([str(v) for v in row])
    with path.open(newline="") as fh:
        assert list(csv.reader(fh)) == expected
    assert {row[-1] for row in expected[1:]} == {str(k) for k in range(1, p + 1) if p % k == 0}
    reference = io.StringIO()
    csv.writer(reference).writerows(expected)
    assert path.read_bytes() == reference.getvalue().encode()
    write_scan_csv(report, str(path))
    with path.open(newline="") as fh:
        assert list(csv.reader(fh)) == [row[:-1] for row in expected]


@pytest.mark.parametrize("member", ["1,1|0", '1"|0', "1\r|0", "1|\n0"])
def test_scan_csv_rejects_a_member_it_would_quote(monkeypatch, tmp_path, capsys, member):
    block = BlockReport((1, 1), ("1|1", member), 1, 0, "0|0", (0, 1), False)
    report = ScanReport(2, 2, 2, (0, 1), 4, (block,))
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="block 0"):
        write_scan_csv(report, str(path))
    assert not path.exists()
    monkeypatch.setattr("cycloschur.cli.scan", lambda *args: report)
    code, out, err = run(capsys, "scan", "--l", "2", "--n", "2", "--e", "2", "--csv", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and not path.exists()


def test_scan_files_via_cli(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        "scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1",
        "--json", str(json_path), "--csv", str(csv_path),
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["violations"] == 0
    assert csv_path.exists()


def test_scan_detects_seeded_mutation(monkeypatch, capsys):
    import cycloschur.schur

    original = cycloschur.schur.defect_integer

    def broken(mp, charges, e, **kwargs):
        value = original(mp, charges, e, **kwargs)
        return value + (1 if mp.rank == 3 and mp[0].rank == 3 else 0)

    monkeypatch.setattr(scanning.schur, "defect_integer", broken)
    code, out, _ = run(capsys, "scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1")
    assert code == 1
    assert "VIOLATION" in out


def test_scan_flags_uniform_fault_of_the_member_level_defect(monkeypatch):
    # every member's defect_integer is off by one, but only the first
    # member of each block runs it, for the second signature: each block
    # leaves two signatures
    original = scanning.schur.defect_integer

    def broken(mp, charges, e, **kwargs):
        return original(mp, charges, e, **kwargs) + 1

    monkeypatch.setattr(scanning.schur, "defect_integer", broken)
    report = scan(2, 4, 2, (0, 1))
    assert report.blocks and all(b.violation for b in report.blocks)


def test_scan_validates_p_before_output(tmp_path, capsys):
    code, out, _ = run(capsys, "scan", "--l", "2", "--n", "2", "--e", "2", "--p", "3")
    assert (code, out) == (2, "")
    csv_path = tmp_path / "x.csv"
    code, out, _ = run(
        capsys, "scan", "--l", "2", "--n", "2", "--e", "2", "--p", "3", "--csv", str(csv_path)
    )
    assert (code, out) == (2, "")
    assert not csv_path.exists()


@pytest.mark.parametrize("json_output", [False, True])
def test_scan_refuses_p_without_csv(tmp_path, capsys, json_output):
    # orbit sizes go only to the CSV, so --p alone is refused before any
    # file is opened, not ignored
    json_path = tmp_path / "r.json"
    argv = ["scan", "--l", "2", "--n", "2", "--e", "2", "--p", "2"]
    code, out, err = run(capsys, *argv, *(["--json", str(json_path)] if json_output else []))
    assert (code, out, err) == (2, "", "error: --p needs --csv\n")
    assert not json_path.exists()


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_scan_unwritable_path_exits_2(tmp_path, capsys, flag):
    missing = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, "scan", "--l", "1", "--n", "2", "--e", "2", flag, str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["--csv", "--json"])
@pytest.mark.parametrize("bad_first", [True, False])
def test_scan_bad_path_leaves_no_file(tmp_path, capsys, bad, bad_first):
    # whichever path is bad and whichever comes first, the good one is not
    # left behind, and a file that was there keeps its contents
    good = "--json" if bad == "--csv" else "--csv"
    files = [(bad, str(tmp_path / "missing" / "x.out")), (good, str(tmp_path / "ok.out"))]
    if not bad_first:
        files.reverse()
    argv = ["scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1"]
    argv += [token for pair in files for token in pair]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "ok.out").write_text("kept\n")
    assert run(capsys, *argv)[:2] == (2, "")
    assert (tmp_path / "ok.out").read_text() == "kept\n"


@pytest.mark.parametrize("other_present", [False, True], ids=["other-new", "other-present"])
@pytest.mark.parametrize("fault", ["missing-dir", "directory", "dev-full"])
@pytest.mark.parametrize("bad", ["--json", "--csv"])
def test_scan_output_fault_matrix(tmp_path, capsys, bad, fault, other_present):
    # one output path is in a missing directory, is a directory, or is a
    # full device: the scan exits 2 with one error line and nothing on
    # stdout, every file it created is gone, and a file that was there
    # keeps its bytes unless it was written before the failure (the CSV
    # goes before the JSON, and only the full device fails after the open)
    bad_path = {
        "missing-dir": tmp_path / "missing" / "x.out",
        "directory": tmp_path / "dir",
        "dev-full": Path("/dev/full"),
    }[fault]
    if fault == "dev-full" and not bad_path.exists():
        pytest.skip("this system has no /dev/full")
    other, other_path = "--csv" if bad == "--json" else "--json", tmp_path / "other.out"
    (tmp_path / "dir").mkdir()
    if other_present:
        other_path.write_bytes(b"old\n")
    before = sorted(os.listdir(tmp_path))
    argv = ["scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1"]
    code, out, err = run(capsys, *argv, bad, str(bad_path), other, str(other_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before
    assert list((tmp_path / "dir").iterdir()) == []
    if other_present:
        expected = b"old\n"
        if fault == "dev-full" and other == "--csv":
            written = tmp_path / "dir" / "clean.csv"
            write_scan_csv(scan(2, 3, 2, (0, 1)), str(written))
            expected = written.read_bytes()
        assert other_path.read_bytes() == expected


@pytest.mark.parametrize("first", ["--csv", "--json"])
def test_scan_refuses_one_path_for_both_files(tmp_path, capsys, first):
    # the JSON would overwrite the CSV; the same file under two spellings is
    # refused too, before any path is opened
    second = "--json" if first == "--csv" else "--csv"
    (tmp_path / "sub").mkdir()
    same = [str(tmp_path / "same.out"), str(tmp_path / "sub" / ".." / "same.out")]
    argv = ["scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1"]
    code, out, err = run(capsys, *argv, first, same[0], second, same[1])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("first", ["--csv", "--json"])
def test_scan_refuses_two_hard_links_to_one_file(tmp_path, capsys, first):
    # two hard links to one file have different real paths; the JSON would
    # overwrite the CSV, so the pair is refused before either is opened
    second = "--json" if first == "--csv" else "--csv"
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    a.write_text("kept\n")
    os.link(a, b)
    argv = ["scan", "--l", "1", "--n", "2", "--e", "2"]
    code, out, err = run(capsys, *argv, first, str(a), second, str(b))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert a.read_text() == b.read_text() == "kept\n"


def test_scan_refused_member_leaves_no_file(monkeypatch, tmp_path, capsys):
    # the CSV refuses a member after the scan: neither file is left
    block = BlockReport((1, 1), ("1|1", "1,1|0"), 1, 0, "0|0", (0, 1), False)
    report = ScanReport(2, 2, 2, (0, 1), 4, (block,))
    monkeypatch.setattr("cycloschur.cli.scan", lambda *args: report)
    for order in (("--json", "r.json", "--csv", "r.csv"), ("--csv", "r.csv", "--json", "r.json")):
        argv = ["scan", "--l", "2", "--n", "2", "--e", "2"]
        argv += [str(tmp_path / token) if token.startswith("r.") else token for token in order]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "would quote" in err
        assert list(tmp_path.iterdir()) == []


def test_scan_stdout_unchanged_with_files(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1",
        "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"), "--p", "2",
    )
    assert code == 0
    assert out == scan(2, 3, 2, (0, 1)).to_text() + "\n"


class FullStdout(io.StringIO):
    """An unbuffered standard output on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class BufferedFullStdout(io.StringIO):
    """A buffered standard output on a full disk: the flush of any written
    text fails."""

    def flush(self):
        if self.getvalue():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "stdout", [None, FullStdout(), BufferedFullStdout()], ids=["closed", "full", "full-at-flush"]
)
@pytest.mark.parametrize("command", ["scan", "weight"])
def test_failed_stdout_exits_2(tmp_path, capsys, stdout, command):
    # with stdout closed no command runs, and a report that cannot be
    # written to stdout is an I/O error; the scan removes the files it
    # created, also when the report is lost
    paths = [tmp_path / "r.json", tmp_path / "r.csv"]
    argv = {
        "scan": ["scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1",
                 "--json", str(paths[0]), "--csv", str(paths[1])],
        "weight": ["weight", "2.1.1|2.1.1", "--charge", "0,2", "--e", "3"],
    }[command]
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "error: standard output is closed\n" if stdout is None
        else "error: [Errno 28] No space left on device\n"
    )
    assert not any(path.exists() for path in paths)


def test_violating_scan_with_failed_stdout_exits_2(monkeypatch, tmp_path, capsys):
    # the I/O error outranks the violation, and the JSON goes
    real = abacus.count_divisible_hooks
    monkeypatch.setattr(abacus, "count_divisible_hooks", lambda cfg, e: real(cfg, e) + 1)
    path = tmp_path / "r.json"
    argv = ["scan", "--l", "2", "--n", "4", "--e", "2", "--charge", "0,1", "--json", str(path)]
    assert run(capsys, *argv)[0] == 1
    path.unlink()
    with contextlib.redirect_stdout(FullStdout()):
        assert main(argv) == 2
    assert not path.exists()


def test_interrupted_scan_exits_130_and_removes_its_files(monkeypatch, tmp_path, capsys):
    # Ctrl-C is one line on stderr, without a traceback; the scan removes
    # the file it created and keeps the bytes of the one that was there
    created, kept = tmp_path / "r.json", tmp_path / "r.csv"
    kept.write_bytes(b"kept\n")

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("cycloschur.cli.scan", interrupted)
    argv = ["scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1",
            "--json", str(created), "--csv", str(kept)]
    assert run(capsys, *argv) == (130, "", "interrupted\n")
    assert not created.exists()
    assert kept.read_bytes() == b"kept\n"


INTERRUPT = """
import os, signal, sys, time
sys.path.insert(0, sys.argv.pop(1))
from cycloschur import cli

def scan(*args):
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(60)

cli.scan = scan
cli.entrypoint()
"""


def test_sigint_exits_130_without_traceback(tmp_path):
    # a real SIGINT, delivered while the scan runs, ends the process with
    # status 130 and one line on stderr, and the scan's file goes
    import cycloschur

    src = os.path.dirname(os.path.dirname(cycloschur.__file__))
    path = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-c", INTERRUPT, src, "scan", "--l", "2", "--n", "3", "--e", "2",
         "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "interrupted\n")
    assert not path.exists()


WORKER_DIES = """
import os, signal, sys
sys.path.insert(0, sys.argv.pop(1))
from cycloschur import cli, scanning

def die(args):
    os.kill(os.getpid(), signal.SIGKILL)

os.cpu_count = lambda: 2
scanning._WORKER_MEMBERS = 1
scanning._scan_chunk = die
cli.entrypoint()
"""


def test_pool_scan_whose_worker_dies_exits_4_and_removes_its_file(tmp_path):
    # a worker killed by SIGKILL breaks the pool at once: one line, status
    # 4, and the scan's file goes; a pool that waited for it would hang
    import cycloschur

    src = os.path.dirname(os.path.dirname(cycloschur.__file__))
    path = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-c", WORKER_DIES, src, "scan", "--l", "2", "--n", "6", "--e", "2",
         "--charge", "0,1", "--jobs", "2", "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("internal error: BrokenProcessPool(")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert not path.exists()


POOL_INTERRUPTED = """
import os, signal, sys, time
sys.path.insert(0, sys.argv.pop(1))
from cycloschur import cli, scanning

real = scanning._scan_chunk

def interrupt_first(args):
    # the chunk of the first rank vector sends Ctrl-C to the process group
    # while the other worker waits idle, then returns its real result
    if args[4][0] == (args[0], 0):
        time.sleep(0.5)
        os.killpg(os.getpgid(0), signal.SIGINT)
    return real(args)

os.cpu_count = lambda: 2
scanning._WORKER_MEMBERS = 1
scanning._scan_chunk = interrupt_first
cli.entrypoint()
"""


def test_pool_scan_interrupted_by_ctrl_c_prints_one_line(tmp_path):
    # a SIGINT to the whole process group reaches the workers too; they
    # ignore it, so the scan prints only its own line, exits 130 and
    # removes its file
    import cycloschur

    src = os.path.dirname(os.path.dirname(cycloschur.__file__))
    path = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-c", POOL_INTERRUPTED, src, "scan", "--l", "2", "--n", "6", "--e",
         "2", "--charge", "0,1", "--jobs", "2", "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        start_new_session=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "interrupted\n")
    assert not path.exists()


class ClosedStderr(io.StringIO):
    """A standard error whose descriptor is closed: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


WEIGHT_VIOLATION = ["weight", "3.1|2", "--charge", "0,1", "--e", "2"]
# argv and the exit code of a run with working stdout and stderr: the README
# examples and the help print to stdout and exit 0; the failures print nothing
# there, the weight violation with uglov_weight one too high
FAULT_ROWS = [(argv, 0) for argv, _ in readme_commands()] + [
    (["--help"], 0),
    (["scan", "--help"], 0),
    (WEIGHT_VIOLATION, 1),
    (["schur", "1|0", "--charge", "0,0"], 3),
    (["defect", "1.2|x", "--e", "2"], 2),
    (["weight"], 2),
]
FAULTS = {
    "stdout-closed": ("stdout", None),
    "stdout-full": ("stdout", FullStdout),
    "stdout-full-at-flush": ("stdout", BufferedFullStdout),
    "stderr-closed": ("stderr", None),
    "stderr-bad-descriptor": ("stderr", ClosedStderr),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("argv, own", FAULT_ROWS, ids=[" ".join(argv) for argv, _ in FAULT_ROWS])
def test_stream_faults_set_the_exit_code(tmp_path, monkeypatch, capsys, argv, own, fault):
    # a failing stdout is an I/O error (2) of every command that writes to
    # it, the help included, and a closed stdout stops every command; a
    # failing stderr loses the diagnostics but changes neither the exit
    # code nor stdout
    monkeypatch.chdir(tmp_path)
    if argv is WEIGHT_VIOLATION:
        real = weights.uglov_weight
        monkeypatch.setattr(weights, "uglov_weight", lambda mp, s, e: real(mp, s, e) + 1)
    stream, make = FAULTS[fault]
    faulty = None if make is None else make()
    out = io.StringIO()
    redirect = contextlib.redirect_stdout if stream == "stdout" else contextlib.redirect_stderr
    with contextlib.redirect_stdout(out), redirect(faulty):
        code = main(list(argv))
    err = capsys.readouterr().err
    if stream == "stdout":
        assert code == (2 if faulty is None or own == 0 else own)
    else:
        assert code == own
        assert out.getvalue() == "" or code == 0
    assert "Traceback" not in err


GUARD = """
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
import cycloschur.cli
loaded = [sorted(m for m in sys.argv[3:] if m in sys.modules)]
with redirect_stdout(io.StringIO()):
    code = cycloschur.cli.main(["scan", *sys.argv[2].split()])
loaded.append(sorted(m for m in sys.argv[3:] if m in sys.modules))
print(code, loaded)
"""
HEAVY = ["multiprocessing", "concurrent.futures.process", "dataclasses", "inspect"]


def guarded_scan(args):
    """The exit code of ``cycloschur scan`` with these arguments in a fresh
    interpreter, and which of HEAVY were loaded after importing the CLI
    and after the scan; -S keeps site's imports out."""
    import cycloschur

    src = os.path.dirname(os.path.dirname(cycloschur.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", GUARD, src, args, *HEAVY],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_import_and_serial_scan_load_no_pool_and_no_dataclasses():
    # neither importing the CLI nor a jobs=1 scan loads the process pool,
    # and no record needs dataclasses
    assert guarded_scan("--l 2 --n 3 --e 2 --jobs 1") == "0 [[], []]\n"


def test_jobs_2_scan_below_two_workers_worth_opens_no_pool():
    # the 12,230 members of (2, 18) are fewer than 2 * _WORKER_MEMBERS, so
    # --jobs 2 runs the scan in the calling process and never loads the pool
    assert 12230 < 2 * scanning._WORKER_MEMBERS
    assert guarded_scan("--l 2 --n 18 --e 2 --jobs 2") == "0 [[], []]\n"


def clear_caches():
    """Empty every lru_cache of the package, so that what a scan leaves in
    them does not depend on the tests before it."""
    for name, module in list(sys.modules.items()):
        if name == "cycloschur" or name.startswith("cycloschur."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_scan_keeps_no_per_member_cache():
    import cycloschur

    clear_caches()
    report = scan(2, 8, 2, (0, 1))
    members = sum(len(b.members) for b in report.blocks)
    for name in ("abacus", "cli", "groups", "partitions", "scanning", "schur", "weights"):
        module = getattr(cycloschur, name)
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is not None:
                assert info().currsize < members, (name, value)


def test_scan_leaves_no_reference_cycles():
    # the entries and the walk are freed by reference counting alone: with
    # the cyclic collector off, a scan leaves nothing for it to find
    for args in ((2, 8, 2, (0, 1)), (3, 6, 3, (0, 1, 2)), (1, 7, 2, (1,))):
        gc.collect()
        gc.disable()
        try:
            scan(*args)
            assert gc.collect() == 0, args
        finally:
            gc.enable()


def reference_scan(l, n, e, charges):
    """The report of ``scan`` built member by member from the public
    routes, with no per-scan tables; charges sorted in [0, e)."""
    m = n + max(charges) + 1
    grouped = {}
    for mp in enumerate_multipartitions(l, n):
        rv = residue_vector(mp, charges, e)
        cr = core(mp, charges, e, m)
        values = {
            residue_weight(rv, charges),
            cr.weight,
            defect_integer(mp, charges, e),
            count_divisible_hooks(multi_beta(mp, charges, m), e),
        }
        assert len(values) == 1, (mp, charges, e, values)
        row = (format_multipartition(mp), values.pop(), format_multipartition(cr.core), cr.charges)
        grouped.setdefault(rv, []).append(row)
    blocks = []
    for key, rows in grouped.items():
        _, value, core_text, core_charges = rows[0]
        assert {row[1:] for row in rows} == {rows[0][1:]}, (key, rows)
        members = tuple(row[0] for row in rows)
        blocks.append(BlockReport(key, members, value, value, core_text, core_charges, False))
    return ScanReport(l, n, e, tuple(charges), m, tuple(blocks))


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_scan_matches_member_by_member_reference(monkeypatch, l, e):
    # every multicharge the scan normalises to; equal partitions under
    # different charges, and chunks that each build their own tables in
    # the real pool, cut as if one member repaid a worker, must give the
    # reference report
    monkeypatch.setattr(scanning, "_WORKER_MEMBERS", 1)
    for charges in combinations_with_replacement(range(e), l):
        for n in range(7):
            expected = reference_scan(l, n, e, charges)
            for jobs in (1, 2):
                assert scan(l, n, e, charges, jobs=jobs) == expected, (l, n, e, charges, jobs)


def test_scan_cores_are_terminal_in_the_fundamental_domain():
    # the block invariants of the core, on every block of the Tier-1 scan
    # grids: its charges keep the scan's charge sum and lie in the
    # fundamental domain, and under them the core has weight 0 by the
    # residue weight and by the move-by-move reduction, and reduces to itself
    blocks = 0
    for l, e in product((1, 2, 3), (2, 3, 4)):
        for charges in combinations_with_replacement(range(e), l):
            for n in range(7):
                report = scan(l, n, e, charges)
                for b in report.blocks:
                    mp, s = parse_multipartition(b.core), b.core_charges
                    where = (l, n, e, charges, b.key)
                    assert sum(s) == sum(report.charges), where
                    assert in_fundamental_domain(s, e), where
                    assert residue_weight(residue_vector(mp, s, e), s) == 0, where
                    assert uglov_weight(mp, s, e) == 0, where
                    assert core(mp, s, e) == CoreResult(mp, s, 0), where
                    blocks += 1
    assert blocks == 2176


def test_scan_builds_each_entry_once_per_chunk(serial_pool, monkeypatch):
    # each chunk makes one pass per distinct charge, up to the largest rank
    # its members give that charge, and keeps one entry per (partition,
    # charge) its members use, and no other; the chunks run in this
    # process, so every chunk's passes are counted
    passes, entries = [], []
    real_columns, real_chunk = scanning._columns, scanning._scan_chunk

    def counting(s, ranks, layout):
        cols = real_columns(s, ranks, layout)
        passes[-1].append((s, max(ranks)))
        entries[-1].extend((entry[0], s) for col in cols if col is not None for entry in col)
        return cols

    def chunk(args):
        passes.append([])
        entries.append([])
        return real_chunk(args)

    monkeypatch.setattr(scanning, "_columns", counting)
    monkeypatch.setattr(scanning, "_scan_chunk", chunk)
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    for charges, jobs in product(((0, 1), (0, 0)), (1, 2)):
        passes.clear()
        entries.clear()
        assert scan(2, 5, 2, charges, jobs=jobs).violations == 0
        used = [
            {pair for mp in members for pair in zip(mp, charges)}
            for members in chunk_members(2, 5, jobs)
        ]
        tops = [
            sorted({s: max(p.rank for p, t in pairs if t == s) for _, s in pairs}.items())
            for pairs in used
        ]
        texts = [sorted((format_partition(p), s) for p, s in pairs) for pairs in used]
        assert [sorted(chunk) for chunk in passes] == tops, (charges, jobs)
        assert [sorted(chunk) for chunk in entries] == texts, (charges, jobs)


def packed_slots(x, layout):
    """The slots of a packed int: the defect region as one list per
    column, then the hook region."""
    bits, ones, n, e = layout.bits, layout.ones, layout.n, layout.e
    values = [x >> bits * i & ones for i in range(n * e + 2 * layout.m - 1)]
    return [values[j * e : (j + 1) * e] for j in range(n)], values[n * e :]


def list_tables(p, s, layout):
    """The column tables and the window's hook table of p under s, and
    the window indices of its beads."""
    m = layout.m
    beads = abacus.beta_numbers(p, s, m)
    return (
        column_tables(p, s, layout.e, layout.n),
        abacus.hook_table(beads, 1 - m, m - 1, layout.e),
        [x + m - 1 for x in beads],
    )


def check_entry(entry, p, s, layout):
    """Assert that the packed entry of p under s holds its text, its
    residue counts, its column tables and its hook table, and that its own
    term is the pair (c, c) of both routes; return the list tables."""
    n, e = layout.n, layout.e
    text, vp, vq, mask = entry
    key = vp >> layout.shift
    where = (n, e, layout.m, p, s)
    (rows, shifts), (p_vals, q_vals), at = tables = list_tables(p, s, layout)
    assert text == format_partition(p), where
    assert key == sum(c << n.bit_length() * r for r, c in enumerate(residue_counts(p, s, e))), where
    padded = [list(row) for row in rows] + [[0] * e] * (n - len(rows))
    assert packed_slots(vp, layout) == (padded, p_vals), where
    assert packed_slots(vq, layout) == (padded, q_vals), where
    ones = layout.ones
    beads = [ones * (i in at) for i in range(len(q_vals))]
    columns = [[ones * (r == shift) for r in range(e)] for shift in shifts]
    assert packed_slots(mask, layout) == (columns, beads), where
    columns, window = packed_slots(vp & mask, layout)
    assert sum(map(sum, columns)) == sum(map(getitem, rows, shifts)), where
    assert sum(window) == sum(map(p_vals.__getitem__, at)), where
    return tables


def test_packed_terms_match_the_list_tables():
    # every (partition, charge) of the Tier-1 scan grids, windows narrower
    # than e included: one pass per charge lists the partitions of each
    # rank in partitions_of order, the packed entry's slots are the column
    # tables and the hook table, its own term is the pair (c, c) of both
    # routes, and the pair term of any two entries a, c is the pairs (a, c)
    # and (c, a)
    pairs = 0
    for l, e in product((1, 2, 3), (2, 3, 4)):
        for n, top in product(range(7), range(e)):
            layout = scanning._Layout(l, n, e, n + top + 1)
            entries = []
            for s in range(top + 1):
                cols = scanning._columns(s, range(n + 1), layout)
                assert len(cols) == n + 1
                for k, col in enumerate(cols):
                    assert len(col) == len(partitions_of(k)), (l, n, e, top, s, k)
                    for p, entry in zip(partitions_of(k), col):
                        _, vp, vq, mask = entry
                        entries.append((k, vp, vq, mask, check_entry(entry, p, s, layout)))
            for (k_a, vp_a, _, mask_a, tables_a), (k_c, _, vq_c, mask_c, tables_c) in product(
                entries, repeat=2
            ):
                if k_a + k_c > n:
                    continue
                (rows_a, shifts_a), (p_a, _), at_a = tables_a
                (rows_c, shifts_c), (_, q_c), at_c = tables_c
                columns, window = packed_slots((vp_a & mask_c) + (vq_c & mask_a), layout)
                assert sum(map(sum, columns)) == (
                    sum(map(getitem, rows_a, shifts_c)) + sum(map(getitem, rows_c, shifts_a))
                )
                assert sum(window) == (
                    sum(map(q_c.__getitem__, at_a)) + sum(map(p_a.__getitem__, at_c))
                )
                pairs += 1
    assert pairs > 0


def test_slot_width_bounds_every_member():
    # the member total T (scanning._slot_bits derives it) stays below
    # 2^B - 1, so the mod 2^B - 1 read-out of each region is exact, and l
    # times the largest slot of an entry (a row-residue count, at most n,
    # or a P or Q value, at most w // e + 1) stays below 2^B, so the sum of
    # the vp of l components never carries into the next slot
    for l, n, e in product(range(1, 7), range(41), range(2, 9)):
        for m in range(n + 1, n + e + 1):
            w = 2 * m - 1
            bits = scanning._slot_bits(l, n, e, m)
            assert l * l * (n + w * (w // e + 1)) < (1 << bits) - 1, (l, n, e, m)
            assert l * max(n, w // e + 1) < 1 << bits, (l, n, e, m)
    for args in ((0, 3, 2, 4), (1, -1, 2, 1), (1, 3, 1, 4), (1, 3, 2, 3)):
        with pytest.raises(ValueError):
            scanning._slot_bits(*args)
    # the widest slots of the Tier-1 grids, at the largest level, window and e
    for l, n, e, charges in ((5, 5, 2, (0, 0, 1, 1, 1)), (2, 14, 7, (0, 6)), (4, 6, 5, (0, 1, 3, 4))):
        assert scan(l, n, e, charges) == reference_scan(l, n, e, charges), (l, n, e, charges)


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_entries_equal_their_builds(serial_pool, monkeypatch, jobs):
    # on every Tier-1 scan grid, a chunk keeps exactly the entries its
    # members use, each holding the list tables of its (partition, charge)
    # in the scan's layout
    chunks = []
    real_chunk, real_columns = scanning._scan_chunk, scanning._columns

    def recording(args):
        chunks.append((args[-1], {}))
        return real_chunk(args)

    def columns(s, ranks, layout):
        cols = real_columns(s, ranks, layout)
        made = chunks[-1][1]
        for k, col in enumerate(cols):
            for p, entry in zip(partitions_of(k), col or ()):
                made[p, s] = entry
        return cols

    monkeypatch.setattr(scanning, "_scan_chunk", recording)
    monkeypatch.setattr(scanning, "_columns", columns)
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    for l, e in product((1, 2, 3), (2, 3, 4)):
        for charges in combinations_with_replacement(range(e), l):
            for n in range(7):
                chunks.clear()
                scan(l, n, e, charges, jobs=jobs)
                members = list(enumerate_multipartitions(l, n))
                layout = scanning._Layout(l, n, e, n + max(charges) + 1)
                for vectors, made in chunks:
                    used = {
                        pair
                        for mp in members
                        if tuple(p.rank for p in mp) in vectors
                        for pair in zip(mp, charges)
                    }
                    assert made.keys() == used, (l, n, e, charges, jobs)
                    for (p, s), entry in made.items():
                        check_entry(entry, p, s, layout)


def test_scan_flags_hook_mutation_of_one_component(monkeypatch, capsys):
    # the divisible-hook count is one too high for every member whose first
    # component is 2.1 at charge 0, that is for 2.1|0 alone: its block
    # gets a second signature and a route that disagrees
    real = abacus.count_divisible_hooks

    def broken(cfg, e):
        return real(cfg, e) + (cfg.runners[0] == abacus.beta_numbers((2, 1), 0, cfg.m))

    monkeypatch.setattr(abacus, "count_divisible_hooks", broken)
    code, out, _ = run(capsys, "scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1")
    assert code == 1
    flagged = [line for line in out.splitlines() if line.endswith("VIOLATION")]
    assert len(flagged) == 1
    index = out.splitlines().index(flagged[0])
    assert "2.1|0" in out.splitlines()[index + 1].split()


def test_scan_flags_uniform_fault_of_the_member_level_hook_count(monkeypatch):
    # every member's count_divisible_hooks is off by one, but only the
    # first member of each block runs it, for the second signature: each
    # block leaves two signatures
    real = abacus.count_divisible_hooks
    monkeypatch.setattr(abacus, "count_divisible_hooks", lambda cfg, e: real(cfg, e) + 1)
    report = scan(2, 4, 2, (0, 1))
    assert report.blocks and all(b.violation for b in report.blocks)


@pytest.mark.parametrize(
    "weight_off, moves_off", [(1, 0), (0, 1), (1, 1)], ids=["weight", "moves", "both"]
)
def test_scan_flags_uniform_fault_of_a_key_level_route(monkeypatch, weight_off, moves_off):
    # residue_weight and key_core run once per key, after the merge, so
    # each block keeps one signature and its core: only the four-route
    # agreement can flag it, also when the residue weight and the reduction
    # weight agree with each other and not with the defect and hook count
    assert not any(b.violation for b in scan(2, 4, 2, (0, 1)).blocks)
    real_weight, real_core = weights.residue_weight, weights.key_core
    monkeypatch.setattr(
        weights, "residue_weight", lambda key, charges: real_weight(key, charges) + weight_off
    )

    def moved(key, charges):
        result = real_core(key, charges)
        return result._replace(weight=result.weight + moves_off)

    monkeypatch.setattr(weights, "key_core", moved)
    report = scan(2, 4, 2, (0, 1))
    assert report.blocks and all(b.violation for b in report.blocks)


def test_scan_detects_core_mutation(monkeypatch, capsys):
    # the key of 2.1|0 is reduced as the key of 3|0, whose block has the
    # same rank and weight, so the class totals are those of 3|0 while the
    # start potential and the reduction weight stay right: only the core
    # check can see that both blocks now read back the same core
    key = residue_vector(parse_multipartition("2.1|0"), (0, 1), 2)
    other = residue_vector(parse_multipartition("3|0"), (0, 1), 2)
    original = weights.key_core
    cores = [original(k, (0, 1)) for k in (key, other)]
    assert cores[0].weight == cores[1].weight
    assert cores[0][:2] != cores[1][:2]

    def broken(k, charges):
        return original(other if k == key else k, charges)

    monkeypatch.setattr(scanning.weights, "key_core", broken)
    code, out, _ = run(capsys, "scan", "--l", "2", "--n", "3", "--e", "2", "--charge", "0,1")
    assert code == 1
    heads = [line for line in out.splitlines() if line.startswith("block ")]
    assert len(heads) == 2
    for line in heads:
        assert "weight=2 defect=2 core=1|0 core_charges=0,1" in line
        assert line.endswith("VIOLATION")


def test_scan_flags_a_rotated_key_table(monkeypatch):
    # the key region of every entry's vp and vq counts each box one residue
    # up, so the walk files every member under the next class's key: the
    # two blocks of (2, 3, 2) swap their keys and with them their cores,
    # and the weights and signatures still agree; only the first member's
    # own residue vector shows that the key is wrong
    real = scanning._columns

    def rotated(s, ranks, layout):
        e, bits, shift = layout.e, layout.n.bit_length(), layout.shift

        def rotate(packed):
            counts = [packed >> shift + r * bits & (1 << bits) - 1 for r in range(e)]
            key = sum(count << (r + 1) % e * bits for r, count in enumerate(counts))
            return (packed & (1 << shift) - 1) + (key << shift)

        return [
            col and [(text, rotate(vp), rotate(vq), mask) for text, vp, vq, mask in col]
            for col in real(s, ranks, layout)
        ]

    clean = scan(2, 3, 2, (0, 1))
    monkeypatch.setattr(scanning, "_columns", rotated)
    report = scan(2, 3, 2, (0, 1))
    assert len(clean.blocks) == 2 and clean.violations == 0
    assert [b.members for b in report.blocks] == [b.members for b in clean.blocks]
    assert [(b.key, b.core) for b in report.blocks] == [(b.key, b.core) for b in clean.blocks[::-1]]
    assert [b.violation for b in report.blocks] == [True, True]


def test_scan_detects_shared_core(monkeypatch, capsys):
    # every member of one block reads back the core of another block: each
    # block stays constant, and only core injectivity can see it
    blocks = scan(3, 4, 3, (0, 1, 2)).blocks
    i, j = sorted(random.Random(7).sample(range(len(blocks)), 2))
    copied, target = (
        (parse_multipartition(b.core), b.core_charges) for b in (blocks[i], blocks[j])
    )
    original = weights.terminal_core

    def broken(totals, start, base, level, e):
        result = original(totals, start, base, level, e)
        if result[:2] == target:
            return result._replace(core=copied[0], charges=copied[1])
        return result

    monkeypatch.setattr(scanning.weights, "terminal_core", broken)
    code, out, _ = run(capsys, "scan", "--l", "3", "--n", "4", "--e", "3", "--charge", "0,1,2")
    assert code == 1
    flagged = [line for line in out.splitlines() if line.endswith("VIOLATION")]
    assert [line.split(":")[0] for line in flagged] == [f"block {i}", f"block {j}"]


def test_scan_counts_each_violating_block_once(monkeypatch, capsys, tmp_path):
    # block 1 reads back the core of block 0, so exactly those two blocks
    # are flagged, and the text and the JSON count each of them once
    first, second = scan(3, 4, 3, (0, 1, 2)).blocks[:2]
    copied, target = ((parse_multipartition(b.core), b.core_charges) for b in (first, second))
    original = weights.terminal_core

    def broken(totals, start, base, level, e):
        result = original(totals, start, base, level, e)
        if result[:2] == target:
            return result._replace(core=copied[0], charges=copied[1])
        return result

    monkeypatch.setattr(scanning.weights, "terminal_core", broken)
    path = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "scan", "--l", "3", "--n", "4", "--e", "3", "--charge", "0,1,2", "--json", str(path)
    )
    assert code == 1
    assert out.count("VIOLATION") == 2
    assert out.endswith(" violations=2\n")
    assert json.loads(path.read_text())["violations"] == 2


class SerialPool:
    """An in-process stand-in for ProcessPoolExecutor, so that test doubles
    reach every chunk of a scan with jobs > 1; it records the pool sizes
    it was opened with.  It never calls the worker initializer, which in
    this process would make the test run ignore Ctrl-C."""

    opened: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def serial_pool(monkeypatch):
    """Scans open SerialPool in place of the process pool and cut their
    chunks as if one member repaid a worker process, so that jobs > 1
    cuts a small grid into min(jobs, CPU count, members) chunks."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(scanning, "_WORKER_MEMBERS", 1)


def chunk_members(l, n, jobs):
    """The members of each chunk of a level-l rank-n scan cut `jobs` ways,
    listed: the members of one rank vector go together to chunk
    i * jobs // total, where i is the index of the first of them."""
    members = list(enumerate_multipartitions(l, n))
    chunks = {}
    for _, run in groupby(enumerate(members), key=lambda item: [p.rank for p in item[1]]):
        run = list(run)
        chunks.setdefault(run[0][0] * jobs // len(members), []).extend(mp for _, mp in run)
    return list(chunks.values())


def test_scan_merge_flags_chunk_mismatch(serial_pool, monkeypatch):
    # only the second chunk builds its entries with a masked defect slot of
    # vp one too high, so each member's own defect term is; a block met by
    # both chunks gets a clean signature from the first and a faulty one
    # from the second, and the merge must keep both
    partials = []
    real_chunk, real_columns = scanning._scan_chunk, scanning._columns

    def chunk(args):
        blocks = real_chunk(args)
        # a copy, since the merge extends the partial blocks in place
        partials.append({key: set(signatures) for key, (_, signatures) in blocks.items()})
        return blocks

    def columns(*args):
        cols = real_columns(*args)
        if not partials:
            return cols
        # the lowest masked slot is column 0's, in the defect region
        return [
            col and [(text, vp + (mask & -mask), vq, mask) for text, vp, vq, mask in col]
            for col in cols
        ]

    monkeypatch.setattr(scanning, "_scan_chunk", chunk)
    monkeypatch.setattr(scanning, "_columns", columns)
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    report = scan(2, 6, 2, (0, 1), jobs=2)
    first, second = partials
    shared = first.keys() & second.keys()
    assert shared
    for key in shared:
        assert len(first[key]) == 1 and len(first[key] | second[key]) > 1, key
    # a block is flagged exactly when the second chunk met it; the chunks
    # keep their keys packed, n.bit_length() bits per class
    bits = (6).bit_length()
    packed = [sum(count << r * bits for r, count in enumerate(b.key)) for b in report.blocks]
    assert [b.violation for b in report.blocks] == [key in second for key in packed]


def test_scan_starts_no_more_workers_than_chunks(serial_pool, monkeypatch):
    # at most one worker per nonempty chunk, at most os.cpu_count() chunks
    # and at most one chunk per M members, M = _WORKER_MEMBERS; the pool is
    # the in-process double, so no process is started
    cases = [
        # cpus, level, rank, jobs, M, pool sizes
        (64, 1, 1, 8, 1, []),  # one rank vector, one chunk: no pool
        (2, 1, 6, 2, 1, []),  # 11 members, still one rank vector
        (64, 2, 3, 64, 1, [4]),  # one worker per rank vector
        # the 4 vectors of 3, 2, 2 and 3 members go to chunks 0, 1, 2, 2
        (4, 2, 3, 64, 1, [3]),
        (3, 2, 6, 20000, 1, [3]),
        (None, 2, 3, 64, 1, []),  # an unknown CPU count counts as one
        # 65 = 2M - 1 members are one chunk, 20 = 2M members two
        (64, 2, 6, 64, 33, []),
        (64, 2, 4, 64, 10, [2]),
        (64, 2, 4, 1, 10, []),
        (1, 2, 4, 64, 10, []),
        # 20 members, M = 6: three chunks, unless jobs or the CPUs cap them
        (64, 2, 4, 64, 6, [3]),
        (64, 2, 4, 2, 6, [2]),
        (2, 2, 4, 64, 6, [2]),
    ]
    for cpus, level, rank, jobs, least, opened in cases:
        charges = tuple(range(level))
        expected = scan(level, rank, 2, charges)
        monkeypatch.setattr(SerialPool, "opened", [])
        monkeypatch.setattr(scanning.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(scanning, "_WORKER_MEMBERS", least)
        assert scan(level, rank, 2, charges, jobs=jobs) == expected
        assert SerialPool.opened == opened, (cpus, level, rank, jobs, least)


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_reads_each_core_once_per_block_key(serial_pool, monkeypatch, jobs):
    # the merge reduces each key and packs and reads back its core once,
    # however many chunks met its block; the chunks run in this process, so
    # a call from one of them would be counted too
    calls = []

    def counting(name):
        real = getattr(weights, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("key_core", "terminal_core"):
        monkeypatch.setattr(weights, name, counting(name))
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    report = scan(2, 6, 2, (0, 1), jobs=jobs)
    assert report.violations == 0
    keys = sum(
        len({residue_vector(mp, (0, 1), 2) for mp in members})
        for members in chunk_members(2, 6, jobs)
    )
    # with two chunks some block is met by both
    assert (keys > len(report.blocks)) == (jobs > 1)
    blocks = len(report.blocks)
    assert sorted(calls) == ["key_core"] * blocks + ["terminal_core"] * blocks


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_runs_the_member_level_routes_once_per_block(serial_pool, monkeypatch, jobs):
    # the walk builds no member; only the merge parses the first member of
    # each block and runs it through the member-level routes, once per
    # block however many chunks met it; the chunks run in this process, so
    # a call from one of them would be counted too
    calls = []

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    recording(scanning, "parse_multipartition")
    recording(abacus, "multi_beta")
    recording(scanning.schur, "defect_integer")
    recording(abacus, "count_divisible_hooks")
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    report = scan(2, 6, 2, (0, 1), jobs=jobs)
    assert report.violations == 0
    keys = sum(
        len({residue_vector(mp, (0, 1), 2) for mp in members})
        for members in chunk_members(2, 6, jobs)
    )
    # with two chunks some block is met by both
    assert (keys > len(report.blocks)) == (jobs > 1)
    expected = []
    for block in report.blocks:
        mp = parse_multipartition(block.members[0])
        beads = multi_beta(mp, (0, 1))
        expected += [
            ("parse_multipartition", (block.members[0],)),
            ("multi_beta", (mp, (0, 1))),
            ("defect_integer", (mp, (0, 1), 2)),
            ("count_divisible_hooks", (beads, 2)),
        ]
    assert calls == expected


def test_scan_report_ignores_the_chunking_under_a_member_level_fault(serial_pool, monkeypatch):
    # defect_integer is one too high on a single member, the first member
    # its block meets in the second chunk of a jobs=2 scan but not the
    # block's own first member: the member-level routes run only on a
    # block's first member, so neither job count sees the fault, and when
    # the fault sits on that first member both flag the block
    first, second = chunk_members(2, 6, 2)
    firsts = {}
    for mp in first:
        firsts.setdefault(residue_vector(mp, (0, 1), 2), mp)
    # the first member of the second chunk whose block the first chunk met
    met = next(mp for mp in second if residue_vector(mp, (0, 1), 2) in firsts)
    assert format_multipartition(met) == "2|4"
    real = scanning.schur.defect_integer
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 2)
    for faulty, flagged in ((met, False), (firsts[residue_vector(met, (0, 1), 2)], True)):

        def broken(member, charges, e, faulty=faulty):
            return real(member, charges, e) + (member == faulty)

        monkeypatch.setattr(scanning.schur, "defect_integer", broken)
        serial, pooled = scan(2, 6, 2, (0, 1)), scan(2, 6, 2, (0, 1), jobs=2)
        assert pooled == serial
        assert pooled.to_text() == serial.to_text()
        faulty_text = format_multipartition(faulty)
        assert [b.violation for b in serial.blocks] == [
            flagged and faulty_text in b.members for b in serial.blocks
        ]
        assert serial.violations == flagged


def test_scan_cuts_at_every_rank_vector_boundary(serial_pool, monkeypatch):
    # 51 members in 15 rank vectors: with jobs = 51 every chunk holds one
    # vector, and the other job counts cut between vectors at other places
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 64)
    assert count_multipartitions(3, 4) == 51
    expected = scan(3, 4, 2, (0, 0, 1))
    for jobs in range(1, 52):
        report = scan(3, 4, 2, (0, 0, 1), jobs=jobs)
        assert report == expected, jobs
        assert report.to_text() == expected.to_text(), jobs


def test_scan_chunks_are_runs_of_whole_rank_vectors(serial_pool, monkeypatch):
    # each chunk walks a contiguous run of whole rank vectors, each vector
    # in the chunk where its first member falls, and no chunk is empty
    runs = []
    real_chunk = scanning._scan_chunk

    def recording(args):
        runs.append(list(args[-1]))
        return real_chunk(args)

    monkeypatch.setattr(scanning, "_scan_chunk", recording)
    monkeypatch.setattr(scanning.os, "cpu_count", lambda: 64)
    for l, n, jobs in product((1, 2, 3), range(7), (1, 2, 3, 5, 64)):
        runs.clear()
        scan(l, n, 3, tuple(range(l)), jobs=jobs)
        expected = [
            list(dict.fromkeys(tuple(p.rank for p in mp) for mp in members))
            for members in chunk_members(l, n, jobs)
        ]
        assert runs == expected, (l, n, jobs)
        assert sum(runs, []) == list(rank_vectors(n, l)), (l, n, jobs)


@pytest.mark.parametrize("field", ["defect", "hook_count"])
def test_scan_flags_a_fault_in_the_nested_sums(monkeypatch, capsys, field):
    # a masked slot of the defect or the hook region of vp is one too high
    # for 2.1 at charge 0, which sits at components 0 and 1, so its own pair
    # (c, c) term of that route is: the member-level routes never read it,
    # so every block holding a member with that component, and no other,
    # gets a second signature
    real = scanning._columns

    def broken(s, ranks, layout):
        cols = real(s, ranks, layout)
        for col in cols if s == 0 else ():
            for i, (text, vp, vq, mask) in enumerate(col or ()):
                if text == "2.1":
                    region = mask if field == "defect" else mask >> layout.split << layout.split
                    col[i] = (text, vp + (region & -region), vq, mask)
        return cols

    clean = scan(3, 5, 2, (0, 0, 1))
    affected = [
        any("2.1" in member.split("|")[:2] for member in b.members) for b in clean.blocks
    ]
    assert 0 < sum(affected) < len(affected)
    monkeypatch.setattr(scanning, "_columns", broken)
    code, out, _ = run(capsys, "scan", "--l", "3", "--n", "5", "--e", "2", "--charge", "0,0,1")
    assert code == 1
    heads = [line for line in out.splitlines() if line.startswith("block ")]
    assert [line.endswith("VIOLATION") for line in heads] == affected


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(totals, start, base, level, e):
        raise ArithmeticError("the reduction potential must fall by a multiple of e")

    monkeypatch.setattr(scanning.weights, "terminal_core", broken)
    code, out, err = run(capsys, "scan", "--l", "2", "--n", "3", "--e", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ArithmeticError") and err.count("\n") == 1
