"""CLI behavior: verbs, formats, determinism, exit codes, round-trips."""

import json

import pytest

from nonloose.atlas import classify
from nonloose.cli import main
from nonloose.serialize import atlas_from_dict, atlas_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "1", "5")
    assert code == 1 and "|q| > p > 1" in err
    code, _, err = run(capsys, "classify", "2", "4")
    assert code == 1
    code, _, err = run(capsys, "paths", "3", "2")
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        run(capsys, "unknownverb")
    assert exc.value.code == 1


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "5", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "atlas-v1"
    assert len(data["structures"]) == 12
    atlas = classify(5, 8, data["max_torsion2"])
    assert atlas_from_dict(data) == atlas
    assert atlas_from_dict(atlas_to_dict(atlas)) == atlas


def test_classify_deterministic(capsys):
    first = run(capsys, "classify", "5", "-8", "--format", "json")
    second = run(capsys, "classify", "5", "-8", "--format", "json")
    assert first == second


def test_paths_output(capsys):
    code, out, _ = run(capsys, "paths", "5", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["P1"] == ["8/5", "3/2", "1"]
    assert data["P2"] == ["8/5", "5/3", "2", "inf"]
    assert data["blocks"][0] == {
        "index": 1,
        "side": "P1",
        "vertices": ["8/5", "3/2"],
        "in_truncation": True,
    }


def test_decorations_output(capsys):
    code, out, _ = run(capsys, "decorations", "2", "-3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 4
    by_dec = {row["decoration"]: row for row in data["classes"]}
    assert by_dec["P1:+|P2:-"]["d3"] == 2
    assert by_dec["P1:-|P2:-"]["tight"] is True


def test_surgery_output(capsys):
    code, out, _ = run(
        capsys, "surgery", "5", "8", "--decoration", "P1:++|P2:+++",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == -4 and data["chi"] == 7
    assert data["d3"] == 1
    assert data["linking_matrix"][0] == [-4, -2, -1, -1, -1, -1]
    assert data["rational_coefficients"] == ["-5/3", "-8/3"]


def test_invariants_output(capsys):
    code, out, _ = run(
        capsys, "invariants", "2", "-5", "--decoration", "P1:-|P2:++",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["R"] == 13 and data["cross_check"] is True
    assert data["d3"] == 4


def test_mountain_ascii(capsys):
    code, out, _ = run(
        capsys, "mountain", "2", "-3", "--d3", "2", "--tb-min", "-2",
        "--tb-max", "3",
    )
    assert code == 0
    rows = out.splitlines()
    crossing_row = next(r for r in rows if r.strip().startswith("1 "))
    assert "E" in crossing_row
    assert any("*" in r for r in rows)


def test_mountain_svg(capsys):
    code, out, _ = run(
        capsys, "mountain", "5", "8", "--d3", "1", "--tb-min", "28",
        "--tb-max", "41", "--format", "svg",
    )
    assert code == 0
    assert out.startswith("<svg") and "</svg>" in out


def test_oversize_classify_refused_before_the_climb(capsys, monkeypatch):
    # (5,8) at max_torsion2 = 20000 would print about 80 MB; the size
    # estimate refuses it before any orbit is climbed, with one error line
    import nonloose.atlas as atlas

    def no_climb(p, q):
        raise AssertionError(f"climbed ({p},{q})")

    monkeypatch.setattr(atlas, "orbit_climbs", no_climb)
    for verb in (["classify", "5", "8"], ["mountain", "5", "8", "--d3", "1"]):
        code, out, err = run(capsys, *verb, "--max-torsion2", "20000")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: (5,8) at max_torsion2 = 20000") and "ATLAS_MAX_BYTES" in err
    monkeypatch.setenv("ATLAS_MAX_BYTES", "1000")
    code, _, err = run(capsys, "classify", "3", "7", "--max-torsion2", "7")
    assert code == 1 and "above the limit of 1000" in err


def test_default_atlas_limit_admits_the_panels():
    # the largest atlases the tests, the byte gate (t = 2 and 4), perfbench
    # (t = 2) and the CLI default (t = 4) build, against the default limit
    from nonloose.atlas import MAX_ATLAS_BYTES, _atlas_bytes
    from nonloose.decorations import class_counts
    from nonloose.paths import knot

    for p, q in [(2, -4001), (2, 10001), (233, 377), (89, 144), (2, -1001), (7, -100)]:
        m, _, t2 = class_counts(p, q)
        assert _atlas_bytes(knot(p, q), m, t2, 4) <= MAX_ATLAS_BYTES, (p, q)


def test_mountain_window_guard(capsys, monkeypatch):
    code, _, err = run(
        capsys, "mountain", "5", "8", "--d3", "1", "--tb-min", "-10000",
        "--tb-max", "10000",
    )
    assert code == 1 and "ATLAS_MAX_CELLS" in err
    monkeypatch.setenv("ATLAS_MAX_CELLS", "100000000")
    code, out, _ = run(
        capsys, "mountain", "2", "3", "--d3", "1", "--tb-min", "-40",
        "--tb-max", "40",
    )
    assert code == 0


def test_invalid_atlas_max_bytes_refused(capsys, monkeypatch):
    # a limit that is not an integer is a usage error naming the variable and
    # its value
    monkeypatch.setenv("ATLAS_MAX_BYTES", "abc")
    code, out, err = run(capsys, "classify", "5", "8", "--max-torsion2", "9")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: ATLAS_MAX_BYTES must be an integer, got 'abc'"]


def test_atlas_limit_read_on_a_cached_atlas(capsys, monkeypatch):
    # the limit is read on every classify call, before the atlas cache, so an
    # atlas this process already holds is refused like a fresh one
    classify(5, 8, 4)
    for value, message in (("1000", "above the limit of 1000"),
                           ("abc", "ATLAS_MAX_BYTES must be an integer, got 'abc'")):
        monkeypatch.setenv("ATLAS_MAX_BYTES", value)
        code, out, err = run(capsys, "classify", "5", "8")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err


def test_invalid_atlas_max_cells_refused(capsys, monkeypatch):
    monkeypatch.setenv("ATLAS_MAX_CELLS", "1e4")
    code, out, err = run(capsys, "mountain", "5", "8", "--d3", "1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: ATLAS_MAX_CELLS must be an integer, got '1e4'"]


def test_verify_empty_range_refused(capsys):
    # below p = 2 or |q| = 3 there is no knot class for the checks to examine
    for pmax, qmax in (("1", "1"), ("1", "14"), ("7", "2")):
        code, out, err = run(capsys, "verify", "--pmax", pmax, "--qmax", qmax)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: verify needs --pmax >= 2 and --qmax >= 3, got {pmax} and {qmax}"
        ]
    code, out, _ = run(capsys, "verify", "--pmax", "2", "--qmax", "3")
    assert code == 0 and out.count("PASS") == 7


def test_mountain_inverted_window_refused(capsys):
    for fmt in ("ascii", "svg", "json"):
        code, out, err = run(
            capsys, "mountain", "5", "8", "--d3", "1", "--tb-min", "10",
            "--tb-max", "0", "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: empty tb window: tb min 10 > tb max 0"]


def test_malformed_decoration_refused(capsys):
    # a chunk without ':' gets the format message, not a dict() error, and
    # so does a repeated side, which is refused rather than overwritten
    for verb, text in (
        ("surgery", "P1++|P2:+++"),
        ("invariants", "P1:++|P2"),
        ("surgery", "P1:--|P1:++|P2:+++"),
    ):
        code, out, err = run(capsys, verb, "5", "8", "--decoration", text)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: decoration must look like 'P1:+-|P2:++-', got {text!r}"
        ]


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--pmax", "3", "--qmax", "8")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7 and all(l.startswith("PASS") for l in lines)


def test_verify_failure_exits_2(capsys, monkeypatch):
    # one failing check prints its FAIL line and makes verify exit 2
    import nonloose.checks as checks

    monkeypatch.setattr(checks, "run_all", lambda pmax, qmax: iter([("counting formulas", False, "m off by one")]))
    code, out, err = run(capsys, "verify")
    assert (code, out, err) == (2, "FAIL  counting formulas: m off by one\n", "")


def test_verify_passes_under_optimize():
    # the cross-checks verify runs go through farey.audit, which python -O keeps
    import subprocess
    import sys

    cmd = [sys.executable, "-O", "-m", "nonloose.cli", "verify", "--pmax", "5", "--qmax", "12"]
    proc = subprocess.run(cmd, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.decode().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7 and all(l.startswith("PASS") for l in lines)


def test_classify_deterministic_across_processes():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "nonloose.cli", "classify", "7", "-9", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second and first


def test_broken_pipe_exits_quietly():
    import os
    import subprocess
    import sys

    # default (buffered) stdout; 3.5 MB of JSON overflows the pipe buffer, so
    # the write fails once the reader has gone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cmd = [sys.executable, "-m", "nonloose.cli", "classify", "2", "-1001", "--format", "json"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_audits_survive_optimize():
    import subprocess
    import sys

    # a wrong merge offset in the peak ladder breaks the diamond-peak
    # cross-check of (5,8); the audit must fire with asserts stripped, and
    # the CLI must exit 2
    code = (
        "import nonloose.atlas as a, nonloose.cli as c; "
        "ladder = a._peak_ladder; "
        "a._peak_ladder = lambda pair: {j: (0, n) for j, (_, n) in ladder(pair).items()}; "
        "raise SystemExit(c.main(['classify', '5', '8']))"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "audit failed: diamond peaks must be merge-offset apart"
    ]


def test_broken_decomposition_is_an_audit(capsys, monkeypatch):
    # a P2 truncation cut short after one edge leaves the rest of P2 to merge
    # into a truncated block; decompose_blocks reports it as an audit
    import nonloose.paths as paths

    monkeypatch.setattr(
        paths, "p2_truncated", lambda pair: paths.FareyPath(pair.p2.vertices[:2])
    )
    code, out, err = run(capsys, "paths", "5", "8")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "audit failed: integer-run suffix merged into a truncated block"
    ]
