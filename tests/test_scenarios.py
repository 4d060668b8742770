import copy
import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhdext import scenarios
from nbhdext.cech import Solved
from nbhdext.cli import main as cli_main
from nbhdext.errors import (
    EngineError,
    ParseError,
    SchemaVersionError,
    UnknownScenario,
)
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.scenarios import (
    generate_builtin,
    load_scenario,
    run_pipeline,
    save_scenario,
    scenario_from_json,
    validate_scenario,
)

F = Fraction


@pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
def test_builtin_names_round_trip(tmp_path, name):
    s = generate_builtin(name, d=2)
    path = tmp_path / "s.json"
    save_scenario(s, path.as_posix())
    loaded = load_scenario(path.as_posix())
    assert loaded.dumps() == s.dumps()
    # saving the loaded copy is byte-identical
    path2 = tmp_path / "s2.json"
    save_scenario(loaded, path2.as_posix())
    assert path.read_bytes() == path2.read_bytes()


# SHA-256 of generate_builtin(name, d, twist).dumps(): negative, zero and
# positive d for every builtin, three twists for each twisted family, and
# p1_in_line_bundle at |m| = 7, where its window widens past the default 6
SCENARIO_DIGESTS = {
    ("affine_split", -2, 0): "2595d14a3969be8871283666bcb1c6bbdfd71d5579d54a4e3f70b05f60c4ed8d",
    ("affine_split", 0, 0): "2595d14a3969be8871283666bcb1c6bbdfd71d5579d54a4e3f70b05f60c4ed8d",
    ("affine_split", 2, 0): "2595d14a3969be8871283666bcb1c6bbdfd71d5579d54a4e3f70b05f60c4ed8d",
    ("line_in_p2", -2, 0): "70ddbdcf009dd721688b5cfc4ad1d82f0a45412daf71be12195d0b7d449334d9",
    ("line_in_p2", -2, 1): "92068a4cbba1281f9b97009f282eb5efde494156e01961e0f2ff9dbe4bb75cb2",
    ("line_in_p2", -2, F(-1, 2)): "9b3bdc0dbb42a6a5d9455821cc742e548411bccdd65996cd907545a520bc6a41",
    ("line_in_p2", 0, 0): "2cb0d4cc2993bca5c4828d2bb6279cf844b8c924d0595ad2df14662dd4abc94b",
    ("line_in_p2", 0, 1): "0d4029d4a7caf12020b2bd6671ebd68268df619b6f8e1b190abaed31354dd90e",
    ("line_in_p2", 0, F(-1, 2)): "6c8fbd58611307090ef6070236b821eba82a5523489aeaf7c8a4f0593e91faac",
    ("line_in_p2", 2, 0): "7d7b140978c5bf90f1ad6bf71bd9c845a7467ab4fd4385494a99a16e3b6a8868",
    ("line_in_p2", 2, 1): "00e6989ed3dee3efecfc8afd7cbbf2d42d2d937d13966d3c90beb69926c52256",
    ("line_in_p2", 2, F(-1, 2)): "631a306c9bc8c436e489f1080bc7b19aaed9bbda835a4f796ef2990a1fe2b14a",
    ("diagonal_p1xp1", -2, 0): "8093ea0371ff0303a96fa8f1e45e266e1499f0879ce9f815d0c4a3c4d38636b7",
    ("diagonal_p1xp1", 0, 0): "5c949d392bd7b964c22d57e4408aef8099227becbbe0c66a7d8191ff7618897a",
    ("diagonal_p1xp1", 2, 0): "dfb4a1ce146c78543e2f81a7936e3e8d2cb3bf3b8840aa72f5da8b241d0800a8",
    ("hyperplane_p2_in_p3", -2, 0): "a88fc4f384d4bd6f3649439bca334dbf589f9cb3f7bdf8f981fe77d37c426bf2",
    ("hyperplane_p2_in_p3", -2, 1): "73da3c42ca7ab18e12f76b2b7e472c2d867a9de763cbe60e92d95064450aca15",
    ("hyperplane_p2_in_p3", -2, F(-1, 2)): "fed264e5316d11f8cb92a72275559025a718d7fd45f6c2c69be0995ac5a54583",
    ("hyperplane_p2_in_p3", 0, 0): "ed62eb722de7df174fadb9e062c9234cedae66fa5724d2432bb761571352899d",
    ("hyperplane_p2_in_p3", 0, 1): "883190d478b28a5ab4fc1b6187372d062927debedee4a3e848e47c8a522033db",
    ("hyperplane_p2_in_p3", 0, F(-1, 2)): "8f43b042f718aa1008432cfe0b2310923e08384a203d2f3fc6baac6704032a5b",
    ("hyperplane_p2_in_p3", 2, 0): "cecda9a1fa4dc9e188a782c5ac75ddc535ebeca2a25b00c2637c3edb86c7b099",
    ("hyperplane_p2_in_p3", 2, 1): "74069e8bf5a06fc3f05e0136515c809d33b82b5a072b3ea250c02b0bf45b003e",
    ("hyperplane_p2_in_p3", 2, F(-1, 2)): "4ea1482fe731dc620f35fec48ea5df0a9743b94a0a84baa663a013fc5932e629",
    ("p1_in_line_bundle", -2, 0): "f3756871331711675f4bd67107143d039340ec9a2caa9a7067d4565ca1019e57",
    ("p1_in_line_bundle", 0, 0): "d712fa51a3cd86984e8118718723c0ad20fdd11cf2592182be5cb96bf1853a7a",
    ("p1_in_line_bundle", 2, 0): "517d39445ad36df3797e1ed6ac8c7c74339fbf1211d5778568f01f2b01c1826f",
    ("p1_in_line_bundle", 7, 0): "7fb71831a6f96c6b320d93d2a72a719f9f903352e141e86bd27fdca3bc812609",
    ("p1_in_line_bundle", -7, 0): "160b43da9b2f3cf87ee85fa537ea8b0f613e32fff8e4092be7fc77c4b72bd85e",
}


def test_generated_scenarios_match_their_digests():
    assert {name for name, _, _ in SCENARIO_DIGESTS} == set(scenarios.BUILTIN_NAMES)
    for (name, d, tw), digest in SCENARIO_DIGESTS.items():
        text = generate_builtin(name, d=d, twist=tw).dumps()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, d, tw)


def test_every_builtin_validates():
    cases = [
        ("affine_split", 0, 0),
        ("line_in_p2", 3, 0),
        ("line_in_p2", -2, 1),
        ("diagonal_p1xp1", 2, 0),
        ("hyperplane_p2_in_p3", 1, 0),
        ("hyperplane_p2_in_p3", -1, 1),
        ("p1_in_line_bundle", 4, 0),
    ]
    for name, d, tw in cases:
        s = generate_builtin(name, d=d, twist=tw)
        log = validate_scenario(s)
        assert log.ok, (name, [e for e in log.entries if not e.ok])


def test_unknown_builtin():
    with pytest.raises(UnknownScenario):
        generate_builtin("moebius_strip")


@pytest.mark.parametrize("d", [1.5, 1.0, F(1), "1"])
def test_builtin_degree_must_be_an_int(d):
    # line_in_p2 at d = 1.5 used to build O(1)
    with pytest.raises(ParseError, match="must be an int"):
        generate_builtin("line_in_p2", d=d)


def test_malformed_exponent_vector_names_the_field():
    doc = generate_builtin("line_in_p2", d=1).to_json()
    doc["overlaps"][0]["forward_u"][0][0][0] = [1]  # wrong arity
    with pytest.raises(ParseError) as err:
        scenario_from_json(doc)
    assert "forward_u" in str(err.value)


@pytest.mark.parametrize("path, field", [
    (("overlaps", 0, "forward_u", 0), "overlaps[0].forward_u[0]"),
    (("overlaps", 0, "forward_t", 0), "overlaps[0].forward_t[0]"),
    (("overlaps", 0, "backward_u", 0), "overlaps[0].backward_u[0]"),
    (("overlaps", 0, "backward_t", 0), "overlaps[0].backward_t[0]"),
    (("bundle", "transitions", "0,1", 0, 0), "bundle.transitions['0,1'][0][0]"),
    (("bundle", "connections", 1, 0, 0, 0), "bundle.connections[1][0][0][0]"),
])
def test_negative_t_exponent_names_the_field(tmp_path, capsys, path, field):
    """Chart rings never invert a normal variable, so t1^-1 in any polynomial is a parse error.

    A negative tangential exponent is still read: the same term with u1^-2
    in place of t1^-1 parses.
    """
    doc = generate_builtin("line_in_p2", d=1).to_json()
    terms = doc
    for key in path:
        terms = terms[key]
    tangential = copy.deepcopy(doc)
    terms.append([[0, -1], "1"])
    message = f"{field}: exponent vector [0, -1] has a negative t-exponent"
    with pytest.raises(ParseError) as err:
        scenario_from_json(doc)
    assert str(err.value) == message
    terms = tangential
    for key in path:
        terms = terms[key]
    terms.append([[-2, 0], "1"])
    scenario_from_json(tangential)
    scn = tmp_path / "negative_t.json"
    scn.write_text(json.dumps(doc))
    for verb in ("validate", "obstruct"):
        assert cli_main([verb, scn.as_posix()]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_floats_rejected(tmp_path):
    doc = generate_builtin("line_in_p2", d=1).to_json()
    text = json.dumps(doc).replace('"schema_version": 1', '"schema_version": 1, "noise": 0.5')
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_scenario(path.as_posix())


def test_schema_version_gate():
    doc = generate_builtin("line_in_p2", d=1).to_json()
    doc["schema_version"] = 99
    with pytest.raises(SchemaVersionError):
        scenario_from_json(doc)


def test_injected_bundle_cocycle_failure_pinpoints_triple():
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    s.g[(0, 2)] = s.g[(0, 2)].scale(F(3))
    log = validate_scenario(s)
    assert not log.ok
    bad = [e for e in log.entries if not e.ok]
    assert any(e.check == "bundle_cocycle" and "0, 1, 2" in e.location for e in bad)


def test_injected_chart_cocycle_failure():
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    o = [ov for ov in s.overlaps if ov.pair == (0, 2)][0]
    o.forward_u = (o.forward_u[0] * 2, o.forward_u[1])
    log = validate_scenario(s)
    assert not log.ok
    assert any(e.check in ("cocycle", "transition_inverse") for e in log.entries if not e.ok)


def _entries(log, check, location):
    return [e for e in log.entries if e.check == check and e.location == location]


@pytest.mark.parametrize("broken", [(0, 2), (1, 2)])
def test_shared_substitution_still_reports_a_broken_chart_cocycle(broken):
    # (0, 1) stays adapted and inverse, so the triple reuses its substitution
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    o = [ov for ov in s.overlaps if ov.pair == broken][0]
    o.forward_u = (o.forward_u[0] * 2, o.forward_u[1])
    log = validate_scenario(s)
    assert [e.ok for e in _entries(log, "transition_inverse", "overlap (0, 1)")] == [True]
    (cocycle,) = _entries(log, "cocycle", "triple (0, 1, 2)")
    assert not cocycle.ok
    assert cocycle.detail.startswith("chart cocycle fails on generator ")


@pytest.mark.parametrize("break_cocycle", [False, True])
def test_triple_on_a_non_adapted_face_still_gets_its_cocycle_check(break_cocycle):
    # a constant in the backward t-image makes (0, 1) non-adapted and leaves
    # its forward map, which the chart cocycle reads, unchanged
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    o = [ov for ov in s.overlaps if ov.pair == (0, 1)][0]
    o.backward_t = (o.backward_t[0] + LaurentPoly.const(s.names, 1),)
    if break_cocycle:
        o = [ov for ov in s.overlaps if ov.pair == (0, 2)][0]
        o.forward_u = (o.forward_u[0] * 2, o.forward_u[1])
    log = validate_scenario(s)
    assert [e.ok for e in _entries(log, "adapted", "overlap (0, 1)")] == [False]
    assert _entries(log, "transition_inverse", "overlap (0, 1)") == []
    (cocycle,) = _entries(log, "cocycle", "triple (0, 1, 2)")
    assert cocycle.ok is not break_cocycle
    if break_cocycle:
        assert cocycle.detail.startswith("chart cocycle fails on generator ")


def _refused_before_any_context(monkeypatch, s, check):
    def no_context(*args):
        raise AssertionError("run_pipeline built a context for an invalid scenario")

    monkeypatch.setattr(scenarios, "build_context", no_context)
    with pytest.raises(ParseError, match=check):
        run_pipeline(s, k=2)


def test_non_adapted_transition_is_refused_before_any_context(monkeypatch):
    s = generate_builtin("line_in_p2", d=1, twist=1)
    o = s.overlaps[0]
    # a constant term in t's image moves the zero section off X
    o.forward_t = (o.forward_t[0] + LaurentPoly.const(s.names, 1),)
    _refused_before_any_context(monkeypatch, s, "adapted@overlap")


def test_non_inverse_transition_pair_is_refused_before_any_context(monkeypatch):
    s = generate_builtin("line_in_p2", d=1, twist=1)
    o = s.overlaps[0]
    o.backward_t = (o.backward_t[0] * 2,)
    _refused_before_any_context(monkeypatch, s, "transition_inverse@overlap")


def test_duplicate_overlap_is_refused():
    doc = generate_builtin("line_in_p2", d=1, twist=1).to_json()
    doc["overlaps"].append(copy.deepcopy(doc["overlaps"][0]))
    with pytest.raises(ParseError, match=r"^overlaps\[1\]\.pair: duplicate overlap \[0, 1\]$"):
        scenario_from_json(doc)


def test_duplicate_triple_is_refused():
    doc = generate_builtin("hyperplane_p2_in_p3", d=1, twist=1).to_json()
    doc["triples"].append(copy.deepcopy(doc["triples"][0]))
    with pytest.raises(ParseError, match=r"^triples\[1\]\.simplex: duplicate triple \[0, 1, 2\]$"):
        scenario_from_json(doc)


def test_duplicate_overlap_is_an_input_error_on_the_command_line(tmp_path, capsys):
    doc = generate_builtin("line_in_p2", d=1, twist=1).to_json()
    doc["overlaps"].append(copy.deepcopy(doc["overlaps"][0]))
    scn = tmp_path / "dup.json"
    scn.write_text(json.dumps(doc))
    assert cli_main(["obstruct", scn.as_posix(), "--order", "2"]) == 2
    assert "overlaps[1].pair: duplicate overlap [0, 1]" in capsys.readouterr().err


def test_flat_flag_against_curvature():
    s = generate_builtin("hyperplane_p2_in_p3", d=0)
    names = s.names
    u1 = LaurentPoly.variable(names, "u1")
    # nabla = d + u1 du2 has curvature du1 ^ du2
    s.gammas[0] = [
        PolyMatrix([[LaurentPoly.zero(names)]]),
        PolyMatrix([[u1]]),
    ]
    log = validate_scenario(s)
    assert not log.ok
    bad = [e for e in log.entries if not e.ok and e.check == "flatness"]
    assert bad and "curvature" in bad[0].detail


def _overlap(s, pair):
    return next(o for o in s.overlaps if o.pair == pair)


def _non_adapted(s):
    o = _overlap(s, (0, 1))
    o.forward_t = (o.forward_t[0] + LaurentPoly.const(s.names, 1),)


def _backward_doubled(s):
    o = _overlap(s, (0, 1))
    o.backward_t = (o.backward_t[0] * 2,)


def _forward_doubled(s):
    o = _overlap(s, (0, 1))
    o.forward_t = (o.forward_t[0] * 2,)


def _chart_cocycle_broken(s):
    o = _overlap(s, (1, 2))
    o.forward_u = (o.forward_u[0] * 2, o.forward_u[1])


def _face_missing(s):
    s.overlaps = [o for o in s.overlaps if o.pair != (1, 2)]
    del s.g[(1, 2)]


def _bundle_off_base(s):
    g = s.g[(1, 2)]
    s.g[(1, 2)] = PolyMatrix([[g[0, 0] + LaurentPoly.monomial(s.names, (0, 1, 1))]])


def _low_faces_off_base(s):
    # the same 1 + t1 on g01 and g02 keeps g02 = g01 . g12, so only the
    # on-base check can see it; unchecked, build_context meets a non-unit
    one_plus_t1 = LaurentPoly.const(s.names, 1) + LaurentPoly.variable(s.names, "t1")
    for pair in ((0, 1), (0, 2)):
        s.g[pair] = s.g[pair].map(lambda f: f * one_plus_t1)


def _bundle_cocycle_broken(s):
    s.g[(0, 2)] = s.g[(0, 2)].scale(F(3))


def _flags_wrong(s):
    # nabla = d + u1 du2 on chart 0 is curved; chart 1's flat connection is flagged curved
    u1 = LaurentPoly.variable(s.names, "u1")
    s.gammas[0] = [PolyMatrix([[LaurentPoly.zero(s.names)]]), PolyMatrix([[u1]])]
    s.flat[1] = False


# (builtin, d, twist, corruption, the whole log as (check, location, ok, detail) rows)
CORRUPTED_LOGS = {
    "adapted": ("line_in_p2", 1, 1, _non_adapted, [
        ("adapted", "overlap (0, 1)", False, "a normal-variable image has a degree-0 part"),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
    ]),
    "forward_o_backward": ("line_in_p2", 1, 1, _backward_doubled, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", False, "forward o backward != id on u1"),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
    ]),
    "backward_o_forward": ("line_in_p2", 1, 1, _forward_doubled, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", False, "backward o forward != id on u1"),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
    ]),
    "cocycle": ("hyperplane_p2_in_p3", 1, 0, _chart_cocycle_broken, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("adapted", "overlap (1, 2)", True, ""),
        ("transition_inverse", "overlap (1, 2)", False, "backward o forward != id on u1"),
        ("cocycle", "triple (0, 1, 2)", False, "chart cocycle fails on generator u1"),
        ("bundle_on_base", "triple (0, 1, 2)", True, ""),
        ("bundle_cocycle", "triple (0, 1, 2)", True, ""),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
        ("flatness", "chart 2", True, ""),
    ]),
    "missing_face": ("hyperplane_p2_in_p3", 1, 0, _face_missing, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("cocycle", "triple (0, 1, 2)", False, "missing overlap data for a face"),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
        ("flatness", "chart 2", True, ""),
    ]),
    "bundle_on_base": ("hyperplane_p2_in_p3", 1, 0, _bundle_off_base, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("adapted", "overlap (1, 2)", True, ""),
        ("transition_inverse", "overlap (1, 2)", True, ""),
        ("cocycle", "triple (0, 1, 2)", True, ""),
        ("bundle_on_base", "triple (0, 1, 2)", False,
         "a bundle transition has normal-variable terms"),
        ("bundle_cocycle", "triple (0, 1, 2)", True, ""),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
        ("flatness", "chart 2", True, ""),
    ]),
    "bundle_on_base_low_faces": ("hyperplane_p2_in_p3", 1, 0, _low_faces_off_base, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("adapted", "overlap (1, 2)", True, ""),
        ("transition_inverse", "overlap (1, 2)", True, ""),
        ("cocycle", "triple (0, 1, 2)", True, ""),
        ("bundle_on_base", "triple (0, 1, 2)", False,
         "a bundle transition has normal-variable terms"),
        ("bundle_cocycle", "triple (0, 1, 2)", True, ""),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
        ("flatness", "chart 2", True, ""),
    ]),
    "bundle_cocycle": ("hyperplane_p2_in_p3", 1, 0, _bundle_cocycle_broken, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("adapted", "overlap (1, 2)", True, ""),
        ("transition_inverse", "overlap (1, 2)", True, ""),
        ("cocycle", "triple (0, 1, 2)", True, ""),
        ("bundle_on_base", "triple (0, 1, 2)", True, ""),
        ("bundle_cocycle", "triple (0, 1, 2)", False, "g_ih != g_ij . g_jh on the triple"),
        ("flatness", "chart 0", True, ""),
        ("flatness", "chart 1", True, ""),
        ("flatness", "chart 2", True, ""),
    ]),
    "flatness": ("hyperplane_p2_in_p3", 0, 0, _flags_wrong, [
        ("adapted", "overlap (0, 1)", True, ""),
        ("transition_inverse", "overlap (0, 1)", True, ""),
        ("adapted", "overlap (0, 2)", True, ""),
        ("transition_inverse", "overlap (0, 2)", True, ""),
        ("adapted", "overlap (1, 2)", True, ""),
        ("transition_inverse", "overlap (1, 2)", True, ""),
        ("cocycle", "triple (0, 1, 2)", True, ""),
        ("bundle_on_base", "triple (0, 1, 2)", True, ""),
        ("bundle_cocycle", "triple (0, 1, 2)", True, ""),
        ("flatness", "chart 0", False, "curvature(0,1) = PolyMatrix[1]"),
        ("flatness", "chart 1", False, "flag says curved but curvature vanishes"),
        ("flatness", "chart 2", True, ""),
    ]),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_LOGS))
def test_corrupted_builtin_logs_every_check_in_order(case):
    name, d, twist, corrupt, rows = CORRUPTED_LOGS[case]
    s = generate_builtin(name, d=d, twist=twist)
    corrupt(s)
    expected = [dict(zip(("check", "location", "ok", "detail"), row)) for row in rows]
    assert validate_scenario(s).to_json() == expected


def test_low_faces_off_the_base_stop_the_pipeline_at_validation():
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    _low_faces_off_base(s)
    with pytest.raises(ParseError, match="failed validation"):
        run_pipeline(s, k=1)


def test_affine_split_trivially_solved():
    s = generate_builtin("affine_split")
    bundle = run_pipeline(s, k=2)
    for r in bundle.reports:
        assert isinstance(r.status, Solved)
        assert r.status.cochain.is_zero()  # m = 0 is admissible
        assert r.status.torsor_dim == 0
    assert bundle.abelianized["exact"]


def test_diagonal_solved_both_orders():
    for d in (-1, 0, 2):
        s = generate_builtin("diagonal_p1xp1", d=d)
        bundle = run_pipeline(s, k=2)
        assert all(isinstance(r.status, Solved) for r in bundle.reports)


def test_line_in_p2_order_one_torsor_matches_oracle():
    for d in (-3, 0, 3):
        s = generate_builtin("line_in_p2", d=d)
        bundle = run_pipeline(s, k=1)
        (r1,) = bundle.reports
        assert isinstance(r1.status, Solved)
        assert r1.status.torsor_dim == 0
        assert r1.status.h1_oracle == 0


def test_order_three_runs_and_max_order_bounds_k(tmp_path, capsys):
    s = generate_builtin("line_in_p2", d=1)
    assert [r.order for r in run_pipeline(s, k=3).reports] == [1, 2, 3]
    with pytest.raises(ParseError, match=f"max_order {s.max_order}"):
        run_pipeline(s, k=s.max_order + 1)
    scn = tmp_path / "s.json"
    save_scenario(s, scn.as_posix())
    assert cli_main(["obstruct", scn.as_posix(), "--order", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["obstruct", scn.as_posix(), "--order", str(s.max_order + 1)]) == 2
    assert capsys.readouterr().err.startswith(f"error: order {s.max_order + 1} requested")


def test_pipeline_determinism_across_workers():
    s = generate_builtin("hyperplane_p2_in_p3", d=2, twist=1)
    outputs = [run_pipeline(s, k=2, window=(-3, 3)).dumps() for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_end_to_end(tmp_path, capsys):
    scn = tmp_path / "diag.json"
    assert cli_main(["generate", "diagonal_p1xp1", "-d", "1", "-o", scn.as_posix()]) == 0
    assert cli_main(["validate", scn.as_posix()]) == 0
    out = tmp_path / "report.json"
    assert cli_main(["obstruct", scn.as_posix(), "--order", "2", "--out", out.as_posix()]) == 0
    report = json.loads(out.read_text())
    assert report["reports"][0]["status"]["kind"] == "solved"
    assert cli_main(["cohomology", "--space", "p1", "--twist", "-2"]) == 0
    captured = capsys.readouterr()
    assert "h^1(p1, O(-2)) = 1" in captured.out


@pytest.mark.parametrize("twist, code", [("abc", 2), ("1/0", 2), ("", 2), ("1/2", 0)])
def test_generate_twist_is_an_exact_rational(tmp_path, capsys, twist, code):
    out = tmp_path / "line.json"
    assert cli_main(["generate", "line_in_p2", "--twist", twist, "-o", out.as_posix()]) == code
    if code:
        assert f"error: bad rational literal {twist!r}" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert load_scenario(out.as_posix()).dumps() == generate_builtin(
            "line_in_p2", twist=F(1, 2)).dumps()


def test_generate_reads_a_negative_fraction_twist_after_a_space(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert cli_main(["generate", "line_in_p2", "--twist", "-1/2", "-o", spaced.as_posix()]) == 0
    assert cli_main(["generate", "line_in_p2", "--twist=-1/2", "-o", joined.as_posix()]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert load_scenario(spaced.as_posix()).dumps() == generate_builtin(
        "line_in_p2", twist=F(-1, 2)).dumps()
    capsys.readouterr()
    # a malformed value is still refused by the rational parser, not by argparse
    assert cli_main(["generate", "line_in_p2", "--twist", "-abc"]) == 2
    assert "error: bad rational literal '-abc'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["affine_split", "diagonal_p1xp1", "p1_in_line_bundle"])
def test_generate_refuses_a_twist_the_generator_has_no_family_for(tmp_path, capsys, name):
    out = tmp_path / "s.json"
    assert cli_main(["generate", name, "-d", "2", "--twist", "1/2", "-o", out.as_posix()]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} has no twist family")
    assert "line_in_p2" in err and "hyperplane_p2_in_p3" in err
    assert not out.exists()
    # a zero twist, however written, is the generator's only presentation
    assert cli_main(["generate", name, "-d", "2", "--twist", "0/3", "-o", out.as_posix()]) == 0
    assert load_scenario(out.as_posix()).dumps() == generate_builtin(name, d=2).dumps()


def test_cli_labs_check_every_identity(capsys):
    assert cli_main(["formal-lab"]) == 0
    assert cli_main(["mc-lab"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "jacobi identity: 5 random triples exact",
        "flat splitting bracket-compatible: 5 random pairs exact",
        "extension cocycle equals minus the projection coboundary: 3 pairs exact",
        "extension cocycle closed: 2 random triples exact",
        "extension cocycle relative to the base subalgebra: exact",
        "formal-lab: all identities hold",
        "mc-lab: lift residual vanishing equals the direct check on 360 samples",
    ]
    assert captured.err == ""


def test_cli_reports_are_identical_across_worker_counts(tmp_path):
    scn = tmp_path / "s.json"
    cli_main(["generate", "line_in_p2", "-d", "2", "-o", scn.as_posix()])
    out = tmp_path / "r.json"
    assert cli_main(["obstruct", scn.as_posix(), "--out", out.as_posix()]) == 0
    expected = run_pipeline(load_scenario(scn.as_posix()), k=2).dumps()
    assert out.read_bytes() == expected.encode()


def test_cli_out_of_two_scenarios_is_the_stdlib_encoded_list(tmp_path, capsys):
    a, b = (tmp_path / "a.json").as_posix(), (tmp_path / "b.json").as_posix()
    assert cli_main(["generate", "line_in_p2", "-d", "1", "--twist", "1", "-o", a]) == 0
    assert cli_main(["generate", "diagonal_p1xp1", "-d", "1", "-o", b]) == 0
    out = tmp_path / "r.json"
    assert cli_main(["obstruct", a, b, "--out", out.as_posix()]) == 0
    doc = [run_pipeline(load_scenario(path), k=2).to_json() for path in (a, b)]
    assert out.read_bytes() == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


@pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
def test_saved_builtins_are_the_stdlib_encoding(tmp_path, name):
    twists = (0, 1, F(-1, 2)) if name in scenarios.TWISTED_BUILTINS else (0,)
    for twist in twists:
        s = generate_builtin(name, d=1, twist=twist)
        path = tmp_path / "s.json"
        save_scenario(s, path.as_posix())
        expected = json.dumps(s.to_json(), sort_keys=True, indent=1) + "\n"
        assert path.read_bytes() == expected.encode()


# keys and strings mix ASCII with what must be escaped: quotes, backslashes,
# control characters, non-ASCII text (astral too) and lone surrogates
_json_texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", " ", "\U0001f600",
                         "\ud800", "\udfff"]),
    ),
    max_size=6,
)
_json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _json_texts,
              st.integers(min_value=-2**80, max_value=2**80)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_json_texts, kids, max_size=4),
    ),
    max_leaves=24,
)


@given(_json_docs)
@settings(max_examples=300, deadline=None)
@example({"b": [], "a": {}, "é\ud800": (2**64 + 1, -2**70, True, False, None)})
@example([{"z": 1, "\"": {"\\": "\x01"}}, ()])
def test_dumps_indented_equals_the_stdlib_indented_encoding(doc):
    assert scenarios.dumps_indented(doc) == json.dumps(doc, sort_keys=True, indent=1)


@pytest.mark.parametrize("doc", [{"a": [1, 1.5]}, [F(1, 2)], {"a": {1: "x"}}])
def test_dumps_indented_refuses_a_value_no_exact_report_holds(doc):
    with pytest.raises(TypeError):
        scenarios.dumps_indented(doc)


def test_cli_window_zero_means_zero(tmp_path):
    scn = tmp_path / "s.json"
    cli_main(["generate", "line_in_p2", "-d", "1", "-o", scn.as_posix()])
    out = tmp_path / "r.json"
    assert cli_main(["obstruct", scn.as_posix(), "--window", "0", "--out", out.as_posix()]) == 0
    assert json.loads(out.read_text())["window"] == [0, 0]


def test_cli_negative_window_is_an_input_error(tmp_path, capsys):
    scn = tmp_path / "s.json"
    cli_main(["generate", "line_in_p2", "-d", "1", "-o", scn.as_posix()])
    assert cli_main(["obstruct", scn.as_posix(), "--window", "-2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("order", ["0", "-3"])
def test_cli_order_below_one_is_an_input_error(tmp_path, capsys, order):
    scn = tmp_path / "s.json"
    cli_main(["generate", "line_in_p2", "-d", "1", "-o", scn.as_posix()])
    assert cli_main(["obstruct", scn.as_posix(), "--order", order]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: order {order} requested but orders run from 1 to the scenario's max_order 3"
    )


def test_order_above_max_order_is_an_input_error(tmp_path, capsys):
    # transitions cut to t-degree <= 1 are only checked mod t^2, so they
    # cannot back an order-two verdict, though they validate at max_order 1
    s = generate_builtin("hyperplane_p2_in_p3", d=2, twist=1)
    cut = lambda polys: tuple(f.truncate_group(s.p, 1) for f in polys)
    overlaps = [
        dataclasses.replace(
            o, forward_u=cut(o.forward_u), forward_t=cut(o.forward_t),
            backward_u=cut(o.backward_u), backward_t=cut(o.backward_t),
        )
        for o in s.overlaps
    ]
    assert any(new != old for new, old in zip(overlaps, s.overlaps))
    short = dataclasses.replace(s, max_order=1, overlaps=overlaps)
    assert validate_scenario(short).ok
    assert len(run_pipeline(short, k=1).reports) == 1
    with pytest.raises(ParseError, match="max_order 1"):
        run_pipeline(short, k=2)
    scn = tmp_path / "short.json"
    save_scenario(short, scn.as_posix())
    assert cli_main(["obstruct", scn.as_posix(), "--order", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: order 2 requested")


@pytest.mark.parametrize(
    "window, message",
    [
        ((3, -3), r"expected lo <= hi, got \[3, -3\]"),
        ((2.5, 3), "expected a list of 2 integers"),
        ((-3, 3, 5), "expected a list of 2 integers"),
        ((), "expected a list of 2 integers"),
    ],
    ids=["reversed", "float", "three_bounds", "empty"],
)
def test_malformed_window_is_an_input_error(window, message):
    s = generate_builtin("line_in_p2", d=1)
    with pytest.raises(ParseError, match=f"^window: {message}"):
        run_pipeline(s, k=2, window=window)
    # a scenario built in Python with that window is refused the same way
    with pytest.raises(ParseError, match=f"^window: {message}"):
        run_pipeline(dataclasses.replace(s, window=window), k=2)


def _drop(*path):
    def edit(doc):
        *parent, key = path
        for k in parent:
            doc = doc[k]
        del doc[key]
    return edit


def _set(value, *path):
    def edit(doc):
        *parent, key = path
        for k in parent:
            doc = doc[k]
        doc[key] = value
    return edit


def _rename_transition(doc):
    t = doc["bundle"]["transitions"]
    t["0;1"] = t.pop("0,1")


def _file(write):
    """A case that makes the scenario file itself: ``write(path)`` instead of the document."""
    return lambda doc: write


@pytest.mark.parametrize(
    "edit, field",
    [
        (_drop("overlaps", 0, "pair"), "overlaps[0].pair"),
        (_rename_transition, "bundle.transitions['0;1']"),
        (_set([0, 5], "overlaps", 0, "pair"), "overlaps[0].pair"),
        (_set([1, 2, 3], "charts"), "charts[0]"),
        (_drop("overlaps", 0, "forward_u"), "overlaps[0].forward_u"),
        (_set("ab", "window"), "window"),
        (_set([3, -3], "window"), "window"),
        # the window cone's closed form is sound only for nonnegative inverted exponents
        (_set([[-1]], "overlaps", 0, "inverted", "0"), "overlaps[0].inverted[0]"),
        # file errors name the path
        (_file(lambda path: None), "bad.json"),
        (_file(lambda path: path.mkdir()), "bad.json"),
        (_file(lambda path: path.write_bytes(b'{"name": "\xff"}')), "bad.json"),
        # deeper than the JSON parser can recurse
        (_file(lambda path: path.write_text("[" * 200_000 + "]" * 200_000)), "bad.json"),
        # truncating at t^0 kills t, so max_order 0 would only fail validation obscurely
        (_set(0, "max_order"), "max_order"),
        # a name is a string, never coerced to one
        (_set(None, "name"), "name: expected str"),
    ],
    ids=["no_pair", "bad_transition_key", "unknown_chart", "chart_not_object",
         "no_forward_u", "bad_window", "reversed_window", "negative_inverted_exponent",
         "missing_file", "directory", "not_utf8", "nested_too_deep", "max_order_zero",
         "name_not_string"],
)
def test_malformed_scenario_is_an_input_error(tmp_path, capsys, edit, field):
    doc = generate_builtin("line_in_p2", d=1).to_json()
    scn = tmp_path / "bad.json"
    write = edit(doc) or (lambda path: path.write_text(json.dumps(doc)))
    write(scn)
    for argv in (["obstruct", scn.as_posix(), "--order", "1"], ["validate", scn.as_posix()]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, argv


# -- fuzz: a mutated builtin is an input error or a valid report ---------------------


FUZZ_BASES = [
    ("affine_split", 0, 0),
    ("line_in_p2", 1, 0),
    ("diagonal_p1xp1", 1, 0),
    ("hyperplane_p2_in_p3", 1, 0),
    ("p1_in_line_bundle", 2, 0),
]
FUZZ_DOCS = {case: generate_builtin(*case).to_json() for case in FUZZ_BASES}


def _json_paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["", "1", "-1/2", "1/0", "x", "0,1", "u1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "pair", "inverted"]), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_builtin_docs(draw):
    doc = copy.deepcopy(FUZZ_DOCS[draw(st.sampled_from(FUZZ_BASES))])
    *parent_path, key = draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for k in parent_path:
        parent = parent[k]
    action = draw(st.sampled_from(["replace", "delete", "nudge"]))
    if action == "delete":
        del parent[key]
    elif action == "nudge" and type(parent[key]) is int:
        parent[key] += draw(st.sampled_from([-1, 1]))
    else:
        parent[key] = draw(json_values)
    return doc


@given(mutated_builtin_docs())
@settings(max_examples=300, deadline=None)
def test_mutated_builtin_is_an_input_error_or_a_report(doc):
    try:
        bundle = run_pipeline(scenario_from_json(doc), k=2, window=(-1, 1))
    except EngineError:
        return
    assert json.loads(bundle.dumps())["reports"]
