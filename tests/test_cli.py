import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbands import pipeline, stars, surfaces
from braidbands.cli import run
from braidbands.diagrams import closure_diagram
from braidbands.words import MAX_WORD_LETTERS, BKLWord, parse_word

from corpus import FIG8, K5_2, K9_43, TREFOIL, disjoint_union, random_homogeneous_surface, random_star


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(TREFOIL.to_json())
    return str(path)


def test_braid_check_homogeneous_exit_codes(capsys):
    assert run(["braid", "check-homogeneous", "--strands", "4",
                "b(3,4) b(2,4) b(2,3) b(1,2)^-1 b(2,4) b(2,3) b(1,2)^-1"]) == 0
    assert "homogeneous" in capsys.readouterr().out
    assert run(["braid", "check-homogeneous", "--strands", "4",
                "s3^2 s2 s3^-1 s2 s3 s1^-1 s2 s3^-1 s2 s1^-1"]) == 1


def test_braid_equal_on_translated_pair(capsys):
    code = run([
        "braid", "translate", "--strands", "4", "--json",
        "b(3,4) b(2,4) b(2,3) b(1,2)^-1 b(2,4) b(2,3) b(1,2)^-1",
    ])
    assert code == 0
    translated = json.loads(capsys.readouterr().out)["word"]
    assert run(["braid", "equal", "--strands", "4", translated,
                "s3^2 s2 s3^-1 s2 s3 s1^-1 s2 s3^-1 s2 s1^-1"]) == 0
    assert run(["braid", "equal", "--strands", "2", "s1", "s1^-1"]) == 1


def test_braid_components_and_exponent(capsys):
    assert run(["braid", "components", "--strands", "4", "--json",
                "b(3,4) b(2,4) b(2,3) b(1,2)^-1 b(2,4) b(2,3) b(1,2)^-1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["components"] == 1
    assert run(["braid", "exponent-sum", "--json", "s1^3"]) == 0
    assert json.loads(capsys.readouterr().out)["exponent_sum"] == 3


def test_plumb_golden(capsys):
    assert run(["plumb", "b(1,3) b(1,2)^-1 b(1,3)^-1",
                "b(1,4)^-1 b(1,3) b(2,3)^-1 b(1,4)^-1",
                "--strands1", "3", "--strands2", "4", "--pattern", "2121212"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "b(3,6)^-1 b(1,3) b(3,5) b(1,2)^-1 b(4,5)^-1 b(1,3)^-1 b(3,6)^-1"


def test_deplumb(capsys):
    assert run(["deplumb", "b(3,6)^-1 b(1,3) b(3,5) b(1,2)^-1 b(4,5)^-1 b(1,3)^-1 b(3,6)^-1",
                "--n1", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pattern"] == "2121212"
    assert data["first"] == "b(1,3) b(1,2)^-1 b(1,3)^-1"
    assert run(["deplumb", "b(1,3)", "--n1", "2"]) == 2


def test_diagram_commands(tmp_path, capsys, trefoil_file):
    assert run(["diagram", "seifert", trefoil_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["circles"]) == 2 and len(data["bands"]) == 3
    assert run(["diagram", "homogeneous", trefoil_file]) == 0
    assert run(["diagram", "primitive-flat", trefoil_file]) == 0
    fig8 = tmp_path / "fig8.json"
    fig8.write_text(FIG8.to_json())
    assert run(["diagram", "homogeneous", str(fig8)]) == 0
    assert run(["diagram", "primitive-flat", str(fig8)]) == 1
    assert run(["diagram", "seifert", str(tmp_path / "missing.json")]) == 2


def test_component_that_never_passes_under(tmp_path, capsys):
    # A 3-component unlink whose component 1-2-3-4 only passes over: labels
    # wrap at its own largest label, 4, not at the diagram's, 8.
    unlink = tmp_path / "unlink.json"
    unlink.write_text('{"crossings": [[6,1,5,4],[8,3,7,4],[5,1,6,2],[7,3,8,2]]}')
    assert run(["invariant", "components", "--diagram", str(unlink)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_surface_commands(tmp_path, capsys):
    assert run(["surface", "from-word", "b(1,3) b(1,2)", "--json"]) == 0
    surf = capsys.readouterr().out
    path = tmp_path / "surface.json"
    path.write_text(surf)
    svg = tmp_path / "out.svg"
    assert run(["surface", "apply", str(path), "--move", "twirl", "--svg", str(svg), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bands"][0] == {"l": 2, "r": 3, "e": 1}
    assert svg.read_text().startswith("<svg")
    assert run(["surface", "genus", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 0
    assert run(["surface", "apply", str(path), "--move", "slip,0"]) == 2  # linked pair
    for sign, band_sign in (("+", 1), ("+1", 1), ("1", 1), ("-", -1), ("-1", -1)):
        assert run(["surface", "apply", str(path), "--move", f"inflate,1,{sign}", "--json"]) == 0
        bands = json.loads(capsys.readouterr().out)["bands"]
        assert sum(b["e"] for b in bands) == 2 + band_sign  # two positive bands plus the new one


# A surface on which every move applies at some position; each --move
# string beside its surfaces function and that function's parameters.
MOVE_SURFACE = surfaces.from_word(parse_word("b(1,2) b(3,4) b(2,3) b(1,2) b(4,5)", strands=5))
MOVE_CASES = [
    ("twirl", surfaces.twirl, ()),
    ("turn", surfaces.turn, ()),
    ("flip-vertical", surfaces.flip_vertical, ()),
    ("mirror", surfaces.mirror, ()),
    ("slip,3", surfaces.slip, (3,)),
    ("slide-up,1", surfaces.slide_up, (1,)),
    ("slide-down,2", surfaces.slide_down, (2,)),
    ("deflate,4", surfaces.deflate, (4,)),
    *[(f"inflate,2,{text}{height}", surfaces.inflate, (2, sign, *args))
      for text, sign in (("+", 1), ("+1", 1), ("1", 1), ("-", -1), ("-1", -1))
      for height, args in (("", ()), (",3", (3,)))],
]


@pytest.mark.parametrize("move, function, params", MOVE_CASES, ids=[case[0] for case in MOVE_CASES])
def test_each_move_is_its_surfaces_function(tmp_path, move, function, params):
    path = tmp_path / "surface.json"
    path.write_text(MOVE_SURFACE.to_json())
    code, out, err = _call(["surface", "apply", str(path), "--json", "--move", move])
    assert code == 0, err
    expected = function(MOVE_SURFACE, *params)
    assert expected != MOVE_SURFACE
    assert json.loads(out) == json.loads(expected.to_json())


def _golden_star_files(tmp_path, capsys) -> list[str]:
    surface = tmp_path / "surface.json"
    star = tmp_path / "star.json"
    run(["surface", "from-word", "b(1,2) b(1,3) b(1,2)", "--json"])
    surface.write_text(capsys.readouterr().out)
    star.write_text(json.dumps({
        "center": 3,
        "rays": [{"steps": [[1, "R", "L"]], "tip": {"disc": 1, "gap": 3}}],
    }))
    return [str(surface), str(star)]


def test_star_reduce_command(tmp_path, capsys):
    assert run(["star", "reduce", *_golden_star_files(tmp_path, capsys), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "delta_b=  0" in out


def test_star_reduce_builds_and_checks_the_input_star_once(tmp_path, capsys, monkeypatch):
    # The command checks the input star on the state the reduction runs on:
    # one build of it, and a star whose arcs cross is exit 2 with
    # check_star's message.
    files = _golden_star_files(tmp_path, capsys)
    built = []
    materialize = stars._materialize
    monkeypatch.setattr(stars, "_materialize", lambda *a: built.append(a) or materialize(*a))
    assert run(["star", "reduce", *files]) == 0
    assert len(built) == 1
    crossed = {"center": 1, "rays": [{"steps": [[2, "L", "R"]], "tip": {"disc": 2, "gap": 1}},
                                     {"steps": [[0, "L", "R"]], "tip": {"disc": 2, "gap": 1}}]}
    (tmp_path / "crossed.json").write_text(json.dumps(crossed))
    surface = surfaces.from_word(parse_word("b(1,2) b(1,3) b(1,2)", strands=3))
    with pytest.raises(stars.StarError, match="^ray arcs cross inside disc 2$"):
        stars.check_star(surface, stars.Star.from_json(json.dumps(crossed)))
    assert run(["star", "reduce", files[0], str(tmp_path / "crossed.json")]) == 2
    assert "ray arcs cross inside disc 2" in capsys.readouterr().err


def test_lost_height_exactness_is_exit_3(tmp_path, capsys, monkeypatch):
    # Star heights are integers that each split of a gap first rescales; a
    # skipped rescale leaves a remainder, which is a bug, not bad input.
    files = _golden_star_files(tmp_path, capsys)
    monkeypatch.setattr(stars._State, "rescale", lambda self, q: None)
    assert run(["star", "reduce", *files]) == 3
    assert "is not divisible by" in capsys.readouterr().err


# sha1 of the full ``homogenize --tree --json`` output of the golden knots.
HOMOGENIZE_TREE_SHA1 = {
    "trefoil": "5f4f903416033eddfc0e61e6babe1bd80eb5fd2f",
    "fig8": "5fe617bd47adfa01fa876f64fa0e6ca4d6acc2a5",
    "5_2": "8b25300d4304cd737bbb2a7d784d11cc678de7ce",
    "9_43": "3074d58b6439c3adbbea2b4da1196c30c264c15b",
}


def test_homogenize_command(tmp_path, capsys, trefoil_file):
    assert run(["homogenize", trefoil_file, "--tree", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["word"] == "b(1,2) b(1,2) b(1,2)"
    assert "leaf" in data["tree"]
    for name, d in (("trefoil", TREFOIL), ("fig8", FIG8), ("5_2", K5_2), ("9_43", K9_43)):
        path = tmp_path / f"{name}.json"
        path.write_text(d.to_json())
        assert run(["homogenize", str(path), "--tree", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha1(out.encode()).hexdigest() == HOMOGENIZE_TREE_SHA1[name]
    split = tmp_path / "split.json"
    split.write_text(disjoint_union(TREFOIL, FIG8).to_json())
    assert run(["homogenize", str(split), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["strands"] == 5
    assert run(["homogenize", str(split), "--tree"]) == 2
    assert "--tree needs a connected diagram" in capsys.readouterr().err


def test_diagram_size_is_bounded_by_the_word_bound(tmp_path, capsys):
    # The trefoil has 3 crossings, so unknots + 6 may reach MAX_WORD_LETTERS:
    # the word comes back on at most that many strands, and parse_word takes
    # it.  One unknot more is refused before any work, naming the bound.
    path = tmp_path / "trefoil.json"
    crossings = [list(x) for x in TREFOIL.crossings]
    path.write_text(json.dumps({"crossings": crossings, "unknots": MAX_WORD_LETTERS - 6}))
    assert run(["homogenize", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strands"] == MAX_WORD_LETTERS - 4
    assert parse_word(data["word"], strands=data["strands"]).strands == MAX_WORD_LETTERS - 4
    for unknots in (MAX_WORD_LETTERS - 5, 10**12):
        path.write_text(json.dumps({"crossings": crossings, "unknots": unknots}))
        assert run(["homogenize", str(path)]) == 2
        assert "MAX_WORD_LETTERS (1000000)" in capsys.readouterr().err
    path.write_text(json.dumps({"crossings": [[1, 2, 3, 4]] * (MAX_WORD_LETTERS // 2 + 1)}))
    assert run(["diagram", "seifert", str(path)]) == 2
    assert "MAX_WORD_LETTERS" in capsys.readouterr().err


def test_invariant_commands(capsys, trefoil_file):
    assert run(["invariant", "alexander", "--word", "s1^3", "--strands", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == [1, -1, 1]
    assert run(["invariant", "alexander", "--diagram", trefoil_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == [1, -1, 1]
    assert run(["invariant", "components", "--word", "e", "--strands", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == 3
    # The 0 x 0 minor of one strand, split closures and the trefoil as a band word.
    for word, strands, poly in (("e", "1", "1"), ("e", "3", "0"), ("b(1,3)^3", "3", "0"), ("b(1,2)^3", "2", "1 - t + t^2")):
        assert run(["invariant", "alexander", "--word", word, "--strands", strands, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["poly"] == poly


def test_invalid_word_is_exit_2(capsys):
    assert run(["braid", "exponent-sum", "nonsense"]) == 2
    for argv in (["s٠٠٠٠٠٠٠٠7", "--strands", "9"], ["s1^٠٠٠٠٠٠٠2"]):
        assert run(["braid", "exponent-sum", *argv]) == 2
        assert f"cannot parse token {argv[0]!r}" in capsys.readouterr().err
    assert run(["braid", "equal", f"s1^{2**62}", "s1", "--strands", "3"]) == 2
    assert f"s1^{2**62}" in capsys.readouterr().err


def _call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call; argparse's own refusals exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_code(argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    code, _out, err = _call(argv)
    return code, err


# Token text: short runs of the grammar's characters and long digit runs.
TOKEN_TEXT = st.lists(
    st.one_of(
        st.text(alphabet="sb(),^-e0123456789 ", max_size=12),
        st.tuples(st.sampled_from("0123456789"), st.integers(1, 5000)).map(lambda t: t[0] * t[1]),
    ),
    max_size=6,
).map("".join)
STRANDS = st.one_of(st.none(), st.integers(-1, 12))
# Short words in the grammar with valid tokens; the strand count may be too small.
EXPONENT = st.one_of(st.just(""), st.integers(1, 99), st.integers(-99, -1)).map(
    lambda k: f"^{k}" if k else ""
)
ARTIN_TOKEN = st.integers(1, 5).map("s{}".format)
BAND_TOKEN = st.integers(1, 5).flatmap(lambda r: st.integers(r + 1, 6).map(f"b({r},{{}})".format))


def short_words(token):
    return st.lists(st.builds("".join, st.tuples(token, EXPONENT)), max_size=12).map(" ".join)


def _with_strands(argv, strands):
    return argv if strands is None else argv + ["--strands", str(strands)]


@settings(max_examples=150, deadline=None)
@given(TOKEN_TEXT, STRANDS)
def test_word_text_exits_0_1_or_2(text, strands):
    for command in ("exponent-sum", "check-homogeneous"):
        code, err = _exit_code(_with_strands(["braid", command], strands) + ["--", text])
        assert code in (0, 1, 2), (command, text, err)
        assert "internal error" not in err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((ARTIN_TOKEN, BAND_TOKEN)).flatmap(short_words), st.data())
def test_braid_equal_exits_0_1_or_2(u, data):
    v = data.draw(short_words(data.draw(st.sampled_from((ARTIN_TOKEN, BAND_TOKEN)))))
    strands = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    code, err = _exit_code(_with_strands(["braid", "equal"], strands) + ["--", u, v])
    assert code in (0, 1, 2), (u, v, err)
    assert "internal error" not in err


def _translated(word: str, strands) -> tuple[str, int] | None:
    """``braid translate``'s band form of an Artin word and its strand count,
    or None when it refuses the word."""
    code, out, _err = _call(_with_strands(["braid", "translate", "--json"], strands) + ["--", word])
    if code:
        return None
    data = json.loads(out)
    return data["word"], data["strands"]


@settings(max_examples=60, deadline=None)
@given(short_words(ARTIN_TOKEN), short_words(ARTIN_TOKEN), st.one_of(st.none(), st.integers(0, 8)),
       st.integers(0, 8), st.integers(0, 9))
@example("s1 s2 s1", "s1", None, 2, 2)
@example("s1", "s1", 2, 2, 2)
def test_band_word_commands_read_artin_words_as_translated(u, v, s1, s2, n1):
    # surface from-word, plumb and deplumb take either alphabet: an Artin
    # word gives the output of its band form, and a word braid translate
    # refuses is refused too.
    a, b = _translated(u, s1), _translated(v, s2)

    def same(artin_argv, band_argv):
        code, out, err = _call(artin_argv)
        assert code in (0, 2) and "internal error" not in err, (artin_argv, err)
        if band_argv is None:
            assert code == 2, (artin_argv, out)
        else:
            assert (code, out) == _call(band_argv)[:2], (artin_argv, band_argv)

    same(_with_strands(["surface", "from-word", "--json"], s1) + ["--", u],
         a and ["surface", "from-word", "--json", "--strands", str(a[1]), "--", a[0]])
    same(["deplumb", "--json", "--n1", str(n1)] + _with_strands([], s1) + ["--", u],
         a and ["deplumb", "--json", "--n1", str(n1), "--strands", str(a[1]), "--", a[0]])
    if s1 is not None:
        same(["plumb", "--json", "--strands1", str(s1), "--strands2", str(s2), "--", u, v],
             a and b and ["plumb", "--json", "--strands1", str(a[1]), "--strands2", str(b[1]),
                          "--", a[0], b[0]])


def test_oversized_generator_index_is_exit_2():
    # 10^11 strands would exhaust memory in the permutation; the parser
    # refuses the index instead.
    for argv in (["braid", "components", "s99999999999"],
                 ["braid", "components", "--strands", "99999999999", "s1"],
                 ["braid", "exponent-sum", "s" + "9" * 5000]):
        code, err = _exit_code(argv)
        assert code == 2 and "internal error" not in err, (argv, err)


def test_surface_with_too_many_discs_is_exit_2(tmp_path):
    # A list per disc of 10^18 discs raised MemoryError, an internal error.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"discs": 10**18, "bands": []}))
    code, err = _exit_code(["surface", "genus", str(path)])
    assert code == 2 and "more than 1000000 discs" in err, err


SURFACE_MOVES = st.sampled_from(("twirl", "turn", "mirror", "flip_vertical", "slip,0",
                                 "slide_up,0", "slide_down,1", "deflate,0", "inflate,1,+",
                                 "inflate,2,-,1"))
DISC_COUNTS = st.one_of(st.integers(-3, 2 * 10**6), st.just(10**18))


@settings(max_examples=40, deadline=None)
@given(DISC_COUNTS, st.lists(st.fixed_dictionaries({"l": st.integers(-1, 5), "r": st.integers(-1, 5),
                                                    "e": st.sampled_from((1, -1, 0))}), max_size=4),
       SURFACE_MOVES)
@example(10**6, [], "twirl")
@example(10**6 + 1, [], "twirl")
def test_surface_json_exits_0_1_or_2(tmp_path_factory, discs, bands, move):
    path = tmp_path_factory.mktemp("surface") / "surface.json"
    path.write_text(json.dumps({"discs": discs, "bands": bands}))
    for argv in (["surface", "genus", str(path)], ["surface", "apply", str(path), "--move", move]):
        code, err = _exit_code(argv)
        assert code in (0, 1, 2), (argv, discs, bands, err)
        assert "internal error" not in err and "Traceback" not in err


JSON_JUNK = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.text(max_size=3))
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just(10**18), JSON_JUNK),
    lambda inner: st.one_of(st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4,
)


@st.composite
def diagram_objects(draw):
    """Diagram JSON objects: rows of four labels in [-2, 2c + 2], each label
    of 1..2c twice in shuffled slots, or a golden knot's rows; then maybe
    one edit, a label, a float, boolean or string, a short row or a long
    one; and maybe an ``unknots`` value of any type."""
    mode = draw(st.sampled_from(("paired", "random", "golden")))
    if mode == "golden":
        rows = [list(x) for x in draw(st.sampled_from((TREFOIL, FIG8, K5_2))).crossings]
    else:
        c = draw(st.integers(0, 6))
        if mode == "paired":
            slots = draw(st.permutations([a for a in range(1, 2 * c + 1) for _twice in (0, 1)]))
            rows = [slots[k:k + 4] for k in range(0, 4 * c, 4)]
        else:
            label = st.integers(-2, 2 * c + 2)
            rows = draw(st.lists(st.lists(label, min_size=4, max_size=4), min_size=c, max_size=c))
    label = st.integers(-2, 2 * len(rows) + 2)
    if rows and draw(st.booleans()):
        row, slot = rows[draw(st.integers(0, len(rows) - 1))], draw(st.integers(0, 3))
        edit = draw(st.sampled_from(("label", "junk", "short", "long")))
        if edit == "short":
            del row[slot]
        elif edit == "long":
            row.insert(slot, draw(label))
        else:
            row[slot] = draw(label if edit == "label" else JSON_JUNK)
    obj = {"crossings": rows}
    if draw(st.booleans()):
        obj["unknots"] = draw(st.one_of(st.integers(-2, 3), ANY_JSON))
    return obj


@settings(max_examples=120, deadline=None)
@given(diagram_objects())
@example({"crossings": [list(x) for x in TREFOIL.crossings], "unknots": 10**18})
@example({"crossings": [list(x) for x in TREFOIL.crossings], "unknots": [1]})
def test_diagram_json_exits_0_1_or_2(tmp_path_factory, obj):
    path = str(tmp_path_factory.mktemp("diagram") / "diagram.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    for argv in (["homogenize", path], ["diagram", "seifert", path], ["diagram", "homogeneous", path],
                 ["diagram", "primitive-flat", path], ["invariant", "components", "--diagram", path]):
        code, err = _exit_code(argv)
        assert code in (0, 1, 2), (argv, obj, err)
        assert "internal error" not in err and "Traceback" not in err


# Move strings: a move name, valid or not, with 0-4 parameters that may be
# out of range, huge, signed, empty or not numbers at all.
MOVE_NAMES = st.sampled_from(("twirl", "turn", "mirror", "flip-vertical", "flip_vertical", "slip",
                              "slide-up", "slide_up", "slide-down", "deflate", "inflate", "spin", ""))
MOVE_PARAMETERS = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(("+", "-", "+1", "-1", "", "x", "1.5",
                                                                           str(10**18), "9" * 5000)))
MOVE_STRINGS = st.one_of(
    st.tuples(MOVE_NAMES, st.lists(MOVE_PARAMETERS, max_size=4)).map(lambda t: ",".join([t[0], *t[1]])),
    st.text(alphabet="abdefgilnoprstuvw_-,+0123456789 ", max_size=16),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("b(1,2) b(1,3) b(1,2)", "b(1,2)^-3", "e", "b(2,4) b(1,3)^-1")), MOVE_STRINGS)
@example("b(1,2) b(1,3) b(1,2)", "inflate,1,+," + "9" * 5000)
@example("b(1,2) b(1,3) b(1,2)", "slip," + str(10**18))
def test_surface_move_strings_exit_0_1_or_2(tmp_path_factory, word, move):
    path = tmp_path_factory.mktemp("surface") / "surface.json"
    code, out, _err = _call(["surface", "from-word", "--json", "--strands", "4", "--", word])
    assert code == 0
    path.write_text(out)
    for argv in (["surface", "apply", str(path), "--move", move],
                 ["surface", "apply", str(path), "--json", "--move", move]):
        code, err = _exit_code(argv)
        assert code in (0, 1, 2), (argv, err)
        assert "internal error" not in err and "Traceback" not in err


@st.composite
def star_objects(draw):
    """A surface and star JSON: a star walked along the bands of a random
    homogeneous surface, as its JSON object, then maybe one edit of the
    center, a ray, a step, a tip or the whole object, in range or not,
    junk or any JSON value."""
    rng = draw(st.randoms(use_true_random=False))
    surface = random_homogeneous_surface(rng)
    obj = json.loads(random_star(rng, surface).to_json())
    edit = draw(st.sampled_from(("none", "center", "tip", "step", "side", "drop", "ray", "whole")))
    value = draw(st.one_of(st.integers(-2, surface.discs + 3), st.just(10**18), ANY_JSON))
    ray = obj["rays"][0]
    if edit == "center":
        obj["center"] = value
    elif edit == "tip":
        ray["tip"][draw(st.sampled_from(("disc", "gap")))] = value
    elif edit == "step" and ray["steps"]:
        ray["steps"][0][0] = value
    elif edit == "side" and ray["steps"]:
        ray["steps"][0][draw(st.integers(1, 2))] = draw(st.sampled_from(("L", "R", "X", "")))
    elif edit == "drop":
        target = draw(st.sampled_from((ray, obj)))
        del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "ray":
        obj["rays"].append(value)
    elif edit == "whole":
        obj = value
    return surface.to_json(), obj


@settings(max_examples=120, deadline=None)
@given(star_objects())
@example(('{"discs": 3, "bands": [{"l": 1, "r": 2, "e": 1}, {"l": 1, "r": 3, "e": 1}, {"l": 1, "r": 2, "e": 1}]}',
          {"center": 3, "rays": [{"steps": [[1, "R", "L"]], "tip": {"disc": 1, "gap": 3}}]}))
def test_star_json_exits_0_1_or_2(tmp_path_factory, pair):
    surface, star = pair
    folder = tmp_path_factory.mktemp("star")
    (folder / "surface.json").write_text(surface)
    (folder / "star.json").write_text(json.dumps(star))
    for flags in ([], ["--trace"], ["--json"]):
        code, err = _exit_code(["star", "reduce", str(folder / "surface.json"), str(folder / "star.json"), *flags])
        assert code in (0, 1, 2), (surface, star, err)
        assert "internal error" not in err and "Traceback" not in err


# JSON input files for the malformed-input cases, by name.
CLI_FILES = {
    "list": [1, 2],
    "surface": {"discs": 3, "bands": [{"l": 1, "r": 2, "e": 1}, {"l": 1, "r": 3, "e": 1}]},
    "star_without_tip": {"center": 3, "rays": [{"steps": [[1, "R", "L"]]}]},
    "surface_bad_discs": {"discs": "x"},
    # Numbers that are not JSON integers: floats and booleans.
    "surface_float_discs": {"discs": 2.5, "bands": [{"l": 1, "r": 2, "e": 1}]},
    "surface_float_sign": {"discs": 2, "bands": [{"l": 1, "r": 2, "e": 1.0}]},
    "surface_bool_discs": {"discs": True, "bands": []},
    "trefoil_float_unknots": {"crossings": [list(x) for x in TREFOIL.crossings], "unknots": 1.5},
    "star_float_center": {"center": 1.9, "rays": [{"steps": [[0, "L", "R"]], "tip": {"disc": 2, "gap": 0}}]},
}


@pytest.mark.parametrize("argv", [
    ["diagram", "seifert", "{list}"],
    ["star", "reduce", "{surface}", "{star_without_tip}"],
    ["surface", "apply", "{surface}", "--move", "slip"],
    ["surface", "apply", "{surface}", "--move", "inflate,1"],
    ["surface", "apply", "{surface}", "--move", "inflate,1,x"],
    ["surface", "genus", "{surface_bad_discs}"],
    ["invariant", "alexander"],
    ["invariant", "components"],
    ["surface", "genus", "{surface_float_discs}"],
    ["surface", "genus", "{surface_float_sign}"],
    ["surface", "genus", "{surface_bool_discs}"],
    ["invariant", "components", "--diagram", "{trefoil_float_unknots}"],
    ["star", "reduce", "{surface}", "{star_float_center}"],
])
def test_malformed_input_is_exit_2(tmp_path, argv):
    paths = {}
    for name, obj in CLI_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argv = [arg.format(**paths) for arg in argv]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    assert code == 2


def test_failed_soundness_gate_is_exit_3(tmp_path, capsys, trefoil_file, monkeypatch):
    # A final comparison that rejects the finished word is an internal
    # failure, not bad input; a malformed diagram still is bad input.  Here
    # the closure's component count is off while every leaf's block of the
    # Seifert matrix matches, so no leaf is named to search on.
    closure_components = pipeline.closure_components
    monkeypatch.setattr(pipeline, "closure_components", lambda w: closure_components(w) + 1)
    assert run(["homogenize", trefoil_file]) == 3
    assert "plumbed word does not match the diagram's link" in capsys.readouterr().err
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"crossings": [[1, 2, 3, 4]]}))
    assert run(["homogenize", str(malformed)]) == 2
    assert not issubclass(pipeline.SoundnessError, ValueError)


@pytest.mark.parametrize("broken, message", [
    # The running word's letters at the shared circle, out of cyclic order.
    (lambda cut_at: lambda sigma, mine, *rest: cut_at(sigma, mine[::-1], *rest),
     "accumulated word is out of cyclic order"),
    # A schedule that no turn of the next leaf matches.
    (lambda cut_at: lambda *args: cut_at(*args)[::-1], "cannot align the piece"),
])
def test_plumbing_bookkeeping_failure_is_exit_3(tmp_path, capsys, monkeypatch, broken, message):
    # The granny knot plumbs two trefoils along a circle holding three
    # crossings of each, so a reversed order there is no rotation of it.
    path = tmp_path / "granny.json"
    path.write_text(closure_diagram(parse_word("s1^3 s2^3", strands=3)).to_json())
    assert run(["homogenize", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "_cut_at", broken(pipeline._cut_at))
    assert run(["homogenize", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_letter_sign_fault_is_exit_3(tmp_path, capsys, monkeypatch):
    # A letter whose sign is not its crossing's is a plumbing bug: exit 3
    # at once, not exit 2 after every leaf runs out of candidates.
    path = tmp_path / "granny.json"
    path.write_text(closure_diagram(parse_word("s1^3 s2^3", strands=3)).to_json())
    plumbed = pipeline._plumbed

    def flipped(*args):
        word, disc_of, letter_cids = plumbed(*args)
        (r, s, e), *rest = word.letters
        return BKLWord(word.strands, [(r, s, -e), *rest]), disc_of, letter_cids

    monkeypatch.setattr(pipeline, "_plumbed", flipped)
    assert run(["homogenize", str(path)]) == 3
    err = capsys.readouterr().err
    assert "plumbed word's letter signs differ from its crossings'" in err
    assert "no braided realization" not in err
